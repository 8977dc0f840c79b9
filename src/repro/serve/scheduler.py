"""The multi-tenant solve scheduler: one pool, many jobs, fair shares.

:class:`SolveScheduler` multiplexes any number of concurrent solve
jobs onto **one** shared :class:`~repro.parallel.pool.WorkerPool`.
The scheduler's constructor instance is only the *default*: a
:class:`~repro.serve.job.JobSpec` may carry its own instance, which
rides the ledger in wire form and the task path as a shared-memory
ref (one refcounted segment per distinct instance content, unlinked
when the last referencing job reaches a terminal state — see
:class:`~repro.parallel.shm.SharedInstanceStore`).  The design is
built around one invariant:

    *only the pump touches the pool.*

The pool is not thread-safe, so every pool call — dispatch, poll,
cancel — happens inside the single :meth:`_pump` coroutine; the
blocking ``pool.poll`` runs via ``asyncio.to_thread`` so the event
loop stays live for submissions.  Client-facing methods
(:meth:`submit`, :meth:`cancel`) only mutate scheduler state and then
call ``pool.wakeup()`` — the pool's one thread-safe method — so the
pump's blocked poll returns and applies their effects at once.  The
poll otherwise waits for a worker result or the pump's next timed
duty (snapshot, job deadline, retry backoff); there is no cadence.

Scheduling is three layered decisions, made every pump cycle:

* **admission** — :meth:`submit` bounds the wait queue
  (``max_queued``): overload is *rejected* loudly with
  :class:`~repro.errors.AdmissionError`, never silently dropped.
  Admission into the running set (``max_active``) pops the bounded
  queue highest-priority-first, FIFO within a priority level.
* **fairness** — a weighted :class:`DeficitRoundRobin` over *tenants*
  arbitrates which ready job dispatches its next iteration; the charge
  is the iteration's neighbor count, so tenants receive pool work in
  proportion to their weights regardless of how many jobs each has
  in flight.
* **flow control** — dispatch stops once the pool backlog reaches
  ``max_inflight`` tasks, so the fairness decision is re-made at every
  slot rather than buried in a deep FIFO queue.

Exactly-once per job rides on the pool's own machinery: every task is
tagged with its job id, retries re-seed deterministically, and the
delivered-prefix offsets guarantee no neighbor is lost or duplicated —
the service adds nothing but the tag.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time

from dataclasses import dataclass

from repro.errors import (
    AdmissionError,
    JobCancelled,
    JobDeadlineExceeded,
    SearchInterrupted,
    ServeError,
    WorkerPoolError,
    WrongInstanceError,
)
from repro.obs import NULL_OBS, Obs
from repro.obs.stream import (
    DEFAULT_BUFFER,
    TERMINAL_JOB_STATES,
    EventBus,
    is_terminal_job_event,
)
from repro.obs.tailserv import TailServer
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import SharedInstanceStore, instance_fingerprint
from repro.persistence import CheckpointPlan
from repro.serve.job import Job, JobSpec, JobState
from repro.serve.ledger import LEDGER_FILENAME, JobLedger

__all__ = ["DeficitRoundRobin", "ServeParams", "SolveScheduler"]

#: histogram buckets for job latency / queue-wait observations (seconds).
_LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: job_state values that end a tail stream (shared with the remote
#: tail server so both views end on the same event).
_TERMINAL_STATES = TERMINAL_JOB_STATES


@dataclass(frozen=True, slots=True)
class ServeParams:
    """Knobs of the solve service.

    ``quantum`` is the deficit round-robin credit (in neighbors) a
    weight-1.0 tenant accrues per replenishment round; larger values
    trade fairness granularity for fewer arbitration decisions.
    ``max_inflight`` bounds the pool backlog the dispatcher maintains
    (default ``2 * n_workers``: enough to keep every worker busy while
    the next fairness decision is being made).  ``snapshot_interval``
    is the cadence (seconds) of live ``metrics_snapshot`` events on the
    telemetry bus.
    """

    max_active: int = 64
    max_queued: int = 128
    quantum: float = 32.0
    max_inflight: int | None = None
    snapshot_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.max_active < 1:
            raise ServeError("max_active must be >= 1")
        if self.max_queued < 0:
            raise ServeError("max_queued must be >= 0")
        if self.quantum <= 0:
            raise ServeError("quantum must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServeError("max_inflight must be >= 1")
        if self.snapshot_interval <= 0:
            raise ServeError("snapshot_interval must be positive")


class DeficitRoundRobin:
    """Weighted deficit round-robin over tenants (pure, deterministic).

    Each tenant holds a *deficit* (spendable credit).  A replenishment
    round grants every backlogged tenant ``quantum * weight`` credit;
    serving a tenant charges the served work's cost.  :meth:`pick`
    collapses the round loop analytically: it computes how many whole
    rounds each backlogged tenant needs before it can afford its next
    item, grants that many rounds to all of them at once, and serves
    the first affordable tenant in rotation order — O(tenants) per
    decision, bit-for-bit reproducible, and long-run service shares
    proportional to weights.

    Idle tenants forfeit accumulated credit (the classic DRR rule):
    fairness divides the pool among tenants that *want* work now, and
    a tenant returning from idle must not burst ahead on stale credit.
    """

    def __init__(self, quantum: float = 32.0) -> None:
        if quantum <= 0:
            raise ServeError("quantum must be positive")
        self.quantum = float(quantum)
        self._deficit: dict[str, float] = {}
        self._weight: dict[str, float] = {}
        self._order: list[str] = []
        self._cursor = 0

    def ensure(self, tenant: str, weight: float = 1.0) -> None:
        """Register a tenant (idempotent; first registration wins the
        rotation position, :meth:`set_weight` adjusts later)."""
        if tenant not in self._weight:
            self._order.append(tenant)
            self._deficit[tenant] = 0.0
            self._weight[tenant] = float(weight)

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ServeError("tenant weight must be positive")
        self.ensure(tenant, weight)
        self._weight[tenant] = float(weight)

    def deficits(self) -> dict[str, float]:
        """Per-tenant spendable credit, in rotation order (diagnostic)."""
        return {tenant: self._deficit[tenant] for tenant in self._order}

    def pick(self, costs: dict[str, float]) -> str | None:
        """Choose which backlogged tenant serves next.

        ``costs`` maps each tenant with ready work to the cost of its
        next item; the winner's deficit is charged.  Returns ``None``
        only for an empty ``costs``.
        """
        if not costs:
            return None
        for tenant in costs:
            self.ensure(tenant)
        # Idle tenants lose their savings.
        for tenant in self._order:
            if tenant not in costs:
                self._deficit[tenant] = 0.0
        # Rotation order starting at the cursor.
        n = len(self._order)
        rotation = [
            self._order[(self._cursor + i) % n]
            for i in range(n)
            if self._order[(self._cursor + i) % n] in costs
        ]
        rounds = {
            tenant: max(
                0,
                math.ceil(
                    (costs[tenant] - self._deficit[tenant])
                    / (self.quantum * self._weight[tenant])
                ),
            )
            for tenant in rotation
        }
        need = min(rounds.values())
        winner = next(t for t in rotation if rounds[t] == need)
        if need:
            for tenant in rotation:
                self._deficit[tenant] += need * self.quantum * self._weight[tenant]
        self._deficit[winner] -= costs[winner]
        self._cursor = (self._order.index(winner) + 1) % n
        return winner

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DeficitRoundRobin(quantum={self.quantum}, tenants={self._order})"


class SolveScheduler:
    """Multi-tenant solve service over one shared worker pool.

    Use as an async context manager (or call :meth:`start` /
    :meth:`close` explicitly)::

        async with SolveScheduler(instance, n_workers=2) as scheduler:
            job = scheduler.submit(JobSpec(job_id="a", seed=7))
            result = await job.wait()

    ``checkpoint_dir`` enables per-job snapshots: each job writes
    ``serve_<job>.ckpt`` on its ``checkpoint_every`` cadence, and a job
    resubmitted with ``resume=True`` — to this scheduler or a brand-new
    one after a crash — continues from its snapshot bit-identically.

    With a checkpoint directory the scheduler is also *supervised*:
    every accepted job is journaled to a durable ledger
    (``serve_ledger.jsonl``), so a scheduler constructed over the same
    directory after a crash re-admits every unfinished job
    automatically (``recover=False`` opts out).  Jobs carry per-attempt
    fault budgets (``max_retries`` / ``deadline_s`` on
    :class:`~repro.serve.job.JobSpec`): a failed or overrunning attempt
    re-queues with exponential backoff and resumes from the latest
    checkpoint rather than scratch.  When the running set is full, a
    strictly higher-priority arrival preempts the lowest-priority
    running job to its checkpoint and resumes it later.
    """

    def __init__(
        self,
        instance,
        *,
        n_workers: int = 2,
        params: ServeParams | None = None,
        pool_params=None,
        tenant_weights: dict[str, float] | None = None,
        checkpoint_dir=None,
        checkpoint_every: int | None = None,
        obs=NULL_OBS,
        fault_plan=None,
        recover: bool = True,
        chaos=None,
        tail_port: int | None = None,
        tail_host: str = "127.0.0.1",
    ) -> None:
        if n_workers < 1:
            raise ServeError("need at least one worker process")
        self.instance = instance
        self.n_workers = n_workers
        self.params = params or ServeParams()
        self.pool_params = pool_params
        self.fault_plan = fault_plan
        # The telemetry plane needs an enabled tracer to have anything
        # to stream, so a scheduler handed a disabled bundle builds its
        # own: from the environment when REPRO_TRACE_DIR/REPRO_OBS ask
        # for a sink, else a plain in-memory bundle (nothing written to
        # disk).  Still pure observation: the engines stay
        # uninstrumented and bit-identity against the sequential oracle
        # is guarded by tests either way.  From here on ``self.obs`` is
        # always enabled, so nothing below checks.
        self._owns_obs = False
        if not obs.enabled:
            obs = Obs.from_env(span="serve")
            if not obs.enabled:
                obs = Obs(span="serve")
            self._owns_obs = True
        self.obs = obs
        #: live event fan-out behind :meth:`tail` / :meth:`tail_all`.
        self.bus = EventBus()
        self._bus_attached = False
        self._last_snapshot_at: float | None = None
        self._prev_counters: dict[str, float] = {}
        #: latest ``metrics_snapshot`` payload (``None`` until the
        #: first snapshot interval elapses) — the ``--watch`` view's
        #: pull-side fallback.
        self.last_snapshot: dict | None = None
        self._weights = dict(tenant_weights or {})
        self._plan = (
            CheckpointPlan(checkpoint_dir, every=checkpoint_every)
            if checkpoint_dir is not None
            else None
        )
        # The durable job ledger lives next to the checkpoints: a
        # scheduler without a checkpoint directory has nowhere to
        # recover *to*, so it runs unsupervised (best effort) exactly
        # as before.
        if self._plan is not None:
            self._plan.directory.mkdir(parents=True, exist_ok=True)
            self._ledger = JobLedger(self._plan.directory / LEDGER_FILENAME)
        else:
            self._ledger = None
        self._recover = recover
        self._recovered_from_ledger = False
        self._chaos = chaos
        self._pump_cycles = 0
        self._drr = DeficitRoundRobin(self.params.quantum)
        for tenant, weight in self._weights.items():
            self._drr.set_weight(tenant, weight)
        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, Job]] = []
        self._active: dict[str, Job] = {}
        self._seq = 0
        #: shared-memory segments of per-job instances, refcounted by
        #: job id; segments die with their last referencing job.
        self._store = SharedInstanceStore()
        #: content fingerprint of the constructor (default) instance,
        #: computed lazily — submitting only default-instance jobs with
        #: no ledger pays the hash exactly once.
        self._default_fp: str | None = None
        #: remote tail server (created in start() when tail_port is set;
        #: tail_port=0 binds an ephemeral port, see tail_address()).
        self._tail_port = tail_port
        self._tail_host = tail_host
        self._tail_server: TailServer | None = None
        self._tail_task: asyncio.Task | None = None
        self._pool: WorkerPool | None = None
        self._pump_task: asyncio.Task | None = None
        self._stopping = False
        self._closed = False
        self._max_inflight = self.params.max_inflight or 2 * n_workers
        # Service counters (always on; obs mirrors them).
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.cancelled = 0
        self.failed = 0
        self.peak_active = 0
        self.job_retries = 0
        self.preemptions = 0
        self.recovered_jobs = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool and the pump (needs a running loop).

        Any failure on this path — pool spawn, a corrupt ledger raising
        during recovery — tears down whatever was already built (pool
        processes, shared-memory segments, bus listener) before
        re-raising: a constructor-path exception must never leak a
        ``/dev/shm`` segment that no ``close()`` will ever reach.
        """
        if self._closed:
            raise ServeError("cannot restart a closed scheduler")
        try:
            if self._pool is None:
                self._pool = WorkerPool(
                    self.instance,
                    self.n_workers,
                    params=self.pool_params,
                    fault_plan=self.fault_plan,
                    obs=self.obs,
                )
            if not self._bus_attached:
                # Every tracer event — scheduler-emitted lifecycle events
                # and worker events folded in by the pool's poll thread —
                # fans out to tail subscribers.  publish() never blocks,
                # so the pump is never back-pressured by a slow consumer.
                self.obs.tracer.add_listener(self.bus.publish)
                self._bus_attached = True
            if (
                self._recover
                and not self._recovered_from_ledger
                and self._ledger is not None
                and self._ledger.exists()
            ):
                self._recovered_from_ledger = True
                self._recover_from_ledger()
        except BaseException:
            self._store.close()
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self._teardown_stream()
            self._closed = True
            raise
        if self._tail_port is not None and self._tail_server is None:
            self._tail_server = TailServer(
                self.bus, host=self._tail_host, port=self._tail_port
            )
            self._tail_task = asyncio.get_running_loop().create_task(
                self._tail_server.start(), name="repro-serve-tailserv"
            )
        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump(), name="repro-serve-pump"
            )

    async def tail_address(self) -> tuple[str, int]:
        """The remote tail server's bound ``(host, port)``.

        Useful with ``tail_port=0`` (ephemeral): awaits the listener
        actually binding before reporting where it landed.
        """
        if self._tail_server is None:
            raise ServeError("scheduler was not started with a tail_port")
        return await self._tail_server.address()

    def _recover_from_ledger(self) -> None:
        """Re-admit every job the ledger says was accepted but never
        finished (the supervised-recovery half of the failure story).

        Each open episode's ``accepted`` record carries the full wire
        form of its :class:`~repro.serve.job.JobSpec`; the job is
        rebuilt with ``resume=True`` so an attempt that reached a
        checkpoint continues bit-identically from its snapshot and one
        that never snapshotted restarts fresh.  Jobs the client already
        resubmitted by id keep the client's handle — recovery never
        shadows a live submission.
        """
        loop = asyncio.get_running_loop()
        for job_id, entry in self._ledger.replay().items():
            if job_id in self._jobs:
                continue
            spec = JobSpec.from_wire(entry["spec"], resume=True)
            job = Job(spec, loop.create_future(), now=time.monotonic())
            # Identity check before re-admission: the `accepted` entry
            # recorded the fingerprint of the instance this job was
            # solving.  A job with its own instance payload rebuilds it
            # from the ledger; a default-instance job gets whatever
            # instance *this* scheduler was constructed over — which
            # after a restart may be a different problem entirely.  On
            # mismatch the job fails loudly (wrong_instance waypoint +
            # terminal failed), never resumes silently.
            effective = spec.instance if spec.instance is not None else self.instance
            actual_fp = instance_fingerprint(effective)
            recorded_fp = entry.get("instance_fp")
            if recorded_fp is not None and recorded_fp != actual_fp:
                job._admit_seq = self._seq
                self._seq += 1
                self._jobs[job_id] = job
                self.submitted += 1
                self._fail_job(
                    job,
                    WrongInstanceError(
                        f"job {job_id!r} was accepted for instance fingerprint "
                        f"{recorded_fp[:12]}…, but the instance available at "
                        f"recovery has fingerprint {actual_fp[:12]}…; refusing "
                        "to resume it against the wrong problem"
                    ),
                )
                continue
            job._instance_fp = actual_fp
            if spec.instance is not None:
                job._instance_ref = self._store.acquire(
                    spec.instance, job_id, fingerprint=actual_fp
                )
            job.recovered = True
            job._admit_seq = self._seq
            self._jobs[job_id] = job
            heapq.heappush(self._heap, (-spec.priority, self._seq, job))
            self._seq += 1
            self.submitted += 1
            self.recovered_jobs += 1
            self._ledger.record("recovered", job_id)
            self.obs.metrics.inc("serve.recovered_jobs")
            self.obs.tracer.emit(
                "job_recovered",
                span=f"job-{job_id}",
                job=job_id,
                state=JobState.QUEUED,
                trace=job_id,
            )
            self._emit_state(job_id, JobState.QUEUED)

    async def abort(self) -> None:
        """Tear the service down with **no** terminal bookkeeping.

        The in-process stand-in for SIGKILL that the chaos harness
        uses: the pump stops, the worker processes are shut down, but
        unfinished jobs are neither failed nor journaled — their ledger
        episodes stay open, exactly as after a real crash, so a new
        scheduler on the same checkpoint directory recovers every one
        of them.  Client futures are cancelled; the work itself is not
        lost (it continues on the recovered scheduler).
        """
        if self._closed:
            return
        self._stopping = True
        self._wake_pump()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        if self._pool is not None:
            self._pool.close()
        for job in self._jobs.values():
            if not job._future.done():
                job._future.cancel()
        # A SIGKILL stand-in still cleans up *this* process's segments:
        # a real kill leans on the resource tracker; in-process abort
        # must not leak /dev/shm entries into the surviving interpreter.
        self._store.close()
        await self._stop_tail_server()
        self._teardown_stream()
        self._closed = True

    async def __aenter__(self) -> "SolveScheduler":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self, *, drain: bool = False) -> None:
        """Stop the service.

        ``drain=True`` first waits for every queued and running job to
        reach a terminal state; ``drain=False`` (the default) stops
        after the current poll — unfinished jobs fail with a
        :class:`~repro.errors.ServeError` telling the caller to
        resubmit with ``resume=True``, and their checkpoint files stay
        on disk.
        """
        if self._closed:
            return
        if drain and self._pump_task is not None:
            pending = [job._future for job in self._jobs.values()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._stopping = True
        self._wake_pump()
        if self._pump_task is not None:
            await self._pump_task
            self._pump_task = None
        for job in self._jobs.values():
            if not job._future.done():
                job._fail(
                    ServeError(
                        f"scheduler closed before job {job.job_id!r} finished "
                        f"({job.evaluations} evaluations served); resubmit "
                        "with resume=True to continue from its checkpoint"
                    )
                )
                # A deliberate close is a terminal decision, not a crash:
                # closing the episode keeps the ledger conserved and stops
                # the next scheduler from resurrecting abandoned work.
                self._record(job, "failed", cause="scheduler closed", attempts=job.attempts + 1)
        self._heap.clear()  # every waiting job just failed
        if self._pool is not None:
            self._pool.close()
        self._store.close()
        await self._stop_tail_server()
        self._teardown_stream()
        self._closed = True

    async def _stop_tail_server(self) -> None:
        if self._tail_task is not None:
            try:
                await self._tail_task
            except Exception:  # pragma: no cover - bind failure already surfaced
                pass
            self._tail_task = None
        if self._tail_server is not None:
            await self._tail_server.stop()

    def _teardown_stream(self) -> None:
        if self._bus_attached:
            self.obs.tracer.remove_listener(self.bus.publish)
            self._bus_attached = False
        self.bus.close()
        if self._owns_obs:
            self.obs.close()  # flush the auto-created bundle's sink, if any

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admit one job (or refuse it, loudly).

        Raises :class:`~repro.errors.AdmissionError` when the bounded
        wait queue is full or the scheduler is shutting down — the
        request never entered any queue, so the client can back off and
        resubmit.  Must run inside the scheduler's event loop.
        """
        if self._closed or self._stopping:
            raise AdmissionError(
                f"scheduler is shut down; job {spec.job_id!r} was not accepted"
            )
        if spec.job_id in self._jobs:
            raise ServeError(f"duplicate job id {spec.job_id!r}")
        if spec.resume and self._plan is None:
            raise ServeError(
                f"job {spec.job_id!r} requests resume but the scheduler has "
                "no checkpoint directory"
            )
        if self._queued_count() >= self.params.max_queued:
            self.rejected += 1
            self.obs.metrics.inc("serve.admission_rejects")
            self._emit_state(spec.job_id, "rejected")
            raise AdmissionError(
                f"admission queue full ({self.params.max_queued} jobs "
                f"waiting); job {spec.job_id!r} rejected — back off and "
                "resubmit"
            )
        future = asyncio.get_running_loop().create_future()
        job = Job(spec, future, now=time.monotonic())
        # Content identity first: the fingerprint rides the ledger (so
        # recovery can verify it), the checkpoint (via Job._build_state)
        # and the dedup key of the instance store.
        if spec.instance is not None:
            fp = instance_fingerprint(spec.instance)
            job._instance_ref = self._store.acquire(
                spec.instance, spec.job_id, fingerprint=fp
            )
        else:
            fp = self._default_fingerprint()
        job._instance_fp = fp
        # Durable accept *before* the job becomes visible: once the
        # ledger line is fsynced, no crash can lose this job.
        if self._ledger is not None:
            try:
                self._ledger.record(
                    "accepted",
                    spec.job_id,
                    spec=spec.to_wire(),
                    tenant=spec.tenant,
                    priority=spec.priority,
                    instance_fp=fp,
                )
            except BaseException:
                # The job never became visible; its segment ref must
                # not outlive this failed submit.
                if job._instance_ref is not None:
                    self._store.release(fp, spec.job_id)
                raise
        job._admit_seq = self._seq
        self._jobs[spec.job_id] = job
        heapq.heappush(self._heap, (-spec.priority, self._seq, job))
        self._seq += 1
        self.submitted += 1
        self._emit_state(spec.job_id, JobState.QUEUED)
        self._wake_pump()
        return job

    def _wake_pump(self) -> None:
        """Make the pump's blocked ``pool.poll`` return now (the pool's
        one thread-safe call), so a submission, cancellation or
        shutdown takes effect without waiting for a result."""
        if self._pool is not None:
            self._pool.wakeup()

    def _queued_count(self) -> int:
        """Jobs waiting for admission (queued, backing off a retry, or
        preempted): exactly the heap, which holds nothing else."""
        return len(self._heap)

    def _unqueue(self, job: Job) -> None:
        """Drop a waiting job's heap entry when it ends without being
        admitted, so it stops holding an admission slot."""
        self._heap = [entry for entry in self._heap if entry[2] is not job]
        heapq.heapify(self._heap)

    def _default_fingerprint(self) -> str:
        if self._default_fp is None:
            self._default_fp = instance_fingerprint(self.instance)
        return self._default_fp

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns False if already terminal.

        Queued jobs cancel immediately; running jobs are cancelled by
        the pump, which drops their pending pool tasks and discards the
        remaining batches of in-flight ones (graceful drain — workers
        are never killed, other jobs keep their cached state).
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        if job.done():
            return False
        if job.state in (JobState.QUEUED, JobState.PREEMPTED):
            # Not on the pool (a preempted job's tasks were already
            # cancelled at suspension), so cancel immediately and free
            # its admission slot.
            self._unqueue(job)
            self._finish_cancelled(job)
        else:
            job.cancel_requested = True
            self._wake_pump()
        return True

    def get_job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        return job

    def report(self) -> dict:
        """Service counters plus the pool's own report (always readable,
        including after :meth:`close`)."""
        out = {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "active": len(self._active),
            "queued": self._queued_count(),
            "peak_active": self.peak_active,
            "job_retries": self.job_retries,
            "preemptions": self.preemptions,
            "recovered_jobs": self.recovered_jobs,
            "instance_segments": self._store.segment_count(),
        }
        if self._tail_server is not None:
            out["tailserv"] = self._tail_server.report()
        if self._pool is not None:
            out["pool"] = self._pool.report()
        return out

    async def tail(self, job_id: str, *, maxsize: int = DEFAULT_BUFFER):
        """Stream one job's events live, ending at its terminal state.

        An async iterator over the job's ``job_state`` /
        ``job_progress`` / ``checkpoint`` / worker events as they
        happen (everything carrying the job's id or trace).  The
        stream ends after yielding the terminal ``job_state``
        (done/cancelled/failed); tailing a job that already finished
        yields nothing.  A subscriber that falls more than ``maxsize``
        events behind loses the oldest buffered ones —
        :attr:`~repro.obs.stream.Subscription.dropped` on the bus
        counts them — and never slows the pump down.
        """
        job = self.get_job(job_id)
        sub = self.bus.subscribe(
            predicate=lambda e: (
                e.get("job") == job_id or e.get("trace") == job_id
            ),
            maxsize=maxsize,
        )
        # No await between the done() check and iteration: the pump
        # runs on this same loop, so the terminal event either already
        # happened (stream stays empty) or will reach the subscription.
        if job.done():
            sub.close()
            return
        try:
            async for event in sub:
                yield event
                if is_terminal_job_event(event):
                    return
        finally:
            sub.close()

    async def tail_all(self, *, maxsize: int = DEFAULT_BUFFER):
        """Stream every tracer event (all jobs, snapshots, workers).

        Ends when the scheduler closes; same drop-oldest back-pressure
        policy as :meth:`tail`.
        """
        sub = self.bus.subscribe(maxsize=maxsize)
        try:
            async for event in sub:
                yield event
        finally:
            sub.close()

    # ------------------------------------------------------------------
    # The pump: the single owner of every pool interaction
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        pool = self._pool
        try:
            while True:
                if self._stopping:
                    return
                self._pump_cycles += 1
                if self._chaos is not None:
                    stall = self._chaos.stall_for(self._pump_cycles)
                    if stall:
                        await asyncio.sleep(stall)
                self._apply_cancellations()
                self._apply_deadlines()
                self._admit()
                self._dispatch()
                self._update_gauges()
                self._maybe_snapshot()
                # The thread hop keeps the loop live while the poll
                # blocks, and keeps the poll's failure handling (process
                # joins, tasks run on the master) off the loop.
                events = await asyncio.to_thread(pool.poll, self._next_duty_in())
                self._route(events)
        except Exception as exc:  # noqa: BLE001 - the pump must not die silently
            wrapped = ServeError(f"solve-service pump failed: {exc}")
            wrapped.__cause__ = exc
            for job in list(self._jobs.values()):
                if not job._future.done():
                    self._fail_job(job, wrapped)

    def _next_duty_in(self) -> float:
        """Seconds until the pump's next timed duty: the next metrics
        snapshot, the earliest active job's deadline or the earliest
        queued retry's backoff end.  Everything else that needs the
        pump — results, submissions, cancellations, shutdown — wakes
        its poll directly."""
        now = time.monotonic()
        instants = [self._last_snapshot_at + self.params.snapshot_interval]
        for job in self._active.values():
            deadline = job.spec.deadline_s
            if (
                deadline is not None
                and not job.cancel_requested
                and job.attempt_started_at is not None
            ):
                instants.append(job.attempt_started_at + deadline)
        for _, _, job in self._heap:
            if job.state == JobState.QUEUED and job.retry_at > now:
                instants.append(job.retry_at)
        return max(min(instants) - now, 0.0)

    def _route(self, events) -> None:
        for event in events:
            job = self._active.get(event.tag)
            if job is None or job.cancel_requested:
                continue
            try:
                job._on_event(event)
            except Exception as exc:  # CrashInjected, SearchInterrupted, ...
                self._fail_or_retry(job, exc)
        for job in list(self._active.values()):
            if job._finished and not job._pending_finals:
                self._finish_job(job)

    def _admit(self) -> None:
        now = time.monotonic()
        deferred: list[tuple[int, int, Job]] = []
        while self._heap:
            job = self._heap[0][2]
            if job.state == JobState.QUEUED and job.retry_at > now:
                # Backoff gate: the retry is queued but not yet due.
                deferred.append(heapq.heappop(self._heap))
                continue
            if len(self._active) >= self.params.max_active:
                victim = self._preemption_victim(job.spec.priority)
                if victim is None:
                    break
                self._preempt(victim)
                continue
            heapq.heappop(self._heap)
            if job.state == JobState.PREEMPTED:
                # Same engine object, untouched since suspension: the
                # resumed iteration replays the exact dispatch the
                # preemption aborted, so the trajectory stays
                # bit-identical to an uninterrupted run.
                job._resume_preempted()
                self._active[job.job_id] = job
                self.peak_active = max(self.peak_active, len(self._active))
                self._emit_state(job.job_id, JobState.RUNNING)
                if job._finished and not job._pending_finals:
                    self._finish_job(job)  # preempted after its last iteration
                continue
            policy = self._policy_for(job)
            self._drr.ensure(job.tenant, self._weights.get(job.tenant, 1.0))
            effective = (
                job.spec.instance
                if job.spec.instance is not None
                else self.instance
            )
            try:
                job._start(effective, policy, self.obs)
            except Exception as exc:
                self._fail_or_retry(job, exc)
                continue
            if job.checkpoint_corrupt is not None:
                self._note_checkpoint_corrupt(job)
            self._active[job.job_id] = job
            self.peak_active = max(self.peak_active, len(self._active))
            self._emit_state(job.job_id, JobState.RUNNING)
            if job._finished:  # zero budget left (e.g. resumed past it)
                self._finish_job(job)
        for item in deferred:
            heapq.heappush(self._heap, item)

    def _policy_for(self, job: Job):
        """The checkpoint policy one attempt of ``job`` runs under.

        Retries and recovered jobs always resume (continuing from the
        latest snapshot instead of scratch is the whole point of the
        retry budget); chaos-injected crashes fire on the first attempt
        only, so the retry that follows proves the recovery path.
        """
        if self._plan is None:
            return None
        spec = job.spec
        crash_after = None
        if (
            self._chaos is not None
            and job.attempts == 0
            and not job.recovered
        ):
            crash_after = self._chaos.crash_after_for(job.job_id)
        resume = spec.resume or job.attempts > 0 or job.recovered
        if (
            spec.checkpoint_every is None
            and not resume
            and self._plan.every is None
            and crash_after is None
        ):
            return None
        return self._plan.policy_for_job(
            job.job_id,
            every=spec.checkpoint_every,
            resume=resume,
            crash_after=crash_after,
        )

    def _note_checkpoint_corrupt(self, job: Job) -> None:
        """A resume found a corrupt snapshot: loud, journaled, non-fatal
        (the attempt restarted fresh; see ``Job._start``)."""
        self._record(job, "checkpoint_corrupt", error=job.checkpoint_corrupt)
        self.obs.metrics.inc("serve.checkpoint_corrupt")
        self.obs.tracer.emit(
            "job_checkpoint_corrupt",
            span=f"job-{job.job_id}",
            job=job.job_id,
            error=job.checkpoint_corrupt,
            trace=job.job_id,
        )

    def _note_wrong_instance(self, job: Job, exc: BaseException) -> None:
        """A job was about to run against the wrong instance: loud,
        journaled, and terminal (unlike a corrupt checkpoint there is
        no safe fresh-restart — the problem itself is ambiguous)."""
        self.obs.metrics.inc("serve.wrong_instance")
        self.obs.tracer.emit(
            "job_wrong_instance",
            span=f"job-{job.job_id}",
            job=job.job_id,
            error=str(exc),
            trace=job.job_id,
        )

    def _preemption_victim(self, priority: int) -> Job | None:
        """The running job a ``priority`` arrival may displace: the
        lowest-priority active job (latest-admitted on ties), and only
        if its priority is *strictly* lower — equal-priority work is
        never churned."""
        victim: Job | None = None
        victim_key: tuple[int, int] | None = None
        for job in self._active.values():
            if job.cancel_requested or job.state != JobState.RUNNING:
                continue
            key = (job.spec.priority, -job._admit_seq)
            if victim_key is None or key < victim_key:
                victim, victim_key = job, key
        if victim is None or victim.spec.priority >= priority:
            return None
        return victim

    def _preempt(self, victim: Job) -> None:
        self._pool.cancel_tag(victim.job_id)
        del self._active[victim.job_id]
        victim._suspend()
        heapq.heappush(
            self._heap, (-victim.spec.priority, victim._admit_seq, victim)
        )
        self.preemptions += 1
        self._record(victim, "preempted", evaluations=victim.evaluations)
        self.obs.metrics.inc("serve.preemptions")
        self.obs.tracer.emit(
            "job_preempted",
            span=f"job-{victim.job_id}",
            job=victim.job_id,
            evaluations=victim.evaluations,
            trace=victim.job_id,
        )
        self._emit_state(victim.job_id, JobState.PREEMPTED)

    def _dispatch(self) -> None:
        pool = self._pool
        while pool.backlog() < self._max_inflight:
            ready: dict[str, Job] = {}
            for job in self._active.values():
                if job._ready and job.tenant not in ready:
                    ready[job.tenant] = job
            if not ready:
                return
            costs = {
                tenant: float(job._iteration_cost())
                for tenant, job in ready.items()
            }
            tenant = self._drr.pick(costs)
            job = ready[tenant]
            try:
                job._dispatch(pool)
            except Exception as exc:
                self._fail_or_retry(job, exc)

    def _apply_cancellations(self) -> None:
        for job in list(self._active.values()):
            if job.cancel_requested:
                self._pool.cancel_tag(job.job_id)
                del self._active[job.job_id]
                self._finish_cancelled(job)

    def _apply_deadlines(self) -> None:
        now = time.monotonic()
        for job in list(self._active.values()):
            deadline = job.spec.deadline_s
            if (
                deadline is not None
                and not job.cancel_requested
                and job.attempt_started_at is not None
                and now - job.attempt_started_at > deadline
            ):
                self._fail_or_retry(
                    job,
                    JobDeadlineExceeded(
                        f"job {job.job_id!r} attempt {job.attempts + 1} "
                        f"exceeded its {deadline}s deadline after "
                        f"{job.evaluations} evaluations"
                    ),
                )

    # ------------------------------------------------------------------
    # Terminal transitions (and the retry escape hatch before them)
    # ------------------------------------------------------------------
    def _record(self, job: Job, event: str, **fields) -> None:
        if self._ledger is not None:
            try:
                self._ledger.record(event, job.job_id, **fields)
            except OSError:  # pragma: no cover - disk loss at journal time
                # The job outcome must still reach the client; a
                # write-failed ledger only degrades recovery.
                pass

    def _fail_or_retry(self, job: Job, exc: BaseException) -> None:
        """Route one attempt's failure: burn a retry when the budget
        allows, otherwise make the failure terminal.

        Cancellation and admission refusals are never retried — they
        are decisions, not faults.  Wrong-instance resumes are not
        retried either: every retry would see the same mismatch.
        """
        retryable = not isinstance(
            exc,
            (AdmissionError, JobCancelled, SearchInterrupted, WrongInstanceError),
        )
        if retryable and job.attempts < job.spec.max_retries:
            self._retry_job(job, exc)
        else:
            self._fail_job(job, exc)

    def _retry_job(self, job: Job, exc: BaseException) -> None:
        self._active.pop(job.job_id, None)
        if self._pool is not None and not self._pool._closed:
            try:
                self._pool.cancel_tag(job.job_id)
            except WorkerPoolError:  # pragma: no cover - defensive
                pass
        job._reset_for_retry(time.monotonic())
        heapq.heappush(self._heap, (-job.spec.priority, job._admit_seq, job))
        self.job_retries += 1
        self._record(job, "retry", attempt=job.attempts, cause=repr(exc))
        self.obs.metrics.inc("serve.job_retries")
        self.obs.tracer.emit(
            "job_retry",
            span=f"job-{job.job_id}",
            job=job.job_id,
            attempt=job.attempts,
            cause=type(exc).__name__,
            trace=job.job_id,
        )
        self._emit_state(job.job_id, JobState.QUEUED)

    def _release_instance(self, job: Job) -> None:
        """Drop the job's refcount on its shared instance segment (the
        segment unlinks when the last referencing job goes terminal).
        No-op for default-instance jobs and under double release."""
        if job._instance_ref is not None and job._instance_fp is not None:
            self._store.release(job._instance_fp, job.job_id)
            job._instance_ref = None

    def _finish_job(self, job: Job) -> None:
        del self._active[job.job_id]
        job._finalize(self.n_workers)
        self._release_instance(job)
        self.completed += 1
        self._record(job, "done", evaluations=job.evaluations)
        m = self.obs.metrics
        m.inc("serve.jobs_completed")
        m.observe(
            "serve.job_latency_s",
            job.finished_at - job.submitted_at,
            buckets=_LATENCY_BUCKETS,
        )
        m.observe(
            "serve.job_queue_wait_s",
            job.started_at - job.submitted_at,
            buckets=_LATENCY_BUCKETS,
        )
        self._emit_state(job.job_id, JobState.DONE)

    def _finish_cancelled(self, job: Job) -> None:
        job._cancelled()
        self._release_instance(job)
        self.cancelled += 1
        self._record(job, "cancelled", evaluations=job.evaluations)
        self.obs.metrics.inc("serve.jobs_cancelled")
        self._emit_state(job.job_id, JobState.CANCELLED)

    def _fail_job(self, job: Job, exc: BaseException) -> None:
        self._active.pop(job.job_id, None)
        if job.state in (JobState.QUEUED, JobState.PREEMPTED):
            self._unqueue(job)
        if self._pool is not None and not self._pool._closed:
            try:
                self._pool.cancel_tag(job.job_id)
            except WorkerPoolError:  # pragma: no cover - defensive
                pass
        if isinstance(exc, WrongInstanceError):
            # Journal the waypoint (checkpoint_corrupt-style) before the
            # terminal record, so the ledger names *why* this job died.
            self._record(
                job, "wrong_instance", error=str(exc), attempts=job.attempts + 1
            )
            self._note_wrong_instance(job, exc)
        job._fail(exc)
        self._release_instance(job)
        self.failed += 1
        self._record(job, "failed", cause=repr(exc), attempts=job.attempts + 1)
        self.obs.metrics.inc("serve.jobs_failed")
        self._emit_state(job.job_id, JobState.FAILED)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _emit_state(self, job_id: str, state: str) -> None:
        # ``job-<id>`` is the root span of the job's trace: no
        # ``parent`` field, so the spans CLI anchors the tree here.
        self.obs.tracer.emit(
            "job_state",
            span=f"job-{job_id}",
            job=job_id,
            state=state,
            trace=job_id,
        )

    def _update_gauges(self) -> None:
        m = self.obs.metrics
        m.gauge("serve.jobs_active", len(self._active))
        m.gauge("serve.jobs_queued", self._queued_count())
        m.gauge("serve.peak_active", self.peak_active)
        if self._pool is not None:
            m.gauge("serve.pool_backlog", self._pool.backlog())

    def _maybe_snapshot(self) -> None:
        """Publish a point-in-time metrics reading on the snapshot
        cadence: the live-telemetry heartbeat watchers and soak
        harnesses sample instead of waiting for the run to end."""
        now = time.monotonic()
        if (
            self._last_snapshot_at is not None
            and now - self._last_snapshot_at < self.params.snapshot_interval
        ):
            return
        self._last_snapshot_at = now
        counters = {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "job_retries": self.job_retries,
            "preemptions": self.preemptions,
            "recovered_jobs": self.recovered_jobs,
        }
        deltas = {
            name: value - self._prev_counters.get(name, 0)
            for name, value in counters.items()
        }
        self._prev_counters = counters
        snapshot = {
            "jobs_active": len(self._active),
            "jobs_queued": self._queued_count(),
            "pool_backlog": self._pool.backlog() if self._pool is not None else 0,
            "deficits": self._drr.deficits(),
            "counters": counters,
            "deltas": deltas,
            "stream": {
                "published": self.bus.published,
                "dropped": self.bus.dropped(),
                "subscribers": self.bus.subscriber_count(),
            },
            "metrics": self.obs.metrics.snapshot(),
        }
        self.last_snapshot = snapshot
        self.obs.tracer.emit("metrics_snapshot", snapshot=snapshot)
