"""One solve job of the multi-tenant service: spec, handle, runner.

A *job* is one complete TSMO run — its own engine, RNG stream,
evaluation budget and archive — time-sliced onto the scheduler's
shared :class:`~repro.parallel.pool.WorkerPool` at iteration
granularity.  :class:`JobSpec` is the immutable request; :class:`Job`
is both the client-facing handle (``state``, ``await job.wait()``) and
the scheduler-facing runner that drives the engine one iteration at a
time through tagged pool tasks.

Two drivers:

* ``"lockstep"`` — one task per iteration carrying the engine's exact
  PCG64 bit-state; the worker continues the master's own stream and
  ships the advanced state back, so the job's trajectory is
  bit-identical to :func:`~repro.tabu.search.run_sequential_tsmo` with
  the same seed (the property the kill-and-resume test relies on).
* ``"split"`` — ``n_tasks`` chunks per iteration, each with an
  independent per-task seed drawn from a job-owned
  :class:`~repro.rng.RngFactory` stream; deterministic for a given
  spec seed regardless of worker failures, but not sequential-identical.

The runner follows the sequential driver's checkpoint protocol
exactly: the policy block (snapshot-if-due, then maybe-crash) runs at
every iteration boundary *before* the done-check, so a resumed job
replays the same number of iterations and snapshots land on the same
absolute evaluation thresholds.
"""

from __future__ import annotations

import asyncio
import time

from dataclasses import asdict, dataclass, field, fields

from repro.core.evaluation import Evaluator
from repro.core.stats_cache import CacheStats
from repro.errors import CheckpointError, JobCancelled, ServeError, WrongInstanceError
from repro.obs import NULL_OBS
from repro.parallel.mp_backend import _wire_neighbor
from repro.parallel.shm import SharedInstanceRef, instance_fingerprint
from repro.parallel.sync_ts import split_chunks
from repro.parallel.wire import instance_from_wire, instance_to_wire
from repro.rng import RngFactory, as_generator, get_generator_state, set_generator_state
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult
from repro.vrptw.instance import Instance

__all__ = ["DRIVERS", "Job", "JobSpec", "JobState"]

#: the job drivers the service knows how to run.
DRIVERS = ("lockstep", "split")


class JobState:
    """The lifecycle states of a solve job (plain strings, not an enum,
    so reports and traces serialize without ceremony)."""

    QUEUED = "queued"
    RUNNING = "running"
    #: suspended to its checkpoint by a higher-priority arrival; the
    #: engine stays warm in memory and the job re-enters the running
    #: set (bit-identically) once capacity frees up.
    PREEMPTED = "preempted"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One immutable solve request.

    ``job_id`` doubles as the pool task tag and (sanitized) checkpoint
    file name, so it must be unique per scheduler.  ``priority`` orders
    admission (higher first, FIFO within a level); ``tenant`` is the
    fairness identity — the deficit round-robin arbitrates *between*
    tenants, never between one tenant's own jobs.
    """

    job_id: str
    tenant: str = "default"
    priority: int = 0
    seed: int | None = None
    params: TSMOParams = field(default_factory=TSMOParams)
    #: ``"lockstep"`` (sequential-identical, checkpoint-resumable) or
    #: ``"split"`` (``n_tasks`` independent chunks per iteration).
    driver: str = "lockstep"
    n_tasks: int = 1
    #: evaluations between periodic snapshots (None: scheduler default).
    checkpoint_every: int | None = None
    #: continue from this job's snapshot file if one exists.
    resume: bool = False
    #: failed attempts the scheduler may retry (from the latest
    #: checkpoint, not from scratch) before the job fails terminally.
    max_retries: int = 0
    #: base of the exponential retry backoff (seconds before the k-th
    #: retry becomes admittable again: ``retry_backoff_s * 2**(k-1)``).
    retry_backoff_s: float = 0.05
    #: per-*attempt* wall-clock deadline (None: unlimited).  An attempt
    #: that overruns is cancelled and retried from its latest
    #: checkpoint while the retry budget lasts.
    deadline_s: float | None = None
    #: the instance this job solves (None: the scheduler's default).
    #: Excluded from repr/compare — the arrays are large and numpy
    #: equality does not reduce to bool; identity is the content
    #: fingerprint, not dataclass equality.
    instance: Instance | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ServeError("job_id must be a non-empty string")
        if self.driver not in DRIVERS:
            raise ServeError(
                f"unknown job driver {self.driver!r}; expected one of {DRIVERS}"
            )
        if self.n_tasks < 1:
            raise ServeError("n_tasks must be >= 1")
        if self.driver == "lockstep" and self.n_tasks != 1:
            raise ServeError(
                "lockstep jobs run exactly one task per iteration; "
                f"n_tasks={self.n_tasks} would break the bit-identity contract"
            )
        if self.max_retries < 0:
            raise ServeError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ServeError("retry_backoff_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError("deadline_s must be positive")

    # ------------------------------------------------------------------
    # Wire form (the job ledger stores this; recovery rebuilds from it)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """A plain-JSON dict carrying everything needed to rebuild the
        spec in another process (the ledger's ``accepted`` payload).

        Shallow on purpose: ``asdict`` would recurse into the frozen
        :class:`Instance` dataclass and emit raw numpy arrays; the
        instance ships through its own codec
        (:func:`~repro.parallel.wire.instance_to_wire`) instead, so
        recovery can rebuild a per-job instance the restarted scheduler
        never saw.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["params"] = asdict(self.params)
        data["instance"] = (
            instance_to_wire(self.instance) if self.instance is not None else None
        )
        return data

    @classmethod
    def from_wire(cls, wire: dict, **overrides) -> "JobSpec":
        """Rebuild a spec from :meth:`to_wire` output.

        ``overrides`` patch fields on the way in — recovery forces
        ``resume=True`` so a re-admitted job continues from its
        snapshot instead of restarting.  Ledgers written before specs
        carried instances simply lack the key, which decodes to the
        scheduler-default instance.
        """
        data = dict(wire)
        data["params"] = TSMOParams(**data["params"])
        payload = data.get("instance")
        if isinstance(payload, dict):
            data["instance"] = instance_from_wire(payload)
        data.update(overrides)
        return cls(**data)


class Job:
    """Handle and runner of one submitted job.

    Clients read ``state``/``iterations``/``evaluations`` and ``await
    job.wait()``; everything prefixed with ``_`` is the scheduler-side
    runner, only ever touched from the scheduler's event loop (the pump
    is the single writer, so no locking is needed).
    """

    def __init__(self, spec: JobSpec, future: asyncio.Future, *, now: float) -> None:
        self.spec = spec
        self.state = JobState.QUEUED
        self.submitted_at = now
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.result: TSMOResult | None = None
        self.error: BaseException | None = None
        #: set by :meth:`SolveScheduler.cancel`; the pump applies it.
        self.cancel_requested = False
        #: failed attempts retried so far (attempt number - 1).
        self.attempts = 0
        #: monotonic time before which a retried job is not re-admitted
        #: (the exponential backoff gate).
        self.retry_at = 0.0
        #: start of the *current* attempt (the deadline clock; a
        #: preempted job's clock restarts on resume so suspended time
        #: never burns the deadline).
        self.attempt_started_at: float | None = None
        #: re-admitted from the ledger by a restarted scheduler.
        self.recovered = False
        #: why the resume snapshot was rejected (corrupt fallback).
        self.checkpoint_corrupt: str | None = None
        self._future = future
        self._obs = NULL_OBS
        #: admission key (set at submit; preemption/retry re-queue with
        #: it so FIFO order within a priority level is preserved).
        self._admit_seq = 0
        #: content identity of the instance this job solves (set by the
        #: scheduler at submit/recovery; recorded in the ledger and in
        #: every serve-job checkpoint).  Survives retries — the identity
        #: of the work never changes between attempts.
        self._instance_fp: str | None = None
        #: shared-memory ref tasks carry when the job's instance is not
        #: the pool default (owned by the scheduler's instance store).
        self._instance_ref: SharedInstanceRef | None = None
        # Runner state, populated by _start().
        self._engine: TSMOEngine | None = None
        self._policy = None
        self._seed_rng = None
        self._lockstep = spec.driver == "lockstep"
        self._chunk_sizes: list[int] = []
        self._task_order: list[int] = []
        self._buffers: dict[int, list] = {}
        self._pending_finals: set[int] = set()
        self._rng_back: dict | None = None
        self._finished = False
        self._worker_hits = 0
        self._worker_misses = 0
        self._snaps_seen = 0

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def iterations(self) -> int:
        return self._engine.iteration if self._engine is not None else 0

    @property
    def evaluations(self) -> int:
        return self._engine.evaluator.count if self._engine is not None else 0

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._future.done()

    async def wait(self) -> TSMOResult:
        """Block until the job finishes; returns its result.

        Raises :class:`~repro.errors.JobCancelled` for cancelled jobs
        and re-raises the failure of failed ones.
        """
        return await self._future

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Job({self.job_id!r}, tenant={self.tenant!r}, "
            f"state={self.state!r}, evaluations={self.evaluations})"
        )

    # ------------------------------------------------------------------
    # Scheduler-side runner (single-threaded: only the pump calls these)
    # ------------------------------------------------------------------
    def _start(self, instance, policy, obs) -> None:
        """Build the engine (fresh or from a resume snapshot)."""
        spec = self.spec
        self._obs = obs
        self._policy = policy
        self._snaps_seen = policy.snapshots_written if policy is not None else 0
        if self._instance_fp is None:
            self._instance_fp = instance_fingerprint(instance)
        # Per-attempt note: a stale corruption report from a previous
        # attempt must not be re-journaled by this one.
        self.checkpoint_corrupt = None
        evaluator = Evaluator(instance, spec.params.max_evaluations)
        # The engine stays uninstrumented: service-level observability
        # lives on job-scoped events/metrics, and an instrumented engine
        # would break bit-identity against the NULL_OBS sequential run.
        engine = TSMOEngine(
            instance, spec.params, as_generator(spec.seed), evaluator=evaluator
        )
        self._engine = engine
        if self._lockstep:
            self._chunk_sizes = [spec.params.neighborhood_size]
        else:
            self._chunk_sizes = [
                size
                for size in split_chunks(spec.params.neighborhood_size, spec.n_tasks)
                if size > 0
            ]
            self._seed_rng = RngFactory(spec.seed).generator()
        try:
            resumed = (
                policy.load_resume_state(kind="serve-job")
                if policy is not None
                else None
            )
        except CheckpointError as exc:
            # A corrupt resume snapshot (torn tail, bad sha256, stale
            # format) must not escape the scheduler pump: fall back to
            # a fresh restart, loudly — the bad file is dropped so the
            # next periodic snapshot replaces it, and the scheduler
            # emits a job_checkpoint_corrupt event + ledger record.
            self.checkpoint_corrupt = str(exc)
            policy.path.unlink(missing_ok=True)
            resumed = None
        if resumed is not None:
            recorded = resumed.get("instance_fp")
            if recorded is not None and recorded != self._instance_fp:
                # The snapshot belongs to a different problem.  Resuming
                # would splice this instance's evaluations onto another
                # instance's trajectory — fail loudly, never silently.
                raise WrongInstanceError(
                    f"job {self.job_id!r} checkpoint was written for instance "
                    f"fingerprint {recorded[:12]}…, but the instance available "
                    f"at resume has fingerprint {self._instance_fp[:12]}…"
                )
            engine.restore(resumed["engine"])
            if self._seed_rng is not None and resumed.get("seed_rng") is not None:
                set_generator_state(self._seed_rng, resumed["seed_rng"])
            policy.note_resumed(engine.evaluator.count)
        else:
            engine.initialize()
        self.state = JobState.RUNNING
        self.started_at = time.monotonic()
        self.attempt_started_at = self.started_at
        self._boundary()

    @property
    def _ready(self) -> bool:
        """Dispatchable: running, quiescent, budget left."""
        return (
            self.state == JobState.RUNNING
            and not self._finished
            and not self._pending_finals
            and not self.cancel_requested
        )

    def _iteration_cost(self) -> int:
        """Fairness charge of one iteration: neighbors evaluated."""
        return sum(self._chunk_sizes)

    def _dispatch(self, pool) -> int:
        """Submit one iteration's tasks onto the shared pool."""
        engine = self._engine
        iteration = engine.iteration + 1
        self._task_order = []
        self._buffers = {}
        self._rng_back = None
        # Span propagation: worker_task events of this job's tasks join
        # the job's trace, parented under its lifecycle span.
        trace = (self.job_id, f"job-{self.job_id}")
        if self._lockstep:
            task_id = pool.submit(
                engine.current.routes,
                self._chunk_sizes[0],
                rng_state=engine.rng.bit_generator.state,
                iteration=iteration,
                tag=self.job_id,
                trace=trace,
                instance_ref=self._instance_ref,
            )
            self._task_order.append(task_id)
            self._buffers[task_id] = []
        else:
            for size in self._chunk_sizes:
                task_id = pool.submit(
                    engine.current.routes,
                    size,
                    seed=int(self._seed_rng.integers(2**63)),
                    iteration=iteration,
                    tag=self.job_id,
                    trace=trace,
                    instance_ref=self._instance_ref,
                )
                self._task_order.append(task_id)
                self._buffers[task_id] = []
        self._pending_finals = set(self._task_order)
        return len(self._task_order)

    def _on_event(self, event) -> None:
        """Fold one tagged :class:`BatchEvent` into the current iteration."""
        buffer = self._buffers.get(event.task_id)
        if buffer is None:
            return  # a batch of an already-completed iteration (stale)
        buffer.extend(event.neighbors)
        if not event.final:
            return
        self._pending_finals.discard(event.task_id)
        if event.cache_delta is not None:
            self._worker_hits += event.cache_delta[0]
            self._worker_misses += event.cache_delta[1]
        if self._lockstep and event.rng_state is not None:
            self._rng_back = event.rng_state
        if not self._pending_finals and self._task_order:
            self._complete_iteration()

    def _complete_iteration(self) -> None:
        """All finals in: rebuild neighbors in task order and select."""
        engine = self._engine
        iteration = engine.iteration + 1
        neighbors = []
        for task_id in self._task_order:  # task order, not arrival order
            for triple in self._buffers[task_id]:
                neighbors.append(
                    _wire_neighbor(
                        engine.instance, triple, iteration, engine.evaluator
                    )
                )
        if self._lockstep and self._rng_back is not None:
            engine.rng.bit_generator.state = self._rng_back
        engine.select_and_update(neighbors)
        self._task_order = []
        self._buffers = {}
        obs = self._obs
        if obs.enabled and obs.tracer.enabled:
            obs.tracer.emit(
                "job_progress",
                span=f"job-{self.job_id}",
                job=self.job_id,
                iteration=engine.iteration,
                evaluations=engine.evaluator.count,
                trace=self.job_id,
            )
        self._boundary()

    def _boundary(self) -> None:
        """The sequential loop-top protocol at an iteration boundary:
        snapshot if due, maybe fire an injected crash, then done-check."""
        if self._policy is not None:
            self._policy.tick(
                self._engine.evaluator.count, self._build_state, kind="serve-job"
            )
            if self._policy.snapshots_written > self._snaps_seen:
                self._snaps_seen = self._policy.snapshots_written
                obs = self._obs
                if obs.enabled and obs.tracer.enabled:
                    obs.tracer.emit(
                        "checkpoint",
                        span=f"job-{self.job_id}",
                        kind="serve-job",
                        iteration=self._engine.iteration,
                        trace=self.job_id,
                    )
        if self._engine.done:
            self._finished = True

    def _build_state(self) -> dict:
        return {
            "engine": self._engine.snapshot(),
            "seed_rng": (
                get_generator_state(self._seed_rng)
                if self._seed_rng is not None
                else None
            ),
            # Identity check at resume: a snapshot must never be
            # restored against a different instance (WrongInstanceError).
            "instance_fp": self._instance_fp,
        }

    # ------------------------------------------------------------------
    # Fault-tolerance transitions (retry / preemption)
    # ------------------------------------------------------------------
    def _reset_for_retry(self, now: float) -> None:
        """Back to the wait queue after a failed attempt.

        Drops the attempt's runner state wholesale — the next admission
        rebuilds the engine, resuming from the latest periodic snapshot
        when one exists (otherwise restarting fresh).  The exponential
        backoff gate keeps a crash-looping job from monopolizing
        admission.
        """
        self.attempts += 1
        self.retry_at = now + self.spec.retry_backoff_s * (2.0 ** (self.attempts - 1))
        self.state = JobState.QUEUED
        self.attempt_started_at = None
        self._engine = None
        self._policy = None
        self._seed_rng = None
        self._chunk_sizes = []
        self._task_order = []
        self._buffers = {}
        self._pending_finals = set()
        self._rng_back = None
        self._finished = False

    def _suspend(self) -> None:
        """Preemption: park the job, keeping the engine warm.

        In-flight pool tasks were already cancelled (their batches
        drain silently), so the partial iteration is simply discarded:
        the engine only ever mutates at iteration completion, and the
        resumed dispatch re-ships the identical RNG bit-state, so the
        re-run iteration is bit-identical to the one that was cut —
        preemption is invisible to the trajectory.  A durability
        snapshot is flushed so a crash while suspended loses nothing
        beyond this boundary.
        """
        self._task_order = []
        self._buffers = {}
        self._pending_finals = set()
        self._rng_back = None
        if self._policy is not None:
            self._policy.flush(
                self._engine.evaluator.count, self._build_state, kind="serve-job"
            )
        self.state = JobState.PREEMPTED

    def _resume_preempted(self) -> None:
        """Back into the running set; the deadline clock restarts so
        time spent suspended never counts against the attempt."""
        self.state = JobState.RUNNING
        self.attempt_started_at = time.monotonic()

    def _finalize(self, n_workers: int) -> TSMOResult:
        """Package the finished engine into a result; drop the snapshot."""
        engine = self._engine
        wall = time.monotonic() - self.started_at
        result = engine.result(
            f"serve-{self.spec.driver}",
            wall_time=wall,
            simulated_time=None,
            processors=n_workers + 1,
        )
        result.cache_stats = CacheStats(
            hits=self._worker_hits, misses=self._worker_misses
        )
        result.extra["job_id"] = self.job_id
        result.extra["tenant"] = self.tenant
        if self._policy is not None:
            self._policy.discard()
        self.result = result
        self.state = JobState.DONE
        self.finished_at = time.monotonic()
        self._future.set_result(result)
        return result

    def _fail(self, exc: BaseException) -> None:
        self.state = JobState.FAILED
        self.error = exc
        self.finished_at = time.monotonic()
        if not self._future.done():
            self._future.set_exception(exc)
            # Mark retrieved so an un-awaited handle never warns.
            self._future.exception()

    def _cancelled(self) -> None:
        self.state = JobState.CANCELLED
        exc = JobCancelled(
            f"job {self.job_id!r} cancelled after {self.iterations} iterations "
            f"({self.evaluations} evaluations served)"
        )
        self.error = exc
        self.finished_at = time.monotonic()
        self._pending_finals = set()
        self._task_order = []
        self._buffers = {}
        if not self._future.done():
            self._future.set_exception(exc)
            self._future.exception()
