"""Persistent, fault-tolerant worker pool for the real-process TSMO.

The paper's master–worker variants assume workers that *exist for the
whole run* and a master that survives worker trouble — its asynchronous
decision function (§III.D) is precisely a straggler-tolerance policy.
This module provides that substrate on real OS processes, replacing the
throwaway ``multiprocessing.Pool`` the first backend used:

* **long-lived spawn-context workers** fed over per-worker task queues
  and answering over per-worker result queues, so the instance (with
  its O(N²) travel matrix) ships once per worker life and route-stats
  caches persist across tasks.  Result queues are deliberately *not*
  shared: a ``multiprocessing.Queue`` with several writer processes
  guards its pipe with an interprocess lock, and a worker dying while
  its feeder thread holds that lock would wedge every *other* worker's
  ``put`` forever — a single crash poisoning the whole pool.  With one
  writer per queue, a crash can only corrupt the dead worker's own
  queue, which is abandoned on respawn anyway;
* **streaming result batches** (``batch_size`` neighbors per message),
  so the asynchronous master can run conditions c1–c4 on partial
  neighborhoods exactly as Algorithm 2 prescribes;
* **event-driven waiting** — :meth:`WorkerPool.poll` blocks in
  ``multiprocessing.connection.wait`` on every live worker's result
  pipe and process sentinel plus a self-pipe (:meth:`WorkerPool.wakeup`),
  until a message, a worker death, a wakeup or the next supervision
  instant — never on a fixed sleep cadence;
* **liveness supervision** — worker heartbeats on an interval, a
  per-task deadline and a heartbeat timeout; a dead worker is detected
  the moment its sentinel fires and a silent one at its deadline, never
  waited on forever;
* **bounded retry with exponential backoff** — the task a failed
  worker held is re-dispatched (up to ``max_retries`` times, then
  executed on the master); because every task carries its own seed or
  RNG state, a retry regenerates *the same neighbors*, so a crash never
  forks the search trajectory;
* **exactly-once delivery across retries** — the pool remembers how
  many neighbors of each task already reached the driver and skips that
  prefix of a retried task's output, so mid-task crashes neither drop
  nor duplicate neighbors;
* **replacement workers** — a failed worker slot is respawned up to
  ``respawn_cap`` times; when every slot is dead and the respawn budget
  is spent, the pool *degrades* to master-local execution and the run
  still completes (never a hang);
* **deterministic fault injection** — a :class:`FaultPlan` (or the
  ``REPRO_POOL_FAULTS`` environment variable) kills or delays chosen
  workers on chosen tasks, so every failure path above is testable in
  CI without flaky timing tricks.

Everything the pool observes is aggregated into :meth:`WorkerPool.report`
— per-worker task/batch/crash/respawn counters, retry and straggler
totals, dispatch backlog high-water mark and task latency quantiles —
which the drivers attach to ``TSMOResult.extra["pool"]``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as mp_wait

import numpy as np

from repro.core.batch_eval import sample_batch, vector_eval_enabled
from repro.core.evaluation import Evaluator
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.solution import Solution
from repro.errors import WorkerPoolError
from repro.obs import ENV_OBS, ENV_TRACE_DIR, NULL_OBS, EventTracer, utc_timestamp
from repro.parallel.messages import PoolBatch, PoolHeartbeat, PoolTask, StopMessage
from repro.parallel.shm import SharedInstance, SharedInstanceRef, share_instance
from repro.parallel.wire import WireBatch, WireRoutes, WireTaskDelta, diff_routes
from repro.vrptw.instance import Instance

__all__ = [
    "BatchEvent",
    "FaultPlan",
    "PoolParams",
    "TaskOutcome",
    "WorkerPool",
]

#: exit code a worker uses for an injected crash (diagnosable in logs).
_FAULT_EXIT = 17


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected worker faults.

    Faults are keyed by ``(worker slot, per-slot task ordinal)`` — the
    ordinal counts every task ever dispatched to that slot, surviving
    respawns (a replacement worker resumes the count), so each entry
    fires exactly once per run.

    ``kills`` entries are ``(slot, ordinal, after_batches)``: the
    worker exits hard (``os._exit``) either before executing the task
    (``after_batches is None``) or after having streamed that many
    result batches of it — the latter exercises the exactly-once
    resume-by-offset path.  ``delays`` entries are ``(slot, ordinal,
    seconds)``: the worker sleeps before executing, which trips the
    per-task deadline when ``seconds`` exceeds it (a synthetic
    straggler).

    The environment form ``REPRO_POOL_FAULTS`` is a comma list of
    ``kill:SLOT@ORDINAL``, ``kill:SLOT@ORDINAL+BATCHES`` and
    ``delay:SLOT@ORDINAL:SECONDS`` items, e.g.
    ``"kill:1@3,delay:0@2:0.5"``.
    """

    kills: tuple[tuple[int, int, int | None], ...] = ()
    delays: tuple[tuple[int, int, float], ...] = ()

    @staticmethod
    def from_env(spec: str | None = None) -> "FaultPlan | None":
        """Parse ``REPRO_POOL_FAULTS`` (or an explicit spec string)."""
        if spec is None:
            spec = os.environ.get("REPRO_POOL_FAULTS", "")
        spec = spec.strip()
        if not spec:
            return None
        kills: list[tuple[int, int, int | None]] = []
        delays: list[tuple[int, int, float]] = []
        for item in spec.split(","):
            item = item.strip()
            kind, _, rest = item.partition(":")
            try:
                if kind == "kill":
                    slot_s, _, ordinal_s = rest.partition("@")
                    ordinal_s, _, after_s = ordinal_s.partition("+")
                    kills.append(
                        (int(slot_s), int(ordinal_s), int(after_s) if after_s else None)
                    )
                elif kind == "delay":
                    where, _, seconds_s = rest.partition(":")
                    slot_s, _, ordinal_s = where.partition("@")
                    delays.append((int(slot_s), int(ordinal_s), float(seconds_s)))
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except ValueError as exc:
                raise WorkerPoolError(
                    f"malformed REPRO_POOL_FAULTS item {item!r}: {exc}"
                ) from exc
        return FaultPlan(kills=tuple(kills), delays=tuple(delays))

    def action(
        self, slot: int, ordinal: int
    ) -> tuple[str, float | int | None] | None:
        """The fault to apply for this (slot, ordinal), if any."""
        for s, o, after in self.kills:
            if s == slot and o == ordinal:
                return ("kill", after)
        for s, o, seconds in self.delays:
            if s == slot and o == ordinal:
                return ("delay", seconds)
        return None

    def __bool__(self) -> bool:
        return bool(self.kills or self.delays)


# ----------------------------------------------------------------------
# Pool configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PoolParams:
    """Supervision knobs of the worker pool.

    The defaults are sized for production-style runs; tests shrink the
    intervals so failure paths resolve in milliseconds.
    """

    #: seconds between worker liveness beacons.
    heartbeat_interval: float = 0.25
    #: a busy worker silent for this long is declared hung.
    heartbeat_timeout: float = 30.0
    #: hard per-task wall-clock deadline (``None`` disables; the
    #: heartbeat timeout still catches fully wedged workers).
    task_deadline: float | None = 120.0
    #: re-dispatch attempts per task before the master runs it locally.
    max_retries: int = 2
    #: total replacement workers the pool may spawn over its lifetime.
    respawn_cap: int = 2
    #: base of the exponential re-dispatch backoff (seconds); attempt k
    #: waits ``backoff_base * 2**(k-1)``, capped at ``backoff_cap``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: extra seconds granted on top of ``task_deadline`` while a worker
    #: incarnation has not yet been heard from: a fresh spawn pays
    #: interpreter + numpy import time before it can even start the
    #: task, and under machine load that boot alone can exceed a tight
    #: deadline.  Once the worker is heard, its deadline clock starts
    #: at that moment instead of at dispatch.
    boot_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise WorkerPoolError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise WorkerPoolError("heartbeat_timeout must exceed the interval")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise WorkerPoolError("task_deadline must be positive (or None)")
        if self.max_retries < 0:
            raise WorkerPoolError("max_retries must be >= 0")
        if self.respawn_cap < 0:
            raise WorkerPoolError("respawn_cap must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise WorkerPoolError("need 0 <= backoff_base <= backoff_cap")
        if self.boot_grace < 0:
            raise WorkerPoolError("boot_grace must be non-negative")


# ----------------------------------------------------------------------
# Task execution (shared by worker processes and the master fallback)
# ----------------------------------------------------------------------
def _task_rng(task: PoolTask) -> np.random.Generator:
    if task.rng_state is not None:
        bit_generator = np.random.PCG64()
        bit_generator.state = task.rng_state
        return np.random.Generator(bit_generator)
    return np.random.default_rng(task.seed)


def execute_task(
    instance: Instance,
    evaluator: Evaluator,
    registry: OperatorRegistry,
    task: PoolTask,
    worker: int,
    *,
    codec: bool = False,
    timed: bool = False,
):
    """Yield the :class:`PoolBatch` stream of one task.

    Pure in the sense that matters: the batches are a function of
    ``(instance, task)`` only — the evaluator/registry are reusable
    caches that never change the sampled moves or the objective floats.
    That is the determinism-under-retry invariant: re-running the same
    task after a crash reproduces the same neighbor sequence.

    ``task.routes`` must already be the plain nested tuple here (the
    worker main decodes wire forms first).  With ``codec=True``,
    batches carry :class:`~repro.parallel.wire.WireBatch` edit payloads
    and ``move.apply`` is skipped entirely — the master reconstructs
    child routes from the parent it already holds, and the move's
    ``route_edits`` are exactly what ``apply`` would have used, so the
    decoded triples are identical.  Neither the codec nor ``timed``
    touches the RNG stream or the evaluator, so all modes are
    bit-identical per seed.
    """
    cache = evaluator.stats_cache
    hits0, misses0 = cache.hits, cache.misses
    solution = Solution(instance, task.routes)
    rng = _task_rng(task)
    # One sampler call samples and scores the whole task; the entries
    # then stream out in ``batch_size`` chunks through ``flush``.
    # Moves are materialized eagerly — every entry ships its
    # edits/routes to the master.
    result = sample_batch(
        solution,
        task.count,
        registry,
        rng,
        evaluator,
        vector=vector_eval_enabled(),
        eager_moves=True,
        timed=timed,
    )
    out = []

    def flush(final: bool) -> PoolBatch:
        neighbors = WireBatch.encode(out) if codec else tuple(out)
        return PoolBatch(
            worker=worker,
            task_id=task.task_id,
            attempt=task.attempt,
            neighbors=neighbors,
            final=final,
            rng_state=(
                rng.bit_generator.state
                if final and task.rng_state is not None
                else None
            ),
            cache_delta=(
                (cache.hits - hits0, cache.misses - misses0) if final else None
            ),
            phase=(
                (result.gen_seconds, result.eval_seconds) if final and timed else None
            ),
        )

    # The batch holding the last entry is the final one, so a task
    # whose size is a multiple of ``batch_size`` ends without an extra
    # empty batch; a task with no entries still sends one final batch.
    last = len(result.entries)
    for i, (obj, move, _) in enumerate(result.entries, 1):
        objective = (obj.distance, obj.vehicles, obj.tardiness)
        if codec:
            replacements, added = move.route_edits(solution)
            out.append((replacements, added, objective, move.attribute))
        else:
            child = move.apply(solution)  # routes must ship to the master
            out.append((child.routes, objective, move.attribute))
        if len(out) >= task.batch_size and i < last:
            yield flush(final=False)
            out = []
    yield flush(final=True)


#: mapped per-task instance segments one worker keeps warm (beyond the
#: default instance, which is pinned for the process lifetime).
_WORKER_INSTANCE_LRU = 8


def _pool_worker_main(
    slot: int,
    generation: int,
    instance: Instance | SharedInstanceRef,
    task_q,
    result_q,
    heartbeat_interval: float,
    fault_plan: FaultPlan | None,
    ordinal_base: int,
    timed: bool = False,
) -> None:
    """Entry point of one worker process (spawn context)."""
    shm = None
    if isinstance(instance, SharedInstanceRef):
        # Zero-copy broadcast: attach to the master's segment instead of
        # unpickling the instance (and recomputing nothing — the arrays
        # were validated once, master-side).  The mapping must outlive
        # every use of the instance, so it is held for the process
        # lifetime; the master owns unlink.
        instance, shm = instance.attach()
    evaluator = Evaluator(instance)
    registry = default_registry()
    # Per-task instances (the multi-tenant serve path): segments attach
    # lazily on the first task that names them and stay mapped — with
    # their per-instance evaluator caches — in a small LRU.  Evicting
    # only closes this worker's mapping; the master owns unlink, and a
    # re-referenced evicted segment simply re-attaches.
    attached: dict[str, tuple[Instance, object, Evaluator]] = {}

    def resolve_instance(ref: SharedInstanceRef | None):
        if ref is None:
            return instance, evaluator
        entry = attached.get(ref.segment)
        if entry is None:
            inst, seg = ref.attach()
            entry = (inst, seg, Evaluator(inst))
            if len(attached) >= _WORKER_INSTANCE_LRU:
                oldest = next(iter(attached))
                _, old_seg, _ = attached.pop(oldest)
                old_seg.close()
            attached[ref.segment] = entry
        else:
            # Re-insertion keeps dict order = recency order.
            attached.pop(ref.segment)
            attached[ref.segment] = entry
        return entry[0], entry[2]
    # Spawn children inherit the master's environment, so the same
    # REPRO_TRACE_DIR / REPRO_OBS switch that enabled the master's
    # bundle enables worker-side event collection — no new plumbing
    # through the task messages.  Workers never open their own sink;
    # drained events ride back on final PoolBatch messages and the
    # master ingests them under this per-worker span.
    tracer = None
    if os.environ.get(ENV_TRACE_DIR) or os.environ.get(ENV_OBS, "").strip() not in (
        "",
        "0",
    ):
        tracer = EventTracer(span=f"worker-{slot}")
    stop_beating = threading.Event()
    master_pid = os.getppid()

    def beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            # Workers are direct children of the master: a changed
            # parent pid means the master was killed outright (SIGKILL
            # never runs its cleanup), and an orphan blocked forever on
            # task_q.get() would leak.  Die instead — there is no one
            # left to serve.
            if os.getppid() != master_pid:  # pragma: no cover - needs a dead master
                os._exit(0)
            try:
                result_q.put(PoolHeartbeat(slot, generation))
            except Exception:  # pragma: no cover - master gone
                return

    threading.Thread(target=beat, daemon=True).start()

    ordinal = ordinal_base
    # Routes of the last task this process completed, the base of
    # steady-state WireTaskDelta dispatches.  The master only sends a
    # delta when *it* saw this worker's final batch for the base task,
    # so a populated cache is guaranteed whenever one arrives.
    last_done: tuple[int, tuple] | None = None
    while True:
        try:
            msg = task_q.get()
        except (EOFError, OSError):  # pragma: no cover - master gone
            os._exit(0)
        if isinstance(msg, StopMessage):
            break
        task: PoolTask = msg
        if isinstance(task.routes, WireTaskDelta):
            delta = task.routes
            if last_done is None or last_done[0] != delta.base_task_id:
                # Master bookkeeping bug — die loudly; the pool retries
                # the task (with a full payload) on the replacement.
                raise WorkerPoolError(
                    f"delta task {task.task_id} against unknown base "
                    f"{delta.base_task_id}"
                )
            task = replace(task, routes=delta.apply(last_done[1]))
        else:  # WireRoutes: the master always ships a wire form
            task = replace(task, routes=task.routes.decode())
        action = fault_plan.action(slot, ordinal) if fault_plan else None
        ordinal += 1
        kill_after: int | None = None
        if action is not None:
            kind, arg = action
            if kind == "kill":
                if arg is None:
                    os._exit(_FAULT_EXIT)
                kill_after = int(arg)
            elif kind == "delay":
                time.sleep(float(arg))
        task_instance, task_evaluator = resolve_instance(task.instance)
        batches_sent = 0
        for batch in execute_task(
            task_instance,
            task_evaluator,
            registry,
            task,
            slot,
            codec=True,
            timed=timed,
        ):
            if batch.final and tracer is not None:
                # Stamp the submitter's span-propagation envelope so
                # this event joins its job's trace on the master side.
                trace_fields = {}
                if task.trace is not None:
                    trace_fields = {
                        "trace": task.trace[0],
                        "parent": task.trace[1],
                    }
                tracer.emit(
                    "worker_task",
                    worker=slot,
                    task_id=task.task_id,
                    neighbors=task.count,
                    **trace_fields,
                )
                batch = replace(batch, events=tuple(tracer.drain()))
            result_q.put(batch)
            batches_sent += 1
            if kill_after is not None and batches_sent >= kill_after:
                os._exit(_FAULT_EXIT)
        last_done = (task.task_id, task.routes)
    stop_beating.set()
    for _, seg, _ in attached.values():
        seg.close()
    if shm is not None:
        shm.close()


# ----------------------------------------------------------------------
# Master-side bookkeeping
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BatchEvent:
    """One delivered batch: what the drivers consume from :meth:`poll`.

    ``neighbors`` holds only *fresh* triples — the prefix a retried
    task already delivered has been skipped by the pool.  ``final``
    marks task completion (the c1 signal of the asynchronous decision
    function); ``rng_state``/``cache_delta`` ride on final events only.
    """

    task_id: int
    iteration: int
    neighbors: tuple
    final: bool
    worker: int
    rng_state: dict | None = None
    cache_delta: tuple[int, int] | None = None
    #: opaque caller label riding from :meth:`WorkerPool.submit` — the
    #: solve service tags every task with its job id so one event
    #: stream multiplexes many independent jobs.
    tag: object | None = None


@dataclass(slots=True)
class TaskOutcome:
    """Everything a completed task produced, in generation order."""

    neighbors: tuple
    rng_state: dict | None
    cache_delta: tuple[int, int]


def _close_queue(q) -> None:
    """Close one of a slot's queues and join its feeder thread.

    The master-side feeder thread holds references to the queue's two
    named semaphores.  Abandoned (``cancel_join_thread``), it could drop
    the last reference itself and run their finalizer — unlink, then
    unregister with the resource tracker — while the interpreter exits,
    leaving a name unlinked but still registered (the tracker then
    warns about a leaked semaphore).  Joining keeps that finalizer on
    the caller's thread.  The join is short: the slot's worker is dead
    or stopped by now, and each queue carries at most a task and a
    stop message, far below the pipe's capacity.
    """
    if q is None:
        return
    q.close()
    q.join_thread()


class _Slot:
    """One worker position: a process, its feed queue, its counters."""

    __slots__ = (
        "index",
        "process",
        "task_q",
        "result_q",
        "alive",
        "busy",
        "dispatched_at",
        "generation",
        "heard",
        "heard_at",
        "last_seen",
        "dispatched_count",
        "tasks_done",
        "batches",
        "crashes",
        "stragglers",
        "respawns",
        "done_task_id",
        "done_routes",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.task_q = None
        self.result_q = None
        self.alive = False
        self.busy: PoolTask | None = None
        self.dispatched_at = 0.0
        self.generation = 0
        self.heard = False
        self.heard_at = 0.0
        self.last_seen = 0.0
        self.dispatched_count = 0
        self.tasks_done = 0
        self.batches = 0
        self.crashes = 0
        self.stragglers = 0
        self.respawns = 0
        #: id + plain routes of the last task *this incarnation*
        #: completed — the base the master may delta-encode against.
        self.done_task_id: int | None = None
        self.done_routes: tuple | None = None


class _TaskState:
    """Master-side lifecycle of one submitted task."""

    __slots__ = (
        "task",
        "attempt",
        "delivered",
        "attempt_seen",
        "submitted_at",
        "ready_at",
        "tag",
        "cancelled",
    )

    def __init__(self, task: PoolTask, now: float, tag: object | None = None) -> None:
        self.task = task
        self.attempt = 0
        #: neighbors already handed to the driver (across attempts).
        self.delivered = 0
        #: neighbors seen so far within the current attempt.
        self.attempt_seen = 0
        self.submitted_at = now
        self.ready_at = now
        #: opaque caller label (job id in the solve service).
        self.tag = tag
        #: a cancelled in-flight task drains silently: its remaining
        #: batches are discarded instead of delivered, and a worker
        #: failure no longer retries it.
        self.cancelled = False


class WorkerPool:
    """A supervised, persistent pool of neighborhood-evaluation workers.

    Use as a context manager::

        with WorkerPool(instance, n_workers=4) as pool:
            tid = pool.submit(routes, count=50, seed=123, iteration=1)
            outcome = pool.gather([tid])[tid]

    or drive it event-by-event with :meth:`poll` (the asynchronous
    master).  All blocking calls are bounded — worker failure is
    handled by retry/respawn/degradation, never by waiting forever.

    The pool is not thread-safe: one thread at a time may call its
    methods.  The one exception is :meth:`wakeup`, which any thread may
    call at any time to make a blocked :meth:`poll` return.
    """

    def __init__(
        self,
        instance: Instance,
        n_workers: int,
        *,
        params: PoolParams | None = None,
        fault_plan: FaultPlan | None = None,
        batch_size: int | None = None,
        obs=NULL_OBS,
    ) -> None:
        if n_workers < 1:
            raise WorkerPoolError("need at least one worker process")
        self.instance = instance
        self.obs = obs
        self.n_workers = n_workers
        self.params = params or PoolParams()
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        #: default streaming granularity for :meth:`submit`.
        self.default_batch_size = batch_size
        self.degraded = False

        self._ctx = mp.get_context("spawn")
        self._slots = [_Slot(i) for i in range(n_workers)]
        self._next_task_id = 0
        self._pending: deque[int] = deque()  # task_ids awaiting dispatch
        self._tasks: dict[int, _TaskState] = {}
        self._respawns_used = 0
        self._closed = False

        # Global counters for the report.
        self._retries = 0
        self._crashes = 0
        self._stragglers = 0
        self._master_fallback_tasks = 0
        self._stale_batches = 0
        self._heartbeats = 0
        self._tasks_completed = 0
        self._cancelled_tasks = 0
        self._cancelled_completions = 0
        self._max_backlog = 0
        self._latencies: list[float] = []
        self._delta_tasks = 0
        self._full_tasks = 0
        self._wire_batches = 0
        self._wire_batch_bytes = 0
        self._instance_ref_tasks = 0

        # Master-local execution state (degradation / retry exhaustion):
        # one (instance, evaluator) context per instance ever run
        # locally, keyed by segment name (None: the pool's default).
        self._local_contexts: dict[str | None, tuple[Instance, Evaluator]] = {}
        self._local_shms: list = []
        self._local_registry: OperatorRegistry | None = None

        #: workers time their generate/evaluate phases only when the obs
        #: profiler will ingest them.
        self._timed = bool(getattr(obs, "enabled", False))

        # Shared-memory instance broadcast: create the segment before
        # the first spawn so every worker (including respawns) attaches
        # instead of unpickling ~MBs of arrays.  If segment creation
        # fails (e.g. /dev/shm exhausted), fall back to pickling.
        try:
            self._shared: SharedInstance | None = share_instance(instance)
        except OSError:
            self._shared = None

        # The self-pipe behind wakeup(), made before the first spawn.
        # os.pipe() descriptors are non-inheritable and never ride a
        # spawn argument, so no worker holds either end.  Both ends are
        # non-blocking: a full pipe already means a wakeup is pending.
        self._wake_lock = threading.Lock()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)

        try:
            for slot in self._slots:
                self._spawn(slot)
        except Exception:  # pragma: no cover - spawn failure
            self._close_wakeup()
            self._destroy_shared()
            raise

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self, slot: _Slot) -> None:
        slot.task_q = self._ctx.Queue()
        slot.result_q = self._ctx.Queue()
        slot.generation += 1
        payload = self._shared.ref if self._shared is not None else self.instance
        slot.process = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                slot.index,
                slot.generation,
                payload,
                slot.task_q,
                slot.result_q,
                self.params.heartbeat_interval,
                self.fault_plan,
                slot.dispatched_count,
                self._timed,
            ),
            daemon=True,
        )
        slot.process.start()
        slot.alive = True
        slot.busy = None
        slot.heard = False
        slot.heard_at = 0.0
        slot.last_seen = time.monotonic()
        # A fresh incarnation holds no routes cache — full payload first.
        slot.done_task_id = None
        slot.done_routes = None

    def close(self) -> None:
        """Stop every worker; bounded waits only, stragglers get killed.

        The shared-memory segment is destroyed *unconditionally*, on
        every exit path — including when workers had to be terminated
        or killed — so no run leaks a segment into ``/dev/shm``.

        After this returns the pool is inert but *inspectable*:
        :meth:`report` keeps returning the final counters (the solve
        service reads its post-drain accounting from exactly there),
        while :meth:`submit`, :meth:`poll` and :meth:`gather` raise a
        clear :class:`~repro.errors.WorkerPoolError` instead of
        queueing work onto dead processes — previously a submit+gather
        after shutdown would feed closed queues and spin forever.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for slot in self._slots:
                if slot.alive and slot.process is not None:
                    try:
                        slot.task_q.put(StopMessage(reason="pool closed"))
                    except Exception:  # pragma: no cover - queue already broken
                        pass
            for slot in self._slots:
                proc = slot.process
                if proc is None:
                    continue
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover - stubborn process
                        proc.kill()
                        proc.join(timeout=1.0)
                _close_queue(slot.task_q)
                _close_queue(slot.result_q)
                # The slot must read as dead from here on: a later poll
                # (already an error, but belt and braces) must never
                # dispatch onto the closed queues or "respawn" a worker
                # of a pool that no longer exists.
                slot.alive = False
                slot.busy = None
                slot.task_q = None
                slot.result_q = None
        finally:
            # Master-side mappings of per-task instance segments: close
            # before the owners unlink (harmless either way — POSIX
            # keeps an unlinked segment alive while mapped, but a clean
            # close keeps the resource tracker's books exact).
            for seg in self._local_shms:
                try:
                    seg.close()
                except Exception:  # pragma: no cover - already closed
                    pass
            self._local_shms = []
            self._local_contexts = {}
            self._close_wakeup()
            self._destroy_shared()
        self._maybe_dump_report()

    #: the lifecycle verb the solve service uses; identical to
    #: :meth:`close` (kept as the primary name for context managers).
    shutdown = close

    def _destroy_shared(self) -> None:
        if self._shared is not None:
            self._shared.destroy()

    def wakeup(self) -> None:
        """Make a :meth:`poll` blocked in another thread return now.

        The one method that is safe to call from any thread, at any
        time: a wakeup with no poll blocked makes the next poll's wait
        return at once, and a wakeup after :meth:`close` does nothing.
        """
        with self._wake_lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full: a wakeup is already pending

    def _close_wakeup(self) -> None:
        with self._wake_lock:
            if self._wake_w is None:
                return
            os.close(self._wake_w)
            os.close(self._wake_r)
            self._wake_w = self._wake_r = None

    def _drain_wakeup(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _maybe_dump_report(self) -> None:
        """Persist the counter report when CI asks for it.

        With ``REPRO_POOL_REPORT_DIR`` set, every pool writes its final
        report there as JSON — the artifact CI uploads when a pool test
        fails, so hangs and crash loops are diagnosable post-mortem.
        """
        directory = os.environ.get("REPRO_POOL_REPORT_DIR")
        if not directory:
            return
        try:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory, f"pool-{os.getpid()}-{id(self):x}.json"
            )
            payload = dict(self.report(), written_at=utc_timestamp())
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, default=str)
        except OSError:  # pragma: no cover - report is best-effort
            pass

    # -- submission ----------------------------------------------------
    def submit(
        self,
        routes: tuple[tuple[int, ...], ...],
        count: int,
        *,
        seed: int | None = None,
        rng_state: dict | None = None,
        iteration: int = 0,
        batch_size: int | None = None,
        tag: object | None = None,
        trace: tuple[str, str] | None = None,
        instance_ref=None,
    ) -> int:
        """Queue one neighborhood chunk; returns its task id.

        ``tag`` is an opaque caller label echoed on every
        :class:`BatchEvent` of the task — the multiplexing key of the
        solve service (one tag per job) and the handle
        :meth:`cancel_tag` operates on.

        ``trace`` is an optional ``(trace_id, parent_span)`` pair
        stamped onto the worker's ``worker_task`` trace events for this
        task, so a submitter's logical operation (a serve job) spans
        the process boundary as one causally-ordered trace.  Pure
        observability — execution ignores it.

        ``instance_ref`` runs the task against a *different* instance
        than the pool's default: a
        :class:`~repro.parallel.shm.SharedInstanceRef` to a segment the
        caller keeps alive for the task's whole life (the serve layer's
        :class:`~repro.parallel.shm.SharedInstanceStore` holds it until
        the owning job is terminal).  ``routes`` must index into *that*
        instance's sites.
        """
        if self._closed:
            raise WorkerPoolError(
                "cannot submit to a shut-down pool: its workers are "
                "stopped and their queues closed"
            )
        if count < 1:
            raise WorkerPoolError("task count must be >= 1")
        if (seed is None) == (rng_state is None):
            raise WorkerPoolError("tasks need exactly one of seed= or rng_state=")
        if batch_size is None:
            batch_size = self.default_batch_size or count
        task_id = self._next_task_id
        self._next_task_id += 1
        if instance_ref is not None:
            self._instance_ref_tasks += 1
        task = PoolTask(
            task_id=task_id,
            attempt=0,
            routes=routes,
            count=count,
            batch_size=batch_size,
            iteration=iteration,
            seed=seed,
            rng_state=rng_state,
            trace=trace,
            instance=instance_ref,
        )
        self._tasks[task_id] = _TaskState(task, time.monotonic(), tag=tag)
        self._pending.append(task_id)
        self._max_backlog = max(self._max_backlog, len(self._pending))
        return task_id

    def cancel_tag(self, tag: object) -> list[int]:
        """Cancel every live task carrying ``tag``; returns their ids.

        Graceful per-job drain, not a kill: tasks still waiting for
        dispatch are removed outright, while tasks already running on a
        worker are left to finish — killing the process would take the
        *other* jobs' cached state with it — but every one of their
        remaining batches is discarded instead of delivered, and a
        worker failure no longer retries them.  After this returns, no
        :class:`BatchEvent` with this tag will ever be emitted again.

        Counting is conserved across the completion race: every task
        resolves into exactly one of ``tasks_completed`` or
        ``cancelled_tasks``.  A task whose final batch lands while its
        cancellation is in flight (or already landed, undrained, before
        this call) counts once in ``cancelled_tasks`` — never in
        ``tasks_completed``, never twice — and its ran-anyway finish is
        tallied separately in ``cancelled_completions``.  Calling this
        again with the same tag is a no-op for already-cancelled tasks.
        """
        if self._closed:
            raise WorkerPoolError("cannot cancel tasks on a shut-down pool")
        dropped = []
        for tid in self._pending:
            state = self._tasks.get(tid)
            if state is not None and state.tag == tag and not state.cancelled:
                dropped.append(tid)
        for tid in dropped:
            del self._tasks[tid]
        if dropped:
            self._pending = deque(
                tid for tid in self._pending if tid in self._tasks
            )
        draining = [
            tid
            for tid, state in self._tasks.items()
            if state.tag == tag and not state.cancelled
        ]
        for tid in draining:
            self._tasks[tid].cancelled = True
        self._cancelled_tasks += len(dropped) + len(draining)
        return dropped + draining

    def backlog(self) -> int:
        """Tasks accepted but not yet completed (pending + in flight).

        The solve service throttles its dispatch on this number so one
        greedy job cannot bury the pool's internal queue.
        """
        return len(self._tasks)

    # -- event loop ----------------------------------------------------
    def poll(self, timeout: float | None = None) -> list[BatchEvent]:
        """Advance the pool and return newly delivered batches.

        Dispatches pending tasks, drains the result queues, and polices
        liveness — crashed or hung workers are respawned and their
        tasks retried.  When nothing is at hand it blocks until a
        worker message, a worker death, a :meth:`wakeup`, the next
        supervision instant (a retry's backoff end, a task deadline, a
        heartbeat timeout) or ``timeout`` seconds, whichever comes
        first; ``timeout=None`` waits without a caller bound.  Returns
        possibly-empty; never blocks forever.
        """
        if self._closed:
            raise WorkerPoolError(
                "cannot poll a shut-down pool: no workers are left to "
                "produce results (submit/gather would hang forever)"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        events: list[BatchEvent] = []
        self._dispatch(events)
        self._drain(deadline, events)
        self._police(events)
        self._dispatch(events)
        return events

    def gather(self, task_ids) -> dict[int, TaskOutcome]:
        """Block (with supervision) until every listed task completes."""
        want = set(task_ids)
        buffers: dict[int, list] = {tid: [] for tid in want}
        done: dict[int, TaskOutcome] = {}
        while want:
            for event in self.poll():
                if event.task_id not in want:
                    continue
                buffers[event.task_id].extend(event.neighbors)
                if event.final:
                    done[event.task_id] = TaskOutcome(
                        neighbors=tuple(buffers.pop(event.task_id)),
                        rng_state=event.rng_state,
                        cache_delta=event.cache_delta or (0, 0),
                    )
                    want.discard(event.task_id)
        return done

    # -- internals -----------------------------------------------------
    def _idle_slots(self) -> list[_Slot]:
        return [s for s in self._slots if s.alive and s.busy is None]

    def _alive_count(self) -> int:
        return sum(1 for s in self._slots if s.alive)

    def _dispatch(self, events: list[BatchEvent]) -> None:
        now = time.monotonic()
        if self.degraded:
            while self._pending:
                tid = self._pending.popleft()
                self._run_locally(tid, events)
            return
        idle = self._idle_slots()
        deferred: list[int] = []
        while self._pending and idle:
            tid = self._pending.popleft()
            state = self._tasks[tid]
            if state.ready_at > now:  # still in its retry backoff window
                deferred.append(tid)
                continue
            slot = idle.pop(0)
            task = replace(
                state.task,
                attempt=state.attempt,
                routes=self._encode_routes(state.task.routes, slot),
            )
            slot.busy = task
            slot.dispatched_at = now
            slot.dispatched_count += 1
            try:
                slot.task_q.put(task)
            except Exception:  # pragma: no cover - feed queue broken
                self._fail_slot(slot, "crash", events)
        for tid in reversed(deferred):
            self._pending.appendleft(tid)

    def _encode_routes(self, routes: tuple, slot: _Slot):
        """Pick the wire form of one task's routes for one target slot.

        ``_TaskState`` always holds the plain tuple; encoding happens
        here, per dispatch, because the best form depends on the
        receiver: a worker whose last completed task's routes the
        master knows gets a :class:`WireTaskDelta` (tens of bytes), any
        other gets the full :class:`WireRoutes`.  Retries re-enter this
        path and re-encode for whichever slot they land on.
        """
        if slot.done_task_id is not None and slot.done_routes is not None:
            delta = diff_routes(slot.done_routes, routes)
            if delta is not None:
                self._delta_tasks += 1
                return replace(delta, base_task_id=slot.done_task_id)
        self._full_tasks += 1
        return WireRoutes.encode(routes)

    def _handle_message(self, msg, events: list[BatchEvent]) -> None:
        if isinstance(msg, PoolHeartbeat):
            self._heartbeats += 1
            if 0 <= msg.worker < len(self._slots):
                slot = self._slots[msg.worker]
                # A beacon a dead predecessor left in the queue must
                # not vouch for its respawned replacement.
                if msg.generation == slot.generation:
                    self._mark_heard(slot)
            return
        self._accept_batch(msg, events)

    @staticmethod
    def _mark_heard(slot: _Slot) -> None:
        now = time.monotonic()
        if not slot.heard:
            slot.heard = True
            # First sign of life of this incarnation: its task-deadline
            # clock starts here, not at dispatch — boot time (fresh
            # interpreter + imports, arbitrarily long under load) must
            # not count against the task.
            slot.heard_at = now
        slot.last_seen = now

    def _drain_slot(self, slot: _Slot, events: list[BatchEvent]) -> int:
        """Empty one worker's result queue without blocking."""
        if slot.result_q is None:
            return 0
        drained = 0
        while True:
            try:
                msg = slot.result_q.get_nowait()
            except (queue.Empty, OSError):
                break
            drained += 1
            self._handle_message(msg, events)
        return drained

    def _drain(self, deadline: float | None, events: list[BatchEvent]) -> None:
        """Drain every worker's result queue, blocking until one is ready.

        Returns at once when the sweep found a message or ``events``
        already holds batches (the master-local runs of :meth:`_dispatch`
        produce them itself).  Otherwise it waits on the live slots'
        result pipes and process sentinels plus the wakeup pipe until
        the earlier of ``deadline`` and the next supervision instant.
        The wait set is rebuilt on every call: a respawn replaces a
        slot's queues and process.
        """
        if self._sweep(events) or events:
            return
        now = time.monotonic()
        until = self._next_supervision(now)
        if deadline is not None and (until is None or deadline < until):
            until = deadline
        # No supervision instant and no caller bound: a live worker
        # beats every heartbeat_interval, so this bound only caps a pool
        # with nothing to wait for.
        wait_s = self.params.heartbeat_timeout if until is None else until - now
        if wait_s <= 0:
            return
        handles = [self._wake_r]
        for slot in self._slots:
            if slot.alive:
                handles.append(slot.result_q._reader)
                handles.append(slot.process.sentinel)
        ready = mp_wait(handles, wait_s)
        if self._wake_r in ready:
            self._drain_wakeup()
        if ready:
            # Whatever fired, one sweep picks up the messages; a fired
            # sentinel is left to _police, which runs next.
            self._sweep(events)

    def _sweep(self, events: list[BatchEvent]) -> int:
        return sum(self._drain_slot(slot, events) for slot in self._slots)

    def _next_supervision(self, now: float) -> float | None:
        """The earliest future instant at which :meth:`_police` or
        :meth:`_dispatch` has work that no message will announce."""
        instants = []
        if any(s.alive and s.busy is None for s in self._slots):
            # A retry in its backoff window becomes dispatchable.
            instants.extend(
                ready_at
                for ready_at in (self._tasks[tid].ready_at for tid in self._pending)
                if ready_at > now
            )
        for slot in self._slots:
            if slot.alive and slot.busy is not None:
                instants.extend(self._hung_after(slot))
        return min(instants, default=None)

    def _accept_batch(self, msg: PoolBatch, events: list[BatchEvent]) -> None:
        slot = self._slots[msg.worker] if 0 <= msg.worker < len(self._slots) else None
        state = self._tasks.get(msg.task_id)
        if state is None or msg.attempt != state.attempt:
            # Stale output of a superseded attempt — it must not count
            # as liveness either: only current-attempt batches (below)
            # can come from the slot's current incarnation.
            self._stale_batches += 1
            return
        if slot is not None:
            self._mark_heard(slot)
            slot.batches += 1
        # A cancelled task drains silently: the worker is left to finish
        # (its process carries other jobs' warm caches), but nothing it
        # produces is delivered — the final batch only runs the
        # completion bookkeeping that frees the slot.
        if state.cancelled:
            if msg.final:
                self._complete_task(msg, slot)
            return
        # Worker trace events ride on current-attempt batches only (a
        # retried attempt re-emits them), so ingesting here — after the
        # stale check — keeps the master's trace free of duplicates.
        if msg.events and self.obs.tracer.enabled:
            self.obs.tracer.ingest(msg.events)
        # Codec payloads decode here — after the stale check, before the
        # exactly-once offset logic, so everything downstream (prefix
        # skip, drivers) sees the identical plain triples either way.
        # The parent routes are the ones the master submitted; the
        # worker evaluated edits against the same tuple by construction.
        neighbors = msg.neighbors
        if isinstance(neighbors, WireBatch):
            self._wire_batches += 1
            self._wire_batch_bytes += len(neighbors.blob)
            neighbors = neighbors.decode(state.task.routes)
        # Exactly-once across retries: skip the already-delivered prefix
        # (retries regenerate the identical neighbor sequence, so an
        # offset is a correct resume point).
        n = len(neighbors)
        skip = min(max(state.delivered - state.attempt_seen, 0), n)
        fresh = neighbors[skip:]
        state.attempt_seen += n
        state.delivered = max(state.delivered, state.attempt_seen)
        if msg.final:
            self._complete_task(msg, slot)
        if fresh or msg.final:
            events.append(
                BatchEvent(
                    task_id=msg.task_id,
                    iteration=state.task.iteration,
                    neighbors=fresh,
                    final=msg.final,
                    worker=msg.worker,
                    rng_state=msg.rng_state,
                    cache_delta=msg.cache_delta,
                    tag=state.tag,
                )
            )

    def _complete_task(self, msg: PoolBatch, slot: _Slot | None) -> None:
        state = self._tasks.pop(msg.task_id)
        if state.cancelled:
            # The completion raced the cancel and the task ran to the
            # end anyway: it stays counted (once) in cancelled_tasks;
            # this separate tally just makes the race window visible.
            self._cancelled_completions += 1
        if not state.cancelled:
            self._tasks_completed += 1
            self._latencies.append(time.monotonic() - state.submitted_at)
            # Worker-side phase timings fold into the master's profile
            # under the same phase names the sequential driver uses, so
            # one table shows where worker time went regardless of
            # driver.
            if msg.phase is not None and getattr(self.obs, "enabled", False):
                self.obs.profiler.add("generate", msg.phase[0])
                self.obs.profiler.add("evaluate", msg.phase[1])
        if slot is not None:
            slot.tasks_done += 1
            # This incarnation now caches the task's routes — the base
            # for a future WireTaskDelta dispatch to the same slot.
            slot.done_task_id = msg.task_id
            slot.done_routes = state.task.routes
            if slot.busy is not None and slot.busy.task_id == msg.task_id:
                slot.busy = None

    def _hung_after(self, slot: _Slot) -> list[float]:
        """The instants after which a busy slot counts as hung."""
        p = self.params
        instants = []
        # The deadline clock must not count worker boot time: a fresh
        # incarnation spends interpreter + import seconds before
        # touching the task, arbitrarily stretched by machine load.
        # Once heard, the clock runs from the later of dispatch and
        # first-heard; an *unheard* worker gets ``boot_grace`` on top of
        # the deadline, so a wedged boot is still caught — just not
        # mistaken for a straggling task.
        if p.task_deadline is not None:
            if slot.heard:
                started = max(slot.dispatched_at, slot.heard_at)
                instants.append(started + p.task_deadline)
            else:
                instants.append(slot.dispatched_at + p.task_deadline + p.boot_grace)
        # Silence only counts once this incarnation has been heard from:
        # a freshly (re)spawned worker legitimately spends boot time
        # before its first heartbeat, and a worker wedged *during* boot
        # is still caught by the task deadline or its sentinel.
        if slot.heard:
            instants.append(slot.last_seen + p.heartbeat_timeout)
        return instants

    def _police(self, events: list[BatchEvent]) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not slot.alive:
                continue
            dead = not slot.process.is_alive()
            hung = (
                not dead
                and slot.busy is not None
                and any(now > t for t in self._hung_after(slot))
            )
            if dead or hung:
                self._fail_slot(slot, "crash" if dead else "straggler", events)

    def _fail_slot(self, slot: _Slot, reason: str, events: list[BatchEvent]) -> None:
        proc = slot.process
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - stubborn process
                proc.kill()
                proc.join(timeout=1.0)
        # Salvage whatever the worker managed to send before dying —
        # anything still unread after this is regenerated by the retry.
        self._drain_slot(slot, events)
        # Abandon both queues: the task queue may hold an undelivered
        # task copy that must not reach the replacement worker, and the
        # result queue's write end may be corrupted by the death.
        _close_queue(slot.task_q)
        _close_queue(slot.result_q)
        slot.task_q = None
        slot.result_q = None
        slot.alive = False
        if reason == "crash":
            slot.crashes += 1
            self._crashes += 1
        else:
            slot.stragglers += 1
            self._stragglers += 1

        held = slot.busy
        slot.busy = None
        if held is not None:
            self._retry_task(held.task_id, events)

        if self._respawns_used < self.params.respawn_cap:
            self._respawns_used += 1
            slot.respawns += 1
            self._spawn(slot)
        elif self._alive_count() == 0 and not self.degraded:
            self.degraded = True
            # The pool has collapsed: every queued task now runs on the
            # master so the search still completes.
            while self._pending:
                self._run_locally(self._pending.popleft(), events)

    def _retry_task(self, task_id: int, events: list[BatchEvent]) -> None:
        state = self._tasks.get(task_id)
        if state is None:  # completed just before the failure was seen
            return
        if state.cancelled:
            # The worker holding this cancelled task died before its
            # drain finished; nobody wants the output, so drop it.
            del self._tasks[task_id]
            return
        state.attempt += 1
        state.attempt_seen = 0
        if state.attempt > self.params.max_retries:
            self._master_fallback_tasks += 1
            self._run_locally(task_id, events)
            return
        self._retries += 1
        backoff = min(
            self.params.backoff_base * (2.0 ** (state.attempt - 1)),
            self.params.backoff_cap,
        )
        state.ready_at = time.monotonic() + backoff
        self._pending.append(task_id)
        self._max_backlog = max(self._max_backlog, len(self._pending))

    def _local_context(self, ref) -> tuple[Instance, Evaluator]:
        """The master-side (instance, evaluator) a task runs on locally.

        Tasks carrying a :class:`SharedInstanceRef` attach the segment
        in the master process too (the creator still owns unlink); the
        mapping is held until :meth:`close` so evaluator caches stay
        warm across fallbacks, exactly like a worker's.
        """
        key = None if ref is None else ref.segment
        context = self._local_contexts.get(key)
        if context is None:
            if ref is None:
                local_instance = self.instance
            else:
                local_instance, seg = ref.attach()
                self._local_shms.append(seg)
            context = (local_instance, Evaluator(local_instance))
            self._local_contexts[key] = context
        return context

    def _run_locally(self, task_id: int, events: list[BatchEvent]) -> None:
        """Execute one task on the master (degradation / retry-exhaustion)."""
        state = self._tasks.get(task_id)
        if state is None:
            return
        if self._local_registry is None:
            self._local_registry = default_registry()
        local_instance, local_evaluator = self._local_context(state.task.instance)
        task = replace(state.task, attempt=state.attempt)
        for batch in execute_task(
            local_instance, local_evaluator, self._local_registry, task, -1
        ):
            self._accept_batch(batch, events)

    # -- observability -------------------------------------------------
    def report(self) -> dict:
        """The structured counter report (``TSMOResult.extra["pool"]``)."""
        latencies = sorted(self._latencies)

        def quantile(q: float) -> float | None:
            if not latencies:
                return None
            return latencies[min(int(q * len(latencies)), len(latencies) - 1)]

        plan = self.fault_plan
        return {
            "n_workers": self.n_workers,
            "degraded": self.degraded,
            "transport": {
                "shared_instance": self._shared is not None,
                "delta_tasks": self._delta_tasks,
                "full_tasks": self._full_tasks,
                "wire_batches": self._wire_batches,
                "wire_batch_bytes": self._wire_batch_bytes,
                "instance_ref_tasks": self._instance_ref_tasks,
            },
            "crashes": self._crashes,
            "stragglers": self._stragglers,
            "respawns": self._respawns_used,
            "retries": self._retries,
            "master_fallback_tasks": self._master_fallback_tasks,
            "stale_batches": self._stale_batches,
            "heartbeats": self._heartbeats,
            "tasks_completed": self._tasks_completed,
            "cancelled_tasks": self._cancelled_tasks,
            "cancelled_completions": self._cancelled_completions,
            "max_backlog": self._max_backlog,
            "latency": {
                "p50": quantile(0.50),
                "p90": quantile(0.90),
                "max": latencies[-1] if latencies else None,
            },
            "per_worker": [
                {
                    "slot": s.index,
                    "tasks": s.tasks_done,
                    "batches": s.batches,
                    "crashes": s.crashes,
                    "stragglers": s.stragglers,
                    "respawns": s.respawns,
                }
                for s in self._slots
            ],
            "faults_planned": {
                "kills": len(plan.kills) if plan else 0,
                "delays": len(plan.delays) if plan else 0,
            },
        }
