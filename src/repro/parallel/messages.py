"""Typed message payloads of the master/worker and multisearch protocols.

Two families live here:

* the *simulated-cluster* messages (:class:`TaskMessage`,
  :class:`ResultMessage`, :class:`SolutionMessage`) — these carry live
  Python objects (solutions, neighbors) because simulated processes
  share one address space;
* the *real-process pool* wire messages (:class:`PoolTask`,
  :class:`PoolBatch`, :class:`PoolHeartbeat`) — these must pickle
  across an OS process boundary, so they carry only plain data: route
  tuples, objective triples, tabu attributes and RNG seeds/states.

:class:`StopMessage` is shared by both worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.objectives import ObjectiveVector
from repro.core.solution import Solution
from repro.parallel.shm import SharedInstanceRef
from repro.parallel.wire import WireBatch, WireRoutes, WireTaskDelta
from repro.tabu.neighborhood import Neighbor

__all__ = [
    "TaskMessage",
    "ResultMessage",
    "SolutionMessage",
    "StopMessage",
    "PoolTask",
    "PoolBatch",
    "PoolHeartbeat",
]

#: (routes, (distance, vehicles, tardiness), tabu attribute) — the
#: picklable representation of one evaluated neighbor on the wire.
NeighborTriple = tuple[
    tuple[tuple[int, ...], ...], tuple[float, int, float], Hashable
]


@dataclass(frozen=True, slots=True)
class TaskMessage:
    """Master → worker: generate and evaluate part of a neighborhood."""

    solution: Solution
    count: int
    iteration: int


@dataclass(frozen=True, slots=True)
class ResultMessage:
    """Worker → master: a batch of evaluated neighbors.

    ``final`` marks the last batch of the worker's current task — on
    receiving it the master knows the worker is idle again (condition
    ``c1`` of the asynchronous decision function).
    """

    worker: int
    neighbors: tuple[Neighbor, ...]
    iteration: int
    final: bool


@dataclass(frozen=True, slots=True)
class SolutionMessage:
    """Searcher → searcher (collaborative): an archive-improving solution."""

    sender: int
    solution: Solution
    objectives: ObjectiveVector


@dataclass(frozen=True, slots=True)
class StopMessage:
    """Master → worker: shut down."""

    reason: str = "budget exhausted"


@dataclass(frozen=True, slots=True)
class PoolTask:
    """Master → pool worker: generate/evaluate one neighborhood chunk.

    The randomness spec is either ``seed`` (independent per-task
    stream, the multi-worker mode) or ``rng_state`` (a PCG64 state
    dict — the lockstep mode, where a single worker continues the
    master's own stream and ships the advanced state back).  Exactly
    one of the two is set.  Both are pure data, so re-dispatching the
    *same* task after a worker crash regenerates the *same* neighbors —
    the determinism-under-retry invariant the pool is built on.

    ``routes`` carries the parent solution in one of three forms: the
    plain nested tuple (master-local execution), a packed
    :class:`~repro.parallel.wire.WireRoutes`, or a
    :class:`~repro.parallel.wire.WireTaskDelta` against the routes of
    the last task the *target worker* completed (the steady-state
    form).  All three decode to the identical tuple, so the neighbor
    stream is the same regardless of encoding.

    ``trace`` is the optional span-propagation envelope, a
    ``(trace_id, parent_span)`` pair the submitter wants stamped onto
    the worker's trace events for this task (the serve layer passes
    ``(job_id, "job-<id>")``).  Pure data, ignored by execution — it
    exists so one job's events reconstruct as a single causally-ordered
    trace across the process boundary.

    ``instance`` selects which problem the task solves: ``None`` means
    the pool's default instance (the one workers received at spawn),
    while a :class:`~repro.parallel.shm.SharedInstanceRef` names a
    shared-memory segment the worker attaches on first use and keeps in
    a small LRU of mapped instances — the multi-tenant serve layer
    ships a ~300-byte ref per task instead of one pool per instance.
    """

    task_id: int
    attempt: int
    routes: tuple[tuple[int, ...], ...] | WireRoutes | WireTaskDelta
    count: int
    batch_size: int
    iteration: int
    seed: int | None = None
    rng_state: dict | None = None
    trace: tuple[str, str] | None = None
    instance: SharedInstanceRef | None = None


@dataclass(frozen=True, slots=True)
class PoolBatch:
    """Pool worker → master: a streamed batch of evaluated neighbors.

    ``final`` marks the last batch of a task; only final batches carry
    the worker cache-counter delta and (in lockstep mode) the advanced
    RNG state.  ``attempt`` lets the master drop batches of a
    superseded attempt after a retry.

    ``events`` is the worker's drained trace-event batch (plain dicts,
    empty unless tracing is enabled via the environment) — riding on
    the existing result message is how worker events reach the master's
    tracer without a second channel.

    ``neighbors`` is a packed :class:`~repro.parallel.wire.WireBatch`
    of parent-relative edits from a worker, or the plain triple tuple
    from the master's local fallback; the pool decodes before anything
    downstream sees it.  ``phase`` (final batches only, when the worker
    timed itself) is the task's accumulated ``(generate, evaluate)``
    seconds — the worker-side contribution to the obs phase profile.
    """

    worker: int
    task_id: int
    attempt: int
    neighbors: tuple[NeighborTriple, ...] | WireBatch
    final: bool
    rng_state: dict | None = None
    cache_delta: tuple[int, int] | None = None
    events: tuple = ()
    phase: tuple[float, float] | None = None


@dataclass(frozen=True, slots=True)
class PoolHeartbeat:
    """Pool worker → master: liveness beacon.

    Carries no timestamp on purpose: clocks of different processes are
    not comparable, so the master stamps the *receive* time.
    ``generation`` identifies the slot's process incarnation — beacons
    a dead predecessor left in the result queue must not vouch for the
    liveness of its freshly respawned replacement.
    """

    worker: int
    generation: int = 0
