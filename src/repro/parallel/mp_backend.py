"""Real ``multiprocessing`` master–worker backends (production path).

Both master–worker protocols of the paper run here on *real* OS
processes, on top of the persistent fault-tolerant
:class:`~repro.parallel.pool.WorkerPool` (see ``pool.py`` and DESIGN.md
§5): long-lived spawn-context workers, streamed result batches, worker
heartbeats, bounded task retry with deterministic re-seeding,
replacement-worker respawn and graceful degradation to master-only
execution when the pool collapses.

* :func:`run_multiprocessing_tsmo` — the synchronous protocol
  (§III.C): the master farms the whole neighborhood out each
  iteration, waits for every chunk (the pool supervises stragglers and
  crashes underneath), then runs the unchanged
  :meth:`~repro.tabu.search.TSMOEngine.select_and_update`.  With a
  single task per iteration it switches to *lockstep* mode — the
  worker continues the master's own RNG stream and ships the advanced
  state back — which makes ``n_workers=1`` bit-identical to the
  sequential algorithm.
* :func:`run_multiprocessing_async_tsmo` — the asynchronous protocol
  (§III.D): workers stream small result batches and the master applies
  the paper's decision function on real wall-clock time — c1 a worker
  went idle, c2 a collected neighbor dominates the current solution,
  c3 the master waited too long, c4 the budget is exhausted.

The protocol's known awkwardnesses stay handled explicitly:

* the instance (with its O(N²) travel matrix) ships **once** per
  worker life via the spawn arguments, not with every task;
* workers return ``(routes, objectives, tabu attribute)`` triples —
  plain picklable data — rather than :class:`Move` objects, because
  moves close over solution internals;
* evaluation counting happens on the master from received batch sizes
  (a shared counter would serialize on a lock);
* worker-computed objectives are *adopted* by the reconstructed
  solutions, so the master never re-evaluates the selected child.

Failure handling and observability are the pool's: both drivers attach
its counter report as ``result.extra["pool"]``, and the
``REPRO_POOL_FAULTS`` environment variable (or an explicit
:class:`~repro.parallel.pool.FaultPlan`) injects deterministic worker
crashes and delays for testing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.objectives import ObjectiveVector
from repro.core.operators.base import Move, RouteEdits
from repro.core.solution import Solution
from repro.core.stats_cache import CacheStats
from repro.errors import SearchError
from repro.obs import NULL_OBS
from repro.parallel.async_ts import DecisionFunction
from repro.parallel.pool import FaultPlan, PoolParams, WorkerPool
from repro.parallel.sync_ts import split_chunks
from repro.rng import RngFactory, as_generator
from repro.tabu.neighborhood import Neighbor
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult
from repro.vrptw.instance import Instance

__all__ = [
    "MpAsyncParams",
    "RemoteMove",
    "run_multiprocessing_async_tsmo",
    "run_multiprocessing_tsmo",
]


class RemoteMove(Move):
    """A move reconstructed from a worker's result.

    Only the tabu attribute survives the process boundary; the
    resulting solution is shipped alongside, so :meth:`apply` is never
    needed (and refuses to run).
    """

    __slots__ = ("_attribute",)
    name = "remote"

    def __init__(self, attribute: Hashable) -> None:
        self._attribute = attribute

    def route_edits(self, solution: Solution) -> RouteEdits:
        raise SearchError("remote moves are pre-applied on the worker")

    def apply(self, solution: Solution) -> Solution:
        raise SearchError("remote moves are pre-applied on the worker")

    @property
    def attribute(self) -> Hashable:
        return self._attribute


def _wire_neighbor(
    instance: Instance,
    triple,
    iteration: int,
    evaluator: Evaluator,
) -> Neighbor:
    """Rebuild one wire triple into a master-side :class:`Neighbor`.

    The worker-computed objectives are adopted by the reconstructed
    solution (bit-identical to an eager re-evaluation — per-route
    statistics are a pure function of the route tuple), so selection
    never re-evaluates the child.  The master charges the budget here,
    one unit per received neighbor.
    """
    routes, (distance, vehicles, tardiness), attribute = triple
    child = Solution(instance, routes)
    objectives = ObjectiveVector(distance, int(vehicles), tardiness)
    child.adopt_objectives(objectives)
    evaluator.count += 1
    return Neighbor(
        move=RemoteMove(attribute),
        objectives=objectives,
        iteration=iteration,
        solution=child,
    )


def _finish_result(
    engine: TSMOEngine,
    pool: WorkerPool,
    algorithm: str,
    wall: float,
    n_workers: int,
    worker_hits: int,
    worker_misses: int,
) -> TSMOResult:
    result = engine.result(
        algorithm, wall_time=wall, simulated_time=None, processors=n_workers + 1
    )
    # The master never delta-evaluates, so its own cache is idle; the
    # aggregated per-worker counters are the meaningful surface here.
    result.cache_stats = CacheStats(hits=worker_hits, misses=worker_misses)
    result.extra["worker_cache_hits"] = worker_hits
    result.extra["worker_cache_misses"] = worker_misses
    report = pool.report()
    result.extra["pool"] = report
    obs = engine.obs
    if obs.enabled:
        m = obs.metrics
        for key in (
            "crashes",
            "stragglers",
            "respawns",
            "retries",
            "master_fallback_tasks",
            "stale_batches",
            "tasks_completed",
            "max_backlog",
        ):
            m.gauge(f"pool.{key}", report[key])
        transport = report.get("transport") or {}
        for key in ("delta_tasks", "full_tasks", "wire_batches", "wire_batch_bytes"):
            if key in transport:
                m.gauge(f"pool.transport.{key}", transport[key])
        m.gauge("cache.worker_hits", worker_hits)
        m.gauge("cache.worker_misses", worker_misses)
        # Re-snapshot: engine.result() ran before the pool gauges above.
        result.metrics = m.snapshot()
        result.profile = obs.profiler.summary()
    return result


def run_multiprocessing_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_workers: int = 2,
    seed: int | np.random.Generator | None = None,
    *,
    chunks_per_worker: int = 1,
    pool_params: PoolParams | None = None,
    fault_plan: FaultPlan | None = None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Synchronous master–worker TSMO on real OS processes.

    With exactly one task per iteration (``n_workers=1`` and
    ``chunks_per_worker=1``) the driver runs in *lockstep* mode: the
    worker continues the master's own PCG64 stream and returns the
    advanced state, which makes the run bit-identical to
    :func:`~repro.tabu.search.run_sequential_tsmo` with the same seed.
    With more tasks, each task draws an independent per-task seed —
    deterministic for a given ``seed`` regardless of worker failures.
    """
    params = params or TSMOParams()
    if n_workers < 1:
        raise SearchError("need at least one worker process")
    if chunks_per_worker < 1:
        raise SearchError("need at least one chunk per worker")
    obs.set_unit("seconds")
    master_rng = as_generator(seed)
    seed_rng = RngFactory(seed if not isinstance(seed, np.random.Generator) else None).generator()
    evaluator = Evaluator(instance, params.max_evaluations)
    engine = TSMOEngine(instance, params, master_rng, evaluator=evaluator, obs=obs)

    n_tasks = n_workers * chunks_per_worker
    chunk_sizes = split_chunks(params.neighborhood_size, n_tasks)
    lockstep = (
        n_tasks == 1
        and type(engine.rng.bit_generator).__name__ == "PCG64"
    )

    start = time.perf_counter()
    worker_hits = worker_misses = 0
    profiler = obs.profiler
    with WorkerPool(
        instance, n_workers, params=pool_params, fault_plan=fault_plan, obs=obs
    ) as pool:
        engine.initialize()
        while not engine.done:
            iteration = engine.iteration + 1
            if lockstep:
                task_ids = [
                    pool.submit(
                        engine.current.routes,
                        chunk_sizes[0],
                        rng_state=engine.rng.bit_generator.state,
                        iteration=iteration,
                    )
                ]
            else:
                task_ids = [
                    pool.submit(
                        engine.current.routes,
                        size,
                        seed=int(seed_rng.integers(2**63)),
                        iteration=iteration,
                    )
                    for size in chunk_sizes
                    if size > 0
                ]
            with profiler.time("wait"):
                outcomes = pool.gather(task_ids)
            neighbors: list[Neighbor] = []
            with profiler.time("communicate"):
                for task_id in task_ids:  # task order, not arrival order
                    outcome = outcomes[task_id]
                    hits, misses = outcome.cache_delta
                    worker_hits += hits
                    worker_misses += misses
                    for triple in outcome.neighbors:
                        neighbors.append(
                            _wire_neighbor(instance, triple, iteration, evaluator)
                        )
                    if lockstep and outcome.rng_state is not None:
                        engine.rng.bit_generator.state = outcome.rng_state
            with profiler.time("select"):
                engine.select_and_update(neighbors)
        wall = time.perf_counter() - start
        return _finish_result(
            engine, pool, "multiprocessing", wall, n_workers, worker_hits, worker_misses
        )


@dataclass(frozen=True, slots=True)
class MpAsyncParams:
    """Knobs of the real-process asynchronous driver.

    The simulated variant's :class:`~repro.parallel.async_ts.AsyncParams`
    measures its waiting deadline in cost-model units; here ``max_wait``
    is real wall-clock seconds.
    """

    #: neighbors per streamed result batch.
    batch_size: int = 10
    #: condition ``c3``: seconds the master waits after its last
    #: selection before proceeding with whatever has been collected.
    max_wait: float = 0.25

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        if self.max_wait < 0:
            raise SearchError("max_wait must be non-negative")


def run_multiprocessing_async_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_workers: int = 2,
    seed: int | np.random.Generator | None = None,
    *,
    async_params: MpAsyncParams | None = None,
    pool_params: PoolParams | None = None,
    fault_plan: FaultPlan | None = None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Asynchronous master–worker TSMO on real OS processes (§III.D).

    The master keeps one neighborhood-chunk task outstanding per worker
    and collects streamed batches into a selection pool; Algorithm 2's
    decision function — c1 (a task completed, i.e. a worker went idle),
    c2 (a collected neighbor dominates the current solution), c3 (the
    master waited longer than ``max_wait``), c4 (budget exhausted) —
    decides when to select from a partial pool.  Batches that arrive
    after the master moved on join a later selection (the paper's
    carryover effect); worker crashes are retried by the pool with the
    same task seed, so no neighbor is lost or duplicated.

    Real asynchrony means real nondeterminism: unlike the simulated
    variant, the trajectory depends on OS scheduling.  The run itself —
    completion, budget accounting, archive validity — is guaranteed
    regardless of worker failures.
    """
    params = params or TSMOParams()
    aparams = async_params or MpAsyncParams()
    if n_workers < 1:
        raise SearchError("need at least one worker process")
    obs.set_unit("seconds")
    master_rng = as_generator(seed)
    seed_rng = RngFactory(seed if not isinstance(seed, np.random.Generator) else None).generator()
    evaluator = Evaluator(instance, params.max_evaluations)
    engine = TSMOEngine(instance, params, master_rng, evaluator=evaluator, obs=obs)

    chunk_sizes = [
        size for size in split_chunks(params.neighborhood_size, n_workers) if size > 0
    ]

    start = time.perf_counter()
    worker_hits = worker_misses = 0
    carryover = 0
    pool_sizes: list[int] = []
    profiler = obs.profiler
    decide = DecisionFunction(obs.tracer)
    with WorkerPool(
        instance,
        n_workers,
        params=pool_params,
        fault_plan=fault_plan,
        batch_size=aparams.batch_size,
        obs=obs,
    ) as pool:
        engine.initialize()
        collected: list[Neighbor] = []
        outstanding = 0
        next_chunk = 0
        last_select = time.monotonic()
        while not engine.done:
            # Keep every worker fed: one outstanding chunk per worker,
            # always sampling a neighborhood of the *current* solution.
            while outstanding < len(chunk_sizes):
                size = chunk_sizes[next_chunk % len(chunk_sizes)]
                next_chunk += 1
                pool.submit(
                    engine.current.routes,
                    size,
                    seed=int(seed_rng.integers(2**63)),
                    iteration=engine.iteration + 1,
                )
                outstanding += 1

            task_finished = False
            with profiler.time("wait"):
                # With neighbors in hand, wait no longer than c3's real
                # deadline; with none, c3 cannot fire, so wait for the
                # pool's next message.
                if collected:
                    elapsed = time.monotonic() - last_select
                    events = pool.poll(max(aparams.max_wait - elapsed, 0.0))
                else:
                    events = pool.poll(None)
            with profiler.time("communicate"):
                for event in events:
                    for triple in event.neighbors:
                        collected.append(
                            _wire_neighbor(
                                instance, triple, event.iteration, evaluator
                            )
                        )
                    if event.final:
                        task_finished = True
                        outstanding -= 1
                        if event.cache_delta is not None:
                            worker_hits += event.cache_delta[0]
                            worker_misses += event.cache_delta[1]

            # The loop ends once the budget is spent, and only received
            # neighbors spend it, so c4 never fires on an empty pool.
            if decide(
                collected,
                engine.current.objectives,
                engine.iteration + 1,
                idle=task_finished,
                timed_out=time.monotonic() - last_select >= aparams.max_wait,
                exhausted=evaluator.exhausted,
            ):
                pool_sizes.append(len(collected))
                carryover += sum(
                    1 for n in collected if n.iteration <= engine.iteration
                )
                with profiler.time("select"):
                    engine.select_and_update(collected)
                collected = []
                last_select = time.monotonic()
        wall = time.perf_counter() - start
        if obs.enabled:
            m = obs.metrics
            for size in pool_sizes:
                m.observe(
                    "async.pool_size", size, buckets=(0, 5, 10, 25, 50, 100, 250, 500)
                )
            m.gauge("async.carryover_neighbors", carryover)
        result = _finish_result(
            engine,
            pool,
            "multiprocessing_async",
            wall,
            n_workers,
            worker_hits,
            worker_misses,
        )
    result.extra["mean_pool_size"] = (
        float(np.mean(pool_sizes)) if pool_sizes else 0.0
    )
    result.extra["carryover_neighbors"] = carryover
    return result


def pickle_roundtrip_sizes(instance: Instance) -> dict[str, int]:
    """Pickle-baseline sizes of the protocol's payloads.

    These are the *uncoded* costs — what each task and worker spawn
    paid before the zero-copy transport (``repro.parallel.wire`` /
    ``repro.parallel.shm``).  For the full pickle-vs-codec comparison,
    including the shared-memory and delta-task steady state, use
    :func:`repro.parallel.wire.wire_cost` (the ``bench_micro.py``
    wire-cost benchmark records it into ``BENCH_micro.json``).
    """
    import pickle

    customers = list(range(1, instance.n_customers + 1))
    routes: Sequence = tuple(
        tuple(customers[i : i + 5]) for i in range(0, len(customers), 5)
    )
    return {
        "instance_bytes": len(pickle.dumps(instance)),
        "routes_bytes": len(pickle.dumps(routes)),
    }
