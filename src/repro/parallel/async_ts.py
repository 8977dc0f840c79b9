"""Asynchronous master–worker TSMO (paper §III.D).

"The asynchronous TS still uses a master-worker philosophy and
parallelizes the neighborhood generation and evaluation function, but
the master does not wait in all cases for the workers to continue.
... the master will use a decision function to decide if workers
should be given more time or if it should continue by selecting the
next current individual from the N that has been collected so far.
Thus the master can consider only parts of a neighborhood per
iteration and will take the other parts into account once they will be
evaluated."

Algorithm 2 — the decision function — returns "continue" when any of:

* ``c1`` — some worker is idle (its final batch arrived);
* ``c2`` — a collected neighbor dominates the current solution;
* ``c3`` — the master has been waiting too long;
* ``c4`` — the evaluation budget is exhausted.

Workers stream results in small batches; batches that arrive after the
master moved on simply join a later selection pool, so the search "can
select solutions that were neighbors of a previous solution" — the
carryover Figure 1 illustrates (visible in the trace as selections
whose creation iteration precedes their selection iteration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.objectives import ObjectiveVector
from repro.errors import SimulationError
from repro.obs import NULL_OBS, NULL_TRACER
from repro.parallel.base import simulation_context
from repro.parallel.costmodel import CostModel
from repro.parallel.des import GET_TIMED_OUT
from repro.parallel.messages import SolutionMessage, StopMessage, TaskMessage
from repro.parallel.sync_ts import split_chunks, worker_process
from repro.rng import RngFactory, get_generator_state, set_generator_state
from repro.tabu.neighborhood import Neighbor
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult, decode_routes, encode_solution
from repro.tabu.trace import TrajectoryRecorder
from repro.vrptw.instance import Instance

__all__ = ["AsyncMaster", "AsyncParams", "DecisionFunction", "run_asynchronous_tsmo"]


def _encode_neighbor(neighbor: Neighbor) -> tuple:
    """A pool neighbor as picklable, instance-free data.

    Materializing the solution here is behavior-neutral (applying a
    move consumes no randomness), and the decoded neighbor is eager, so
    it never needs the — unpicklable — parent reference again.
    """
    return (
        neighbor.move,
        tuple(neighbor.objectives),
        neighbor.iteration,
        encode_solution(neighbor.solution),
    )


def _decode_neighbor(instance: Instance, data: tuple) -> Neighbor:
    move, objectives, iteration, routes = data
    return Neighbor(
        move,
        ObjectiveVector(*objectives),
        iteration,
        solution=decode_routes(instance, routes),
    )


@dataclass(frozen=True, slots=True)
class AsyncParams:
    """Knobs specific to the asynchronous variant."""

    #: neighbors per worker result message (streaming granularity).
    batch_size: int = 20
    #: condition ``c3``: how long the master waits (in cost-model time
    #: units) after finishing its own chunk before proceeding anyway.
    #: ``None`` (default) adapts to the cluster: 1.25x the nominal
    #: duration of one worker chunk, so the deadline only cuts off
    #: genuine stragglers — whose late neighbors then carry over.
    max_wait: float | None = None
    #: fraction of an equal ``S / P`` chunk the master assigns to
    #: itself.  The paper's master "distributes the work among himself
    #: and the workers"; in our implementation the asynchronous master
    #: interleaves collection and selection with its own generation, so
    #: it takes a reduced share by default (the remainder is spread
    #: over the workers).  This is one of the calibrated constants —
    #: see EXPERIMENTS.md.
    master_share: float = 0.15

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SimulationError("batch_size must be >= 1")
        if self.max_wait is not None and self.max_wait < 0:
            raise SimulationError("max_wait must be non-negative")
        if not 0.0 <= self.master_share <= 1.0:
            raise SimulationError("master_share must be in [0, 1]")


class DecisionFunction:
    """Algorithm 2: decide whether the master selects now or waits on.

    Called with the selection pool after every absorbed message or
    expired wait.  Returns the names of the fired conditions when the
    master should select, else ``()``; an empty pool ends the collection
    only on ``c4``.  The current solution is fixed while the master
    collects and the pool only grows, so ``c2`` checks just the entries
    added since the last call.  A firing decision emits one
    ``decision_fired`` event and resets the scan for the next pool.
    """

    __slots__ = ("_tracer", "_span", "_checked", "_c2")

    def __init__(self, tracer=NULL_TRACER, span: str | None = None) -> None:
        self._tracer = tracer
        self._span = span
        self._checked = 0
        self._c2 = False

    def __call__(
        self,
        pool: list[Neighbor],
        current: ObjectiveVector,
        iteration: int,
        *,
        idle: bool,
        timed_out: bool,
        exhausted: bool,
    ) -> tuple[str, ...]:
        if not self._c2:
            fresh = pool[self._checked :]
            self._c2 = any(n.objectives.dominates(current) for n in fresh)
            self._checked = len(pool)
        hits = (idle, self._c2, timed_out, exhausted)
        fired = tuple(name for name, hit in zip(("c1", "c2", "c3", "c4"), hits) if hit)
        if not (fired if pool else exhausted):
            return ()
        if self._tracer.enabled:
            self._tracer.emit(
                "decision_fired",
                span=self._span,
                iteration=iteration,
                reason=",".join(fired),
                pool=len(pool),
            )
        self._checked, self._c2 = 0, False
        return fired


class AsyncMaster:
    """One asynchronous master and its workers on the simulated cluster.

    :meth:`run` is the master's process.  Each iteration it hands every
    idle worker a chunk of the current solution's neighborhood,
    generates its own reduced share, collects streamed batches into
    :attr:`pool` until the :class:`DecisionFunction` fires, and selects.
    Batches that arrive after a selection join the next pool (the
    carryover of Figure 1).  An ``exchange`` (a
    :class:`~repro.parallel.collab_ts.EliteExchange`, as the hybrid's
    islands have) receives the elites that arrive in the inbox and may
    send one after each selection.  ``span`` tags the master's events.
    """

    def __init__(
        self,
        cluster,
        engine: TSMOEngine,
        rank: int,
        workers,
        aparams: AsyncParams,
        *,
        exchange=None,
        obs=NULL_OBS,
        span: str | None = None,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.rank = rank
        self.workers = list(workers)
        self.aparams = aparams
        self.exchange = exchange
        self.obs = obs
        self.span = span
        self.pool: list[Neighbor] = []
        self.carryover = 0
        self.pool_sizes: list[int] = []
        self.finish_time: float | None = None

    def run(self, checkpoint=None, snapshot=None):
        """The master's process.

        An engine restored from a snapshot continues where it stopped.
        With a ``checkpoint`` policy the master drains to quiescence
        whenever a snapshot is due, then commits ``snapshot()``.
        """
        cluster, engine, rank, span = self.cluster, self.engine, self.rank, self.span
        env, cost = cluster.env, cluster.cost
        inbox = cluster.inbox(rank)
        profiler, tracer = self.obs.profiler, self.obs.tracer
        decide = DecisionFunction(tracer, span)
        pool = self.pool
        idle = set(self.workers)
        # The master takes a reduced share; workers split the rest.
        size = engine.params.neighborhood_size
        equal = size / (len(self.workers) + 1)
        master_chunk = int(round(self.aparams.master_share * equal))
        worker_chunks = split_chunks(size - master_chunk, len(self.workers))
        chunk_of = dict(zip(self.workers, worker_chunks))
        max_wait = (
            self.aparams.max_wait
            if self.aparams.max_wait is not None
            else 1.25 * cost.eval_cost * max(worker_chunks)
        )

        def absorb(msg):
            if isinstance(msg, SolutionMessage):
                yield from self.exchange.receive(msg)
                return
            # Streamed receive: pre-posted buffers overlap with compute,
            # only per-message handling hits the critical path.
            t0 = env.now
            yield cluster.receive_overhead(rank, len(msg.neighbors), streamed=True)
            if profiler.enabled:
                profiler.add("communicate", env.now - t0)
            if tracer.enabled:
                tracer.emit(
                    "comm_recv",
                    span=span,
                    peer=msg.worker,
                    kind="result",
                    items=len(msg.neighbors),
                    final=msg.final,
                )
            pool.extend(msg.neighbors)
            if msg.final:
                idle.add(msg.worker)

        if engine.current is None:
            yield cluster.compute(rank, cost.init_cost(engine.instance.n_customers))
            engine.initialize()
        while True:
            if checkpoint is not None:
                if checkpoint.due(engine.evaluator.count):
                    # Drain to quiescence before capturing state: no
                    # new work goes out, in-flight batches are absorbed
                    # into the pool, every worker ends blocked on its
                    # inbox with nothing in transit.
                    while (
                        len(idle) < len(self.workers)
                        or len(inbox) > 0
                        or cluster.has_pending_deliveries()
                    ):
                        msg = yield inbox.get()
                        yield from absorb(msg)
                    checkpoint.commit(
                        engine.evaluator.count, snapshot(), kind="asynchronous"
                    )
                checkpoint.maybe_crash(engine.evaluator.count)
            if engine.done:
                break
            iteration = engine.iteration + 1
            # (Re)assign work to every idle worker; busy workers keep
            # grinding on neighborhoods of previous currents.
            for worker in sorted(idle):
                chunk = chunk_of[worker]
                if tracer.enabled:
                    tracer.emit(
                        "comm_send", span=span, peer=worker, kind="task", items=chunk
                    )
                task = TaskMessage(engine.current, chunk, iteration)
                cluster.send(rank, worker, task, n_items=1)
            idle.clear()
            # The master's own share.
            t0 = env.now
            yield cluster.compute(rank, cost.eval_cost * master_chunk)
            pool.extend(engine.generate_neighborhood(master_chunk))
            if profiler.enabled:
                profiler.add("evaluate", env.now - t0)

            # Collection loop governed by the decision function.
            deadline = env.now + max_wait
            while True:
                while (msg := inbox.get_nowait()) is not None:
                    yield from absorb(msg)
                timed_out = env.now >= deadline
                if decide(
                    pool,
                    engine.current.objectives,
                    iteration,
                    idle=bool(idle),
                    timed_out=timed_out,
                    exhausted=engine.evaluator.exhausted,
                ):
                    break
                # Give the workers more time: block until the next
                # message or the waiting-too-long deadline.
                timeout = None if timed_out else max(deadline - env.now, 0.0)
                t0 = env.now
                msg = yield inbox.get(timeout=timeout)
                if profiler.enabled:
                    profiler.add("wait", env.now - t0)
                if msg is GET_TIMED_OUT:
                    continue
                yield from absorb(msg)
            if not pool:
                break
            self.pool_sizes.append(len(pool))
            # Neighbors created in earlier iterations that are only now
            # considered — the paper's carryover effect (Figure 1).
            self.carryover += sum(1 for n in pool if n.iteration <= engine.iteration)
            version_before = engine.memories.archive.version
            t0 = env.now
            yield cluster.compute(rank, cost.selection_cost(len(pool)))
            if profiler.enabled:
                profiler.add("select", env.now - t0)
            engine.select_and_update(pool)
            pool.clear()
            if self.exchange is not None:
                self.exchange.after_selection(version_before)

        self.finish_time = env.now
        for worker in self.workers:
            cluster.send(rank, worker, StopMessage(), n_items=1)


def run_asynchronous_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_processors: int = 3,
    seed: int | np.random.SeedSequence | None = None,
    cost_model: CostModel | None = None,
    async_params: AsyncParams | None = None,
    *,
    registry: OperatorRegistry | None = None,
    trace: TrajectoryRecorder | None = None,
    checkpoint=None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Run the asynchronous master–worker TSMO on the simulated cluster.

    Unlike the synchronous variant, the master's loop top is *not*
    quiescent — workers may be mid-chunk with batches in flight.  When
    a snapshot is due the master therefore **drains** first: it stops
    assigning work and absorbs messages until every worker is idle and
    nothing is in transit, then captures the global state (engine,
    carried-over pool, worker RNG streams, cluster, simulated clock).
    The drain is an extra synchronization the uncheckpointed run does
    not have, so the checkpoint cadence is part of the protocol: a run
    with a given policy is bit-identical to a crashed-and-resumed run
    under the *same* policy (which is what crash recovery needs), but
    not to a run with no checkpointing at all.  See DESIGN.md.
    """
    params = params or TSMOParams()
    aparams = async_params or AsyncParams()
    if n_processors < 2:
        raise SimulationError("the master-worker variants need >= 2 processors")
    obs.set_unit("simulated")
    registry = registry or default_registry()
    factory = RngFactory(seed)
    master_rng = factory.generator()
    worker_rngs = factory.generators(n_processors - 1)
    cluster_seed = factory.seed_sequence()
    env, cluster, _ = simulation_context(n_processors, cost_model, cluster_seed, 0)

    evaluator = Evaluator(instance, params.max_evaluations)
    engine = TSMOEngine(
        instance,
        params,
        master_rng,
        evaluator=evaluator,
        registry=registry,
        trace=trace,
        obs=obs,
    )
    master = AsyncMaster(cluster, engine, 0, range(1, n_processors), aparams, obs=obs)

    resumed = (
        checkpoint.load_resume_state(kind="asynchronous")
        if checkpoint is not None
        else None
    )
    if resumed is not None:
        if len(resumed["workers"]) != n_processors - 1:
            raise SimulationError(
                f"snapshot has {len(resumed['workers'])} worker streams, "
                f"run asked for {n_processors - 1} workers"
            )
        engine.restore(resumed["engine"])
        for rng, state in zip(worker_rngs, resumed["workers"]):
            set_generator_state(rng, state)
        cluster.restore_state(resumed["cluster"])
        env.now = resumed["env_now"]
        # Snapshots are taken drained: every worker idle, nothing in
        # flight, stragglers already absorbed into the pool.
        master.pool.extend(_decode_neighbor(instance, n) for n in resumed["pool"])
        master.carryover = resumed["carryover"]
        master.pool_sizes = list(resumed["pool_sizes"])
        checkpoint.note_resumed(engine.evaluator.count)

    def build_state():
        return {
            "engine": engine.snapshot(),
            "workers": [get_generator_state(rng) for rng in worker_rngs],
            "cluster": cluster.export_state(),
            "env_now": env.now,
            "pool": [_encode_neighbor(n) for n in master.pool],
            "carryover": master.carryover,
            "pool_sizes": list(master.pool_sizes),
        }

    env.process(master.run(checkpoint, build_state), name="master")
    for rank in range(1, n_processors):
        env.process(
            worker_process(
                cluster,
                rank,
                registry,
                worker_rngs[rank - 1],
                evaluator,
                batch_size=aparams.batch_size,
                obs=obs,
            ),
            name=f"worker-{rank}",
        )

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    if obs.enabled:
        m = obs.metrics
        m.gauge("comm.messages_sent", cluster.messages_sent)
        m.gauge("comm.items_sent", cluster.items_sent)
        m.gauge("async.carryover_neighbors", master.carryover)
        for size in master.pool_sizes:
            m.observe(
                "async.pool_size", size, buckets=(0, 5, 10, 25, 50, 100, 250, 500)
            )
    result = engine.result(
        "asynchronous",
        wall_time=wall,
        simulated_time=(
            master.finish_time if master.finish_time is not None else env.now
        ),
        processors=n_processors,
    )
    result.extra["messages_sent"] = cluster.messages_sent
    result.extra["items_sent"] = cluster.items_sent
    pool_sizes = master.pool_sizes
    result.extra["mean_pool_size"] = (
        float(np.mean(pool_sizes)) if pool_sizes else 0.0
    )
    result.extra["carryover_neighbors"] = master.carryover
    return result
