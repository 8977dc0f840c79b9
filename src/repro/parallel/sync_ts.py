"""Synchronous master–worker TSMO (paper §III.C).

"The first parallel approach is a very simple parallelization of the
GenerateNeighborhood() and Evaluate() functions using a master process
that distributes the work among himself and several worker processes.
... It is synchronized in that the master selects the current
individual, distributes the work and waits to collect all the
results."

Every iteration the master splits the neighborhood into ``P`` chunks
(one for itself), waits for *all* worker results, then runs the exact
sequential selection/update.  Because the selection logic and memories
are untouched, "the behavior remains unchanged" relative to the
sequential algorithm — only the clock differs; the drawback is that
the master idles until the slowest (straggling) worker reports.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.errors import SimulationError
from repro.obs import NULL_OBS
from repro.parallel.base import simulation_context
from repro.parallel.costmodel import CostModel
from repro.parallel.messages import ResultMessage, StopMessage, TaskMessage
from repro.rng import RngFactory, get_generator_state, set_generator_state
from repro.tabu.neighborhood import Neighbor, sample_neighborhood
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult
from repro.tabu.trace import TrajectoryRecorder
from repro.vrptw.instance import Instance

__all__ = ["run_synchronous_tsmo", "split_chunks", "worker_process"]


def split_chunks(total: int, parts: int) -> list[int]:
    """Balanced work split: sizes differ by at most one, sum == total."""
    if parts < 1:
        raise SimulationError(f"cannot split into {parts} parts")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def worker_process(
    cluster,
    rank: int,
    registry: OperatorRegistry,
    rng: np.random.Generator,
    evaluator: Evaluator,
    *,
    batch_size: int | None = None,
    master: int = 0,
    obs=NULL_OBS,
):
    """The worker loop shared by the synchronous and asynchronous variants.

    Receives :class:`TaskMessage`, generates/evaluates its chunk, and
    sends results back — as one final message (synchronous,
    ``batch_size=None``) or as a stream of batches with a terminating
    ``final`` flag (asynchronous).

    Simulated workers run in the master's process, so their events go
    straight into the shared tracer under a per-rank span, and their
    compute/idle time folds into the shared simulated-unit profiler.
    """
    cost = cluster.cost
    inbox = cluster.inbox(rank)
    env = cluster.env
    profiler = obs.profiler
    tracer = obs.tracer
    span = f"rank-{rank}"
    while True:
        idle_from = env.now
        msg = yield inbox.get()
        if profiler.enabled:
            profiler.add("wait", env.now - idle_from)
        if isinstance(msg, StopMessage):
            return
        if not isinstance(msg, TaskMessage):
            raise SimulationError(f"worker {rank} received unexpected {msg!r}")
        remaining = msg.count
        produced: list[Neighbor] = []
        work_from = env.now
        while remaining > 0:
            step = remaining if batch_size is None else min(batch_size, remaining)
            # Pay the simulated duration first, then materialize the
            # neighbors, so the evaluation counter reflects *completed*
            # work at the simulated instant it completes.
            yield cluster.compute(rank, cost.eval_cost * step)
            batch = sample_neighborhood(
                msg.solution, step, registry, rng, evaluator, iteration=msg.iteration
            )
            remaining -= step
            if batch_size is None:
                produced.extend(batch)
            else:
                if tracer.enabled:
                    tracer.emit(
                        "comm_send",
                        span=span,
                        peer=master,
                        kind="result",
                        items=len(batch),
                    )
                cluster.send(
                    rank,
                    master,
                    ResultMessage(
                        worker=rank,
                        neighbors=tuple(batch),
                        iteration=msg.iteration,
                        final=remaining <= 0,
                    ),
                    n_items=max(len(batch), 1),
                )
        if profiler.enabled:
            profiler.add("evaluate", env.now - work_from)
        if tracer.enabled:
            tracer.emit(
                "worker_task",
                span=span,
                worker=rank,
                task_id=msg.iteration,
                neighbors=msg.count,
            )
        if batch_size is None:
            if tracer.enabled:
                tracer.emit(
                    "comm_send",
                    span=span,
                    peer=master,
                    kind="result",
                    items=len(produced),
                )
            cluster.send(
                rank,
                master,
                ResultMessage(
                    worker=rank,
                    neighbors=tuple(produced),
                    iteration=msg.iteration,
                    final=True,
                ),
                n_items=max(len(produced), 1),
            )


def run_synchronous_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_processors: int = 3,
    seed: int | np.random.SeedSequence | None = None,
    cost_model: CostModel | None = None,
    *,
    registry: OperatorRegistry | None = None,
    trace: TrajectoryRecorder | None = None,
    checkpoint=None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Run the synchronous master–worker TSMO on the simulated cluster.

    The master's loop top is a global barrier — every worker has
    reported and is blocked on its inbox, nothing is in transit — so
    checkpointing there captures the whole cluster consistently:
    engine, per-worker RNG bit-states, cluster noise streams and the
    simulated clock.  As for the sequential drivers, checkpointing is
    fully transparent (bit-identical with or without it).
    """
    params = params or TSMOParams()
    if n_processors < 2:
        raise SimulationError("the master-worker variants need >= 2 processors")
    obs.set_unit("simulated")
    registry = registry or default_registry()
    # RNG tree: master stream + one stream per worker + cluster stream.
    factory = RngFactory(seed)
    master_rng = factory.generator()
    worker_rngs = factory.generators(n_processors - 1)
    cluster_seed = factory.seed_sequence()
    env, cluster, _ = simulation_context(n_processors, cost_model, cluster_seed, 0)
    cost = cluster.cost

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
    finish = {"time": None}

    resumed = (
        checkpoint.load_resume_state(kind="synchronous")
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
        checkpoint.note_resumed(engine.evaluator.count)

    def build_state():
        return {
            "engine": engine.snapshot(),
            "workers": [get_generator_state(rng) for rng in worker_rngs],
            "cluster": cluster.export_state(),
            "env_now": env.now,
        }

    def master():
        inbox = cluster.inbox(0)
        profiler = obs.profiler
        tracer = obs.tracer
        if resumed is None:
            yield cluster.compute(0, cost.init_cost(instance.n_customers))
            engine.initialize()
        while True:
            if checkpoint is not None:
                checkpoint.tick(
                    engine.evaluator.count, build_state, kind="synchronous"
                )
            if engine.done:
                break
            iteration = engine.iteration + 1
            chunks = split_chunks(params.neighborhood_size, n_processors)
            for rank in range(1, n_processors):
                if tracer.enabled:
                    tracer.emit(
                        "comm_send", peer=rank, kind="task", items=chunks[rank]
                    )
                cluster.send(
                    0,
                    rank,
                    TaskMessage(engine.current, chunks[rank], iteration),
                    n_items=1,
                )
            t0 = env.now
            yield cluster.compute(0, cost.eval_cost * chunks[0])
            neighbors = engine.generate_neighborhood(chunks[0])
            if profiler.enabled:
                profiler.add("evaluate", env.now - t0)
            # Wait for every worker — the synchronous barrier — then
            # deserialize each bulk result on the critical path.
            for _ in range(n_processors - 1):
                t0 = env.now
                msg = yield inbox.get()
                t1 = env.now
                yield cluster.receive_overhead(0, len(msg.neighbors), streamed=False)
                if profiler.enabled:
                    profiler.add("wait", t1 - t0)
                    profiler.add("communicate", env.now - t1)
                if tracer.enabled:
                    tracer.emit(
                        "comm_recv",
                        peer=msg.worker,
                        kind="result",
                        items=len(msg.neighbors),
                    )
                neighbors.extend(msg.neighbors)
            t0 = env.now
            yield cluster.compute(0, cost.selection_cost(len(neighbors)))
            if profiler.enabled:
                profiler.add("select", env.now - t0)
            engine.select_and_update(neighbors)
        finish["time"] = env.now
        for rank in range(1, n_processors):
            cluster.send(0, rank, StopMessage(), n_items=1)

    env.process(master(), name="master")
    for rank in range(1, n_processors):
        env.process(
            worker_process(
                cluster, rank, registry, worker_rngs[rank - 1], evaluator, obs=obs
            ),
            name=f"worker-{rank}",
        )

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    if obs.enabled:
        obs.metrics.gauge("comm.messages_sent", cluster.messages_sent)
        obs.metrics.gauge("comm.items_sent", cluster.items_sent)
    result = engine.result(
        "synchronous",
        wall_time=wall,
        simulated_time=finish["time"] if finish["time"] is not None else env.now,
        processors=n_processors,
    )
    result.extra["messages_sent"] = cluster.messages_sent
    result.extra["items_sent"] = cluster.items_sent
    return result
