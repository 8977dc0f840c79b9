"""Shared scaffolding of the simulated parallel drivers.

All four drivers (sequential baseline, synchronous, asynchronous,
collaborative) follow the same recipe: build a deterministic RNG tree
from one seed, put a :class:`~repro.parallel.cluster.SimCluster` on a
fresh :class:`~repro.parallel.des.Environment`, run the protocol as
simulated processes, and snapshot the engine(s) into a
:class:`~repro.tabu.search.TSMOResult` whose ``simulated_time`` is the
cluster time at which the algorithm delivered its result.

The RNG spawning order is part of each driver's definition (seed →
search stream(s) → cluster stream); re-running any driver with the
same arguments replays the identical search *and* the identical
message timeline.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.operators.registry import OperatorRegistry
from repro.obs import NULL_OBS
from repro.parallel.cluster import SimCluster
from repro.parallel.costmodel import CostModel
from repro.parallel.des import Environment
from repro.rng import RngFactory
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult
from repro.tabu.trace import TrajectoryRecorder
from repro.vrptw.instance import Instance

__all__ = ["run_sequential_simulated", "sequential_step", "simulation_context"]


def simulation_context(
    n_processors: int,
    cost_model: CostModel | None,
    seed: int | np.random.SeedSequence | None,
    n_search_streams: int = 1,
) -> tuple[Environment, SimCluster, list[np.random.Generator]]:
    """Build the environment, cluster and search RNG streams for a driver."""
    factory = RngFactory(seed)
    search_streams = factory.generators(n_search_streams)
    cluster_seed = factory.seed_sequence()
    env = Environment()
    cluster = SimCluster(env, n_processors, cost_model, seed=cluster_seed)
    return env, cluster, search_streams


def sequential_step(cluster, rank: int, engine: TSMOEngine, profiler):
    """One TSMO iteration on one simulated processor (``yield from`` it).

    Generates the full neighborhood, charges ``eval_cost`` per neighbor
    and the selection cost of the whole pool, then selects.
    """
    env, cost = cluster.env, cluster.cost
    neighbors = engine.generate_neighborhood()
    t0 = env.now
    yield cluster.compute(rank, cost.eval_cost * len(neighbors))
    t1 = env.now
    yield cluster.compute(rank, cost.selection_cost(len(neighbors)))
    if profiler.enabled:
        profiler.add("evaluate", t1 - t0)
        profiler.add("select", env.now - t1)
    engine.select_and_update(neighbors)


def run_sequential_simulated(
    instance: Instance,
    params: TSMOParams | None = None,
    seed: int | np.random.SeedSequence | None = None,
    cost_model: CostModel | None = None,
    *,
    registry: OperatorRegistry | None = None,
    trace: TrajectoryRecorder | None = None,
    checkpoint=None,
    obs=NULL_OBS,
) -> TSMOResult:
    """The sequential TSMO with simulated timing — the ``T_s`` baseline.

    Algorithmically identical to
    :func:`repro.tabu.search.run_sequential_tsmo` (same seed → same
    archive); additionally accumulates the cost-model time a single
    reference processor would need, which is the numerator of every
    speedup in Tables I–IV.

    Checkpointing (via a :class:`~repro.persistence.CheckpointPolicy`)
    snapshots at iteration boundaries — where the single process owns
    all state and no event is in flight — and is fully transparent:
    results are bit-identical with or without it.  Snapshots add the
    simulated clock, so a resumed run reports the same
    ``simulated_time`` as an uninterrupted one.
    """
    params = params or TSMOParams()
    # Simulated drivers profile in cost-model units (deterministic, so
    # profiles are bit-identical across runs and resume legs).
    obs.set_unit("simulated")
    env, cluster, (search_rng,) = simulation_context(1, cost_model, seed)
    engine = TSMOEngine(
        instance, params, search_rng, registry=registry, trace=trace, obs=obs
    )

    resumed = (
        checkpoint.load_resume_state(kind="sequential-sim")
        if checkpoint is not None
        else None
    )
    if resumed is not None:
        engine.restore(resumed["engine"])
        cluster.restore_state(resumed["cluster"])
        env.now = resumed["env_now"]
        checkpoint.note_resumed(engine.evaluator.count)

    def build_state():
        return {
            "engine": engine.snapshot(),
            "cluster": cluster.export_state(),
            "env_now": env.now,
        }

    def driver():
        if resumed is None:
            yield cluster.compute(0, cluster.cost.init_cost(instance.n_customers))
            engine.initialize()
        while True:
            if checkpoint is not None:
                checkpoint.tick(
                    engine.evaluator.count, build_state, kind="sequential-sim"
                )
            if engine.done:
                break
            yield from sequential_step(cluster, 0, engine, obs.profiler)

    start = time.perf_counter()
    env.process(driver(), name="sequential")
    env.run()
    wall = time.perf_counter() - start
    return engine.result(
        "sequential",
        wall_time=wall,
        simulated_time=env.now,
        processors=1,
    )
