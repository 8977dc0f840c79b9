"""Hybrid asynchronous + multisearch TSMO (paper §V future work).

"What remains for the future would be ... combining the multisearch TS
with the asynchronous TS to get the best of both worlds and probably
an algorithm that delivers both good solutions and runtime
performance."  And from §I: "A combination of multisearch and
functional decomposition could combine the best of two worlds."

This driver implements that combination on the simulated cluster:

* the fleet of ``n_islands`` searchers is the *multisearch* layer —
  each island runs its own TSMO with (optionally) perturbed parameters
  and, after an initial phase, sends archive-improving solutions to
  the next island on its rotating communication list (§III.E);
* each island is internally an *asynchronous master–worker* group
  (§III.D): the island master farms neighborhood generation out to
  ``procs_per_island - 1`` workers and proceeds on the four-condition
  decision function instead of waiting for stragglers.

Each island is exactly the asynchronous driver's
:class:`~repro.parallel.async_ts.AsyncMaster` with the collaborative
driver's :class:`~repro.parallel.collab_ts.EliteExchange` attached.

Expected profile (checked by the hybrid benchmark): per-island runtime
close to the plain asynchronous variant at the same group size —
i.e. positive speedup, unlike the collaborative variant — while the
exchanged elites and parameter diversity buy collaborative-grade
fronts and vehicle counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.stats_cache import CacheStats
from repro.errors import SimulationError
from repro.mo.archive import ParetoArchive
from repro.obs import NULL_OBS
from repro.parallel.async_ts import AsyncMaster, AsyncParams
from repro.parallel.base import simulation_context
from repro.parallel.collab_ts import EliteExchange
from repro.parallel.costmodel import CostModel
from repro.parallel.sync_ts import worker_process
from repro.rng import RngFactory
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult
from repro.vrptw.instance import Instance

__all__ = ["HybridParams", "run_hybrid_tsmo"]


@dataclass(frozen=True, slots=True)
class HybridParams:
    """Knobs of the hybrid driver."""

    #: number of collaborating islands (multisearch layer).
    n_islands: int = 3
    #: processors per island (one master + workers; async layer).
    procs_per_island: int = 4
    #: perturb parameters of islands 1..n-1 (as §III.E does).
    perturb: bool = True
    #: initial-phase patience before exchanges start (iterations
    #: without an archive improvement); ``None`` uses each island's
    #: ``restart_after``.
    initial_phase_patience: int | None = None
    #: the asynchronous layer's knobs.
    async_params: AsyncParams = AsyncParams()

    def __post_init__(self) -> None:
        if self.n_islands < 2:
            raise SimulationError("the hybrid needs >= 2 islands")
        if self.procs_per_island < 2:
            raise SimulationError("each island needs a master and >= 1 worker")
        if self.initial_phase_patience is not None and self.initial_phase_patience < 0:
            raise SimulationError("initial_phase_patience must be >= 0")

    @property
    def total_processors(self) -> int:
        return self.n_islands * self.procs_per_island


def run_hybrid_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    hybrid_params: HybridParams | None = None,
    seed: int | np.random.SeedSequence | None = None,
    cost_model: CostModel | None = None,
    *,
    registry: OperatorRegistry | None = None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Run the hybrid asynchronous-multisearch TSMO.

    Island ``i`` occupies ranks ``i * k`` (its master) to
    ``i * k + k - 1``, with ``k = procs_per_island``; its master's
    events carry the span ``island-<i>``.
    """
    params = params or TSMOParams()
    hparams = hybrid_params or HybridParams()
    obs.set_unit("simulated")
    registry = registry or default_registry()
    n_islands = hparams.n_islands
    k = hparams.procs_per_island
    total = hparams.total_processors

    factory = RngFactory(seed)
    island_rngs = factory.generators(n_islands)
    worker_rngs = factory.generators(n_islands * (k - 1))
    commlist_rng = factory.generator()
    cluster_seed = factory.seed_sequence()
    env, cluster, _ = simulation_context(total, cost_model, cluster_seed, 0)

    engines: list[TSMOEngine] = []
    for island in range(n_islands):
        local = params
        if hparams.perturb and island > 0:
            local = params.perturbed(island_rngs[island])
        engines.append(
            TSMOEngine(
                instance,
                local,
                island_rngs[island],
                evaluator=Evaluator(instance, params.max_evaluations),
                registry=registry,
                obs=obs,
            )
        )

    ranks = [island * k for island in range(n_islands)]
    islands: list[AsyncMaster] = []
    for island, (engine, rank) in enumerate(zip(engines, ranks)):
        comm = list(commlist_rng.permutation([m for m in ranks if m != rank]))
        span = f"island-{island}"
        exchange = EliteExchange(
            cluster,
            engine,
            rank,
            comm,
            hparams.initial_phase_patience,
            obs=obs,
            span=span,
        )
        islands.append(
            AsyncMaster(
                cluster,
                engine,
                rank,
                range(rank + 1, rank + k),
                hparams.async_params,
                exchange=exchange,
                obs=obs,
                span=span,
            )
        )

    for island, master in enumerate(islands):
        env.process(master.run(), name=f"island-{island}-master")
        for j, worker in enumerate(master.workers):
            env.process(
                worker_process(
                    cluster,
                    worker,
                    registry,
                    worker_rngs[island * (k - 1) + j],
                    master.engine.evaluator,
                    batch_size=hparams.async_params.batch_size,
                    master=master.rank,
                    obs=obs,
                ),
                name=f"island-{island}-worker-{worker}",
            )

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start

    merged: ParetoArchive = ParetoArchive(params.archive_capacity)
    for engine in engines:
        for entry in engine.memories.archive.entries:
            merged.try_add(entry.item, entry.objectives)

    exchanges = sum(master.exchange.sends for master in islands)
    pool_sizes = [size for master in islands for size in master.pool_sizes]
    # Each island keeps its own route-stats cache.
    caches = [engine.evaluator.stats_cache.snapshot() for engine in engines]
    metrics = profile = None
    if obs.enabled:
        m = obs.metrics
        m.gauge("comm.messages_sent", cluster.messages_sent)
        m.gauge("hybrid.exchanges", exchanges)
        metrics = m.snapshot()
        profile = obs.profiler.summary()
    result = TSMOResult(
        instance_name=instance.name,
        algorithm="hybrid",
        params=params,
        archive=list(merged.entries),
        iterations=sum(e.iteration for e in engines),
        evaluations=sum(e.evaluator.count for e in engines),
        restarts=sum(e.restarts for e in engines),
        wall_time=wall,
        simulated_time=max(master.finish_time for master in islands),
        processors=total,
        cache_stats=sum(caches, CacheStats()),
        metrics=metrics,
        profile=profile,
    )
    result.extra["messages_sent"] = cluster.messages_sent
    result.extra["exchanges"] = exchanges
    result.extra["per_island_evaluations"] = [e.evaluator.count for e in engines]
    result.extra["per_island_finish"] = [master.finish_time for master in islands]
    result.extra["mean_pool_size"] = float(np.mean(pool_sizes)) if pool_sizes else 0.0
    return result
