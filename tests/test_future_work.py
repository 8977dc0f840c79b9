"""Tests for the §V future-work extensions: NSGA-II and the hybrid."""

import numpy as np
import pytest

from repro.errors import SearchError, SimulationError
from repro.moea.nsga2 import NSGA2Params, run_nsga2, _route_based_crossover
from repro.mo.dominance import dominates
from repro.parallel.costmodel import CostModel
from repro.parallel.hybrid_ts import HybridParams, run_hybrid_tsmo
from repro.core.construction import i1_construct
from repro.core.solution import Solution
from repro.tabu.params import TSMOParams
from repro.vrptw.generator import generate_instance


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R2", 25, seed=61)


@pytest.fixture(scope="module")
def params():
    return TSMOParams(
        max_evaluations=800, neighborhood_size=30, restart_after=6, archive_capacity=12
    )


class TestNSGA2Params:
    def test_validation(self):
        with pytest.raises(SearchError):
            NSGA2Params(population_size=2)
        with pytest.raises(SearchError):
            NSGA2Params(crossover_rate=1.5)
        with pytest.raises(SearchError):
            NSGA2Params(mutation_moves=-1)


class TestCrossover:
    def test_child_is_valid(self, instance):
        rng = np.random.default_rng(0)
        pa = i1_construct(instance, rng=np.random.default_rng(1))
        pb = i1_construct(instance, rng=np.random.default_rng(2))
        for _ in range(50):
            child = _route_based_crossover(instance, pa, pb, rng)
            Solution._validate_routes(instance, child.routes)
            assert all(load <= instance.capacity for load in child.route_loads())

    def test_child_inherits_parent_routes(self, instance):
        rng = np.random.default_rng(3)
        pa = i1_construct(instance, rng=np.random.default_rng(1))
        pb = i1_construct(instance, rng=np.random.default_rng(2))
        inherited = 0
        for _ in range(30):
            child = _route_based_crossover(instance, pa, pb, rng)
            inherited += sum(1 for r in child.routes if r in pa.routes or r in pb.routes)
        assert inherited > 0


class TestNSGA2Run:
    def test_budget_and_result_shape(self, instance, params):
        result = run_nsga2(
            instance, params, NSGA2Params(population_size=16), seed=1
        )
        assert result.algorithm == "nsga2"
        assert result.evaluations >= params.max_evaluations
        assert result.iterations > 0  # generations
        assert len(result.archive) <= params.archive_capacity
        front = result.front()
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i != j:
                    assert not dominates(front[i], front[j])

    def test_deterministic(self, instance, params):
        a = run_nsga2(instance, params, NSGA2Params(population_size=16), seed=5)
        b = run_nsga2(instance, params, NSGA2Params(population_size=16), seed=5)
        assert np.array_equal(a.front(), b.front())

    def test_finds_feasible(self, instance, params):
        result = run_nsga2(instance, params, NSGA2Params(population_size=16), seed=2)
        assert result.best_feasible() is not None

    def test_comparable_to_tsmo(self, instance, params):
        """Equal budget: NSGA-II and TSMO should land within a sane
        factor of one another (the §V comparison is meaningful)."""
        from repro.tabu.search import run_sequential_tsmo

        nsga = run_nsga2(instance, params, NSGA2Params(population_size=16), seed=3)
        tsmo = run_sequential_tsmo(instance, params, seed=3)
        d_nsga = nsga.best_feasible()[0]
        d_tsmo = tsmo.best_feasible()[0]
        # At these tiny budgets the trajectory method (TSMO) typically
        # intensifies harder than the EA; same-ballpark is the claim.
        assert max(d_nsga, d_tsmo) / min(d_nsga, d_tsmo) < 2.0


class TestHybrid:
    def test_params_validation(self):
        with pytest.raises(SimulationError):
            HybridParams(n_islands=1)
        with pytest.raises(SimulationError):
            HybridParams(procs_per_island=1)

    def test_run_and_budget(self, instance, params):
        cost = CostModel().for_neighborhood(params.neighborhood_size)
        result = run_hybrid_tsmo(
            instance,
            params,
            HybridParams(n_islands=2, procs_per_island=3, initial_phase_patience=2),
            seed=1,
            cost_model=cost,
        )
        assert result.algorithm == "hybrid"
        assert result.processors == 6
        per = result.extra["per_island_evaluations"]
        assert len(per) == 2
        for count in per:
            assert count >= params.max_evaluations
        # The islands' route-stats caches are summed into one record.
        assert result.cache_stats.requests > 0

    def test_deterministic(self, instance, params):
        cost = CostModel().for_neighborhood(params.neighborhood_size)
        kwargs = dict(
            hybrid_params=HybridParams(
                n_islands=2, procs_per_island=3, initial_phase_patience=2
            ),
            seed=4,
            cost_model=cost,
        )
        a = run_hybrid_tsmo(instance, params, **kwargs)
        b = run_hybrid_tsmo(instance, params, **kwargs)
        assert np.array_equal(a.front(), b.front())
        assert a.simulated_time == b.simulated_time

    def test_exchanges_between_islands(self, instance):
        params = TSMOParams(max_evaluations=1500, neighborhood_size=30, restart_after=6)
        cost = CostModel().for_neighborhood(30)
        result = run_hybrid_tsmo(
            instance,
            params,
            HybridParams(n_islands=3, procs_per_island=3, initial_phase_patience=2),
            seed=2,
            cost_model=cost,
        )
        assert result.extra["exchanges"] > 0

    def test_best_of_both_worlds(self, instance):
        """The §V hypothesis: hybrid runtime ~ asynchronous (positive
        speedup), hybrid quality >= sequential."""
        from repro.parallel.base import run_sequential_simulated

        params = TSMOParams(max_evaluations=1500, neighborhood_size=50, restart_after=6)
        cost = CostModel().for_neighborhood(50)
        seq_runs = [
            run_sequential_simulated(instance, params, seed=s, cost_model=cost)
            for s in (1, 2)
        ]
        hyb_runs = [
            run_hybrid_tsmo(
                instance,
                params,
                HybridParams(n_islands=2, procs_per_island=4, initial_phase_patience=2),
                seed=s,
                cost_model=cost,
            )
            for s in (1, 2)
        ]
        ts = np.mean([r.simulated_time for r in seq_runs])
        tp = np.mean([r.simulated_time for r in hyb_runs])
        assert ts / tp > 1.0  # faster than sequential (unlike collaborative)
        seq_best = np.mean([r.best_feasible()[0] for r in seq_runs])
        hyb_best = np.mean([r.best_feasible()[0] for r in hyb_runs])
        assert hyb_best <= seq_best * 1.1
