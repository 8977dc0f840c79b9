"""Tests for the sequential TSMO engine (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.objectives import ObjectiveVector
from repro.core.solution import Solution
from repro.errors import SearchError
from repro.mo.dominance import dominates
from repro.tabu.neighborhood import Neighbor, sample_neighborhood
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, run_sequential_tsmo
from repro.tabu.trace import TrajectoryRecorder
from repro.core.operators.registry import default_registry
from repro.vrptw.generator import generate_instance


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R1", 25, seed=77)


@pytest.fixture(scope="module")
def params():
    return TSMOParams(
        max_evaluations=500,
        neighborhood_size=25,
        tabu_tenure=8,
        archive_capacity=10,
        nondom_capacity=15,
        restart_after=5,
    )


class TestNeighborhoodSampling:
    def test_size_and_budget(self, instance, small_solution):
        evaluator = Evaluator(instance)
        sol = None
        from repro.core.construction import i1_construct

        sol = i1_construct(instance, rng=1)
        neighbors = sample_neighborhood(
            sol, 30, default_registry(), np.random.default_rng(0), evaluator
        )
        assert len(neighbors) == 30
        assert evaluator.count == 30

    def test_iteration_tagging(self, instance):
        from repro.core.construction import i1_construct

        sol = i1_construct(instance, rng=1)
        neighbors = sample_neighborhood(
            sol,
            5,
            default_registry(),
            np.random.default_rng(0),
            Evaluator(instance),
            iteration=42,
        )
        assert all(n.iteration == 42 for n in neighbors)

    def test_neighbors_are_children_of_parent(self, instance):
        from repro.core.construction import i1_construct

        sol = i1_construct(instance, rng=1)
        neighbors = sample_neighborhood(
            sol, 10, default_registry(), np.random.default_rng(0), Evaluator(instance)
        )
        assert all(n.solution != sol for n in neighbors)
        assert all(n.objectives == n.solution.objectives for n in neighbors)


class TestEvaluatorBudget:
    def test_exhaustion(self, instance):
        ev = Evaluator(instance, max_evaluations=3)
        sol = Solution.from_routes(
            instance, [list(range(1, instance.n_customers + 1))[i::5] for i in range(5)]
        )
        for _ in range(3):
            ev.evaluate(sol)
        assert ev.exhausted
        assert ev.remaining == 0

    def test_unlimited(self, instance):
        ev = Evaluator(instance)
        assert not ev.exhausted
        assert ev.remaining is None

    def test_invalid_budget(self, instance):
        with pytest.raises(SearchError):
            Evaluator(instance, max_evaluations=0)

    def test_reset(self, instance):
        ev = Evaluator(instance, 10)
        ev.count = 7
        ev.reset()
        assert ev.count == 0


class TestEngine:
    def test_requires_initialization(self, instance, params):
        engine = TSMOEngine(instance, params, 1)
        with pytest.raises(SearchError, match="initialize"):
            engine.generate_neighborhood()
        with pytest.raises(SearchError, match="initialize"):
            engine.select_and_update([])

    def test_initialize_seeds_memories(self, instance, params):
        engine = TSMOEngine(instance, params, 1)
        initial = engine.initialize()
        assert engine.current is initial
        assert len(engine.memories.archive) == 1
        assert engine.evaluator.count == 1

    def test_step_advances(self, instance, params):
        engine = TSMOEngine(instance, params, 1)
        engine.initialize()
        engine.step()
        assert engine.iteration == 1
        assert engine.evaluator.count == 1 + params.neighborhood_size

    def test_selection_is_nondominated_and_not_tabu(self, instance, params):
        engine = TSMOEngine(instance, params, 1)
        engine.initialize()
        neighbors = engine.generate_neighborhood()
        chosen = engine.select_and_update(neighbors)
        matching = [n for n in neighbors if n.solution == chosen]
        if matching:  # not a restart
            selected = matching[0]
            for other in neighbors:
                assert not dominates(
                    other.objectives.as_array(), selected.objectives.as_array()
                )
            # Its attribute was pushed onto the tabu list.
            assert selected.move.attribute in engine.memories.tabulist

    def test_empty_neighborhood_forces_restart(self, instance, params):
        engine = TSMOEngine(instance, params, 1)
        engine.initialize()
        before = engine.restarts
        engine.select_and_update([])
        assert engine.restarts == before + 1

    def test_stagnation_triggers_restart_flag(self, instance):
        # An archive that cannot change: capacity 1 with an unbeatable
        # entry forces "noImprovement" after restart_after iterations.
        params = TSMOParams(
            max_evaluations=10_000,
            neighborhood_size=5,
            tabu_tenure=3,
            archive_capacity=1,
            nondom_capacity=5,
            restart_after=3,
        )
        engine = TSMOEngine(instance, params, 1)
        engine.initialize()
        perfect = ObjectiveVector(0.0, 0, 0.0)
        engine.memories.archive.clear()
        engine.memories.archive.try_add(engine.current, perfect)
        for _ in range(10):
            engine.step()
        assert engine.restarts >= 1

    def test_tabu_all_candidates_restarts(self, instance, params):
        # Tenure must exceed the neighborhood size so nothing expires
        # while we blacklist every candidate.
        from dataclasses import replace

        wide = replace(params, tabu_tenure=params.neighborhood_size * 2)
        engine = TSMOEngine(instance, wide, 1)
        engine.initialize()
        neighbors = engine.generate_neighborhood()
        for n in neighbors:
            engine.memories.tabulist.push(n.move.attribute)
        before = engine.restarts
        engine.select_and_update(neighbors)
        assert engine.restarts == before + 1


class TestSequentialRun:
    def test_budget_respected(self, instance, params):
        result = run_sequential_tsmo(instance, params, seed=3)
        assert result.evaluations >= params.max_evaluations
        # Overshoot bounded by one neighborhood.
        assert result.evaluations <= params.max_evaluations + params.neighborhood_size
        assert result.iterations > 0

    def test_deterministic(self, instance, params):
        a = run_sequential_tsmo(instance, params, seed=9)
        b = run_sequential_tsmo(instance, params, seed=9)
        assert np.array_equal(a.front(), b.front())
        assert a.iterations == b.iterations

    def test_seeds_differ(self, instance, params):
        a = run_sequential_tsmo(instance, params, seed=1)
        b = run_sequential_tsmo(instance, params, seed=2)
        assert not np.array_equal(a.front(), b.front())

    def test_archive_is_nondominated(self, instance, params):
        result = run_sequential_tsmo(instance, params, seed=5)
        front = result.front()
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i != j:
                    assert not dominates(front[i], front[j])

    def test_search_improves_over_initial(self, instance):
        """The front after the search must dominate-or-match a larger
        budgetless baseline: compare best feasible distance to the I1
        seed's."""
        from repro.core.construction import i1_construct

        params = TSMOParams(
            max_evaluations=2000, neighborhood_size=40, restart_after=8
        )
        seed_solution = i1_construct(instance, rng=np.random.default_rng(4))
        result = run_sequential_tsmo(instance, params, seed=4, initial=seed_solution)
        best = result.best_feasible()
        assert best is not None
        assert best[0] <= seed_solution.objectives.distance + 1e-9

    def test_result_metadata(self, instance, params):
        result = run_sequential_tsmo(instance, params, seed=1)
        assert result.algorithm == "sequential"
        assert result.instance_name == instance.name
        assert result.processors == 1
        assert result.wall_time > 0
        assert result.simulated_time is None

    def test_feasible_front_subset(self, instance, params):
        result = run_sequential_tsmo(instance, params, seed=1)
        feasible = result.feasible_front()
        assert feasible.shape[0] <= result.front().shape[0]
        if feasible.size:
            assert np.all(feasible[:, 2] <= 1e-9)

    def test_trace_recording(self, instance, params):
        trace = TrajectoryRecorder()
        result = run_sequential_tsmo(instance, params, seed=1, trace=trace)
        assert len(trace.selections) == result.iterations + 1  # + initial
        assert len(trace.neighbors) == result.evaluations - 1  # minus initial
        # Sequential search never selects across iterations.
        assert trace.carryover_count == 0


class TestAspiration:
    def test_aspiration_admits_archive_improving_tabu_move(self):
        """With every candidate tabu, plain TS restarts; aspiration may
        still move if something would improve the archive."""
        instance = generate_instance("R1", 25, seed=31)
        base = dict(
            max_evaluations=2000,
            neighborhood_size=30,
            tabu_tenure=100,
            restart_after=50,
        )
        plain = TSMOEngine(instance, TSMOParams(**base), 7)
        aspiring = TSMOEngine(instance, TSMOParams(**base, aspiration=True), 7)
        for engine in (plain, aspiring):
            engine.initialize()
            neighbors = engine.generate_neighborhood()
            for n in neighbors:
                engine.memories.tabulist.push(n.move.attribute)
            # Guarantee an archive-improving candidate exists.
            engine.memories.archive.clear()
            engine.select_and_update(neighbors)
        assert plain.restarts == 1
        assert aspiring.restarts == 0

    def test_aspiration_run_completes(self):
        instance = generate_instance("C2", 20, seed=3)
        result = run_sequential_tsmo(
            instance,
            TSMOParams(
                max_evaluations=600,
                neighborhood_size=25,
                restart_after=6,
                aspiration=True,
            ),
            seed=2,
        )
        assert result.best_feasible() is not None


class TestTrajectoryRecorder:
    def test_cap(self):
        rec = TrajectoryRecorder(max_neighbors=3)
        for i in range(10):
            rec.record_neighbor(i, ObjectiveVector(1, 1, 0))
        assert len(rec.neighbors) == 3

    def test_arrays(self):
        rec = TrajectoryRecorder()
        rec.record_neighbor(1, ObjectiveVector(10, 2, 0.5))
        rec.record_selection(1, 2, ObjectiveVector(9, 2, 0.0))
        n = rec.neighbors_array()
        s = rec.selections_array()
        assert n.shape == (1, 5)
        assert s.shape == (1, 5)
        assert s[0, 0] == 1 and s[0, 1] == 2
        assert rec.carryover_count == 1

    def test_restart_not_counted_as_carryover(self):
        rec = TrajectoryRecorder()
        rec.record_selection(0, 5, ObjectiveVector(1, 1, 0), restarted=True)
        assert rec.carryover_count == 0

    def test_empty_arrays(self):
        rec = TrajectoryRecorder()
        assert rec.neighbors_array().shape == (0, 5)
        assert rec.selections_array().shape == (0, 5)
