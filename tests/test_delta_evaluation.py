"""The delta-evaluation engine: correctness, determinism, observability.

Three layers are under test (see DESIGN.md "delta evaluation"):

* :meth:`Evaluator.evaluate_move` must score a move *exactly* like
  materializing the child solution — bit-identical floats, because the
  search's tie-breaking (and therefore the whole trajectory) hangs on
  them — and must agree with the independent permutation oracle;
* the whole sampling path (operator memos + prefix-sum resume) must
  leave search trajectories unchanged: an eager re-implementation of
  the sampler over the same seed selects the same moves and computes
  the same objectives;
* the :class:`RouteStatsCache` counters are a consistent observability
  surface and the LRU bound actually bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator, evaluate_permutation
from repro.core.operators.exchange import Exchange
from repro.core.operators.or_opt import OrOpt
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.operators.relocate import Relocate
from repro.core.operators.segment_exchange import SegmentExchange
from repro.core.operators.two_opt import TwoOpt
from repro.core.operators.two_opt_star import TwoOptStar
from repro.core.stats_cache import CacheStats, RouteStatsCache
from repro.tabu.neighborhood import sample_neighborhood
from repro.tabu.params import TSMOParams
from repro.tabu.search import run_sequential_tsmo
from repro.tabu.trace import TrajectoryRecorder
from repro.vrptw.generator import generate_instance


def all_six_registry() -> OperatorRegistry:
    """All six operators, including the non-paper (2,1) interchange."""
    return OperatorRegistry(
        [Relocate(), Exchange(), TwoOpt(), TwoOptStar(), OrOpt(), SegmentExchange()]
    )


# ----------------------------------------------------------------------
# Property: delta path == oracle, over random chains of moves
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_delta_matches_oracle_over_move_chains(seed):
    """evaluate_move == child.objectives == permutation oracle, chained.

    Each example walks a fresh 12-customer instance through a chain of
    moves drawn from all six operators, scoring every move through the
    delta path and cross-checking (a) bit-identically against the
    materialized child and (b) numerically against the §II permutation
    oracle.  Chains (rather than independent moves) exercise the
    per-parent memos on the operators and the evaluator.
    """
    rng = np.random.default_rng(seed)
    instance = generate_instance("R1", 12, seed=int(rng.integers(1, 10**6)))
    solution = i1_construct(instance, rng=rng)
    registry = all_six_registry()
    evaluator = Evaluator(instance)
    for _ in range(12):
        move = registry.draw_move(solution, rng)
        if move is None:
            break
        scored = evaluator.evaluate_move(solution, move)
        child = move.apply(solution)
        # Bit-identical to materializing the child: same floats, not
        # just approximately equal.
        assert scored.distance == child.objectives.distance
        assert scored.tardiness == child.objectives.tardiness
        assert scored.vehicles == child.objectives.vehicles
        # And numerically the same answer as the independent oracle
        # (different summation order, hence approx).
        oracle = evaluate_permutation(instance, child.permutation)
        assert scored.distance == pytest.approx(oracle.distance, rel=1e-9)
        assert scored.tardiness == pytest.approx(oracle.tardiness, rel=1e-9, abs=1e-9)
        assert scored.vehicles == oracle.vehicles
        solution = child


# ----------------------------------------------------------------------
# Determinism: the kernel sampler replays the scalar oracle exactly
# ----------------------------------------------------------------------


def test_sampler_bit_identical_to_scalar_oracle(small_instance, small_solution):
    """Kernel-evaluated neighborhoods == scalar-oracle neighborhoods.

    Same seed, both knob settings: the sampled moves, the objective
    floats (bit-for-bit), the materialized children, and the final RNG
    stream position must all agree — the kernel only changes who
    computes the numbers.
    """
    from repro.core.batch_eval import sample_batch

    registry = default_registry()
    vec_rng = np.random.default_rng(31337)
    ora_rng = np.random.default_rng(31337)
    vec = sample_batch(
        small_solution, 40, registry, vec_rng, Evaluator(small_instance), vector=True
    )
    oracle = sample_batch(
        small_solution,
        40,
        default_registry(),
        ora_rng,
        Evaluator(small_instance),
        vector=False,
    )
    assert len(vec.entries) == len(oracle.entries) == 40
    for (obj_v, move_v, maker), (obj_o, move_o, _) in zip(vec.entries, oracle.entries):
        move_v = move_v if move_v is not None else maker()
        assert move_v == move_o
        assert obj_v.distance == obj_o.distance
        assert obj_v.vehicles == obj_o.vehicles
        assert obj_v.tardiness == obj_o.tardiness
        child = move_v.apply(small_solution)
        assert obj_v.distance == child.objectives.distance
        assert obj_v.tardiness == child.objectives.tardiness
        assert obj_v.vehicles == child.objectives.vehicles
    # Both paths must hand the stream back at the same position.
    assert float(vec_rng.random()) == float(ora_rng.random())


def test_sample_neighborhood_respects_vector_knob(
    small_instance, small_solution, monkeypatch
):
    """The public sampler is knob-invariant: same neighbors either way."""

    def run(knob):
        monkeypatch.setenv("REPRO_VECTOR_EVAL", knob)
        return sample_neighborhood(
            small_solution,
            30,
            default_registry(),
            np.random.default_rng(555),
            Evaluator(small_instance),
        )

    on, off = run("1"), run("0")
    assert len(on) == len(off) == 30
    for a, b in zip(on, off):
        assert a.move == b.move
        assert a.objectives.distance == b.objectives.distance
        assert a.objectives.vehicles == b.objectives.vehicles
        assert a.objectives.tardiness == b.objectives.tardiness


def test_fixed_seed_trace_is_reproducible(small_instance):
    """Same seed → identical sequence of selected currents (Fig. 1 rows)."""
    params = TSMOParams(max_evaluations=600, neighborhood_size=20)

    def trace_run():
        recorder = TrajectoryRecorder()
        run_sequential_tsmo(small_instance, params, seed=2024, trace=recorder)
        return [
            (p.distance, p.vehicles, p.tardiness) for p in recorder.selections
        ]

    first, second = trace_run(), trace_run()
    assert first, "the run must select at least one current"
    assert first == second


# ----------------------------------------------------------------------
# Cache counters and LRU bound
# ----------------------------------------------------------------------


def test_cache_counters_consistent(small_instance, small_solution):
    registry = default_registry()
    evaluator = Evaluator(small_instance)
    rng = np.random.default_rng(8)
    for _ in range(30):
        sample_neighborhood(small_solution, 30, registry, rng, evaluator)
    cache = evaluator.stats_cache
    assert cache.hits + cache.misses == cache.lookups
    snap = cache.snapshot()
    assert snap.requests == cache.lookups
    assert snap.hits == cache.hits and snap.misses == cache.misses
    assert 0.0 <= snap.hit_rate <= 1.0
    # Re-sampling the same parent must hit: the same child routes recur.
    assert snap.hits > 0


def test_cache_eviction_respects_capacity(small_instance, small_solution):
    cache = RouteStatsCache(small_instance, capacity=4)
    evaluator = Evaluator(small_instance, stats_cache=cache)
    registry = default_registry()
    rng = np.random.default_rng(9)
    solution = small_solution
    for _ in range(8):
        neighbors = sample_neighborhood(solution, 20, registry, rng, evaluator)
        if neighbors:
            solution = neighbors[-1].solution
    assert len(cache) <= 4
    assert cache.evictions > 0
    assert cache.hits + cache.misses == cache.lookups


def test_cache_capacity_zero_disables_retention(small_instance, small_solution):
    cache = RouteStatsCache(small_instance, capacity=0)
    evaluator = Evaluator(small_instance, stats_cache=cache)
    sample_neighborhood(
        small_solution, 20, default_registry(), np.random.default_rng(10), evaluator
    )
    assert len(cache) == 0
    assert cache.hits == 0
    assert cache.misses == cache.lookups > 0


def test_cache_stats_aggregation():
    a = CacheStats(hits=3, misses=2, evictions=1, size=5, capacity=8)
    b = CacheStats(hits=1, misses=4, evictions=0, size=7, capacity=8)
    merged = a + b
    assert merged.hits == 4 and merged.misses == 6 and merged.evictions == 1
    assert merged.size == 7 and merged.capacity == 8
    assert merged.requests == 10


# ----------------------------------------------------------------------
# Observability surface on search results
# ----------------------------------------------------------------------


def test_sequential_result_exposes_cache_stats(small_instance, quick_params):
    result = run_sequential_tsmo(small_instance, quick_params, seed=77)
    stats = result.cache_stats
    assert stats is not None
    assert stats.hits > 0
    assert stats.requests == stats.hits + stats.misses


def test_parallel_results_expose_cache_stats(small_instance, quick_params):
    from repro.parallel.async_ts import run_asynchronous_tsmo
    from repro.parallel.collab_ts import run_collaborative_tsmo
    from repro.parallel.sync_ts import run_synchronous_tsmo

    for runner in (run_synchronous_tsmo, run_asynchronous_tsmo, run_collaborative_tsmo):
        result = runner(small_instance, quick_params, 3, seed=78)
        stats = result.cache_stats
        assert stats is not None, runner.__name__
        assert stats.hits > 0, runner.__name__
        assert stats.requests == stats.hits + stats.misses, runner.__name__
