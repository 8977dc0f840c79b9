"""The batch neighborhood-evaluation kernel and its bit-identity oracle.

Four layers under test (DESIGN.md "Batch evaluation kernel"):

* per-operator descriptor emitters: for every batch-enabled operator a
  kernel-evaluated neighborhood must be *bit-identical* — same moves,
  same objective floats, same RNG stream position — to the scalar
  oracle path (``vector=False``), across chains of parents that
  exercise route deletion, new-route relocation and tight windows;
* :func:`batch_route_stats` must reproduce the scalar arrival-time
  recursion bit-for-bit, including empty/singleton/depot-adjacent
  routes;
* the five search drivers must walk *identical trajectories* with the
  ``REPRO_VECTOR_EVAL`` knob on and off — the knob may change who
  computes the numbers, never the numbers;
* the kernel's observability counters (``eval.vector_calls``,
  ``eval.batch_size``, ``eval.scalar_fallbacks``) and the deferred
  cache protocol behave as documented.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_eval import (
    batch_route_stats,
    batch_supported,
    sample_batch,
    vector_eval_enabled,
)
from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator
from repro.core.operators.exchange import Exchange
from repro.core.operators.or_opt import OrOpt
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.operators.relocate import Relocate
from repro.core.operators.segment_exchange import SegmentExchange
from repro.core.operators.two_opt import TwoOpt
from repro.core.operators.two_opt_star import TwoOptStar
from repro.core.routes import route_stats
from repro.core.solution import Solution
from repro.core.stats_cache import RouteStatsCache
from repro.obs import Obs
from repro.parallel.async_ts import AsyncParams, run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.collab_ts import CollabParams, run_collaborative_tsmo
from repro.parallel.sync_ts import run_synchronous_tsmo
from repro.tabu.neighborhood import LazyNeighbor, sample_neighborhood
from repro.tabu.search import run_sequential_tsmo
from repro.vrptw.generator import generate_instance

OPERATORS = [Relocate, Exchange, TwoOpt, TwoOptStar, OrOpt]


def assert_entries_identical(parent, vec, oracle):
    """Two BatchResults agree bit-for-bit (moves, floats, children)."""
    assert len(vec.entries) == len(oracle.entries)
    for (obj_v, move_v, maker), (obj_o, move_o, _) in zip(
        vec.entries, oracle.entries
    ):
        move_v = move_v if move_v is not None else maker()
        assert move_v == move_o
        assert obj_v.distance == obj_o.distance
        assert obj_v.vehicles == obj_o.vehicles
        assert obj_v.tardiness == obj_o.tardiness
        child = move_v.apply(parent)
        assert obj_v.distance == child.objectives.distance
        assert obj_v.tardiness == child.objectives.tardiness
        assert obj_v.vehicles == child.objectives.vehicles


# ----------------------------------------------------------------------
# 1. Per-operator oracle equality, over chains of parents
# ----------------------------------------------------------------------


@pytest.mark.parametrize("op_cls", OPERATORS, ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_kernel_matches_oracle_per_operator(op_cls, seed):
    """Single-operator registries: kernel == oracle, bit for bit.

    Each example walks a fresh tight-window instance through a short
    chain of accepted moves, so later samples see parents with deleted
    routes, freshly opened routes and cold caches — the assembly paths
    the single-shot test cannot reach.
    """
    rng = np.random.default_rng(seed)
    instance = generate_instance("R1", 16, seed=int(rng.integers(1, 10**6)))
    solution = i1_construct(instance, rng=rng)
    registry = OperatorRegistry([op_cls()])
    assert batch_supported(registry)
    master = np.random.default_rng(seed ^ 0x5EED)
    for _ in range(3):
        state = master.bit_generator.state
        vec_rng = np.random.default_rng()
        vec_rng.bit_generator.state = state
        ora_rng = np.random.default_rng()
        ora_rng.bit_generator.state = state
        vec = sample_batch(
            solution, 12, registry, vec_rng, Evaluator(instance), vector=True
        )
        oracle = sample_batch(
            solution, 12, registry, ora_rng, Evaluator(instance), vector=False
        )
        assert vec_rng.bit_generator.state == ora_rng.bit_generator.state
        assert_entries_identical(solution, vec, oracle)
        master.bit_generator.state = vec_rng.bit_generator.state
        if not vec.entries:
            break
        obj, move, maker = vec.entries[0]
        move = move if move is not None else maker()
        solution = move.apply(solution)


def test_kernel_matches_oracle_mixed_registry(small_instance, small_solution):
    """The paper's five-operator wheel: one big sampled neighborhood."""
    registry = default_registry()
    vec_rng = np.random.default_rng(31337)
    ora_rng = np.random.default_rng(31337)
    vec = sample_batch(
        small_solution, 60, registry, vec_rng, Evaluator(small_instance), vector=True
    )
    oracle = sample_batch(
        small_solution,
        60,
        default_registry(),
        ora_rng,
        Evaluator(small_instance),
        vector=False,
    )
    assert len(vec.entries) == 60
    assert_entries_identical(small_solution, vec, oracle)
    assert float(vec_rng.random()) == float(ora_rng.random())


def test_kernel_scalar_tail_when_no_kind_ready(tiny_instance):
    """A parent no emitter can serve routes every slot to the tail.

    On a single-route solution Exchange/TwoOptStar have an empty wheel
    (``batch_ready`` is false), so the kernel consumes no block RNG and
    the whole neighborhood comes from scalar ``draw_move`` — on *both*
    knob settings, keeping the stream aligned.
    """
    customers = tuple(range(1, tiny_instance.n_customers + 1))
    solution = Solution(tiny_instance, (customers,))
    for op_cls in (Exchange, TwoOptStar):
        registry = OperatorRegistry([op_cls()])
        vec_rng = np.random.default_rng(7)
        ora_rng = np.random.default_rng(7)
        vec = sample_batch(
            solution, 10, registry, vec_rng, Evaluator(tiny_instance), vector=True
        )
        oracle = sample_batch(
            solution, 10, registry, ora_rng, Evaluator(tiny_instance), vector=False
        )
        assert vec_rng.bit_generator.state == ora_rng.bit_generator.state
        assert_entries_identical(solution, vec, oracle)


# ----------------------------------------------------------------------
# 2. batch_route_stats == route_stats, bit for bit
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_batch_route_stats_bitwise_equal(seed):
    """Vectorized route scans == scalar scans on random route mixes."""
    rng = np.random.default_rng(seed)
    instance = generate_instance(
        "R1" if seed % 2 else "C2", 20, seed=int(rng.integers(1, 10**6))
    )
    customers = list(rng.permutation(np.arange(1, 21)))
    routes = []
    while customers:
        k = int(rng.integers(1, 6))
        routes.append(tuple(int(c) for c in customers[:k]))
        customers = customers[k:]
    # Edge shapes the sampler rarely emits together: empty, singleton,
    # and a full tour (deep recursion, guaranteed tardiness on R1).
    routes += [(), (1,), tuple(range(1, 21))]
    batched = batch_route_stats(instance, routes)
    assert len(batched) == len(routes)
    for route, st_b in zip(routes, batched):
        st_s = route_stats(instance, route)
        assert st_b.distance == st_s.distance
        assert st_b.tardiness == st_s.tardiness
        assert st_b.load == st_s.load


def test_batch_route_stats_empty_input(small_instance):
    assert batch_route_stats(small_instance, []) == []


# ----------------------------------------------------------------------
# 3. Knob invariance: whole search trajectories
# ----------------------------------------------------------------------

DRIVERS = [
    "sequential",
    "sequential-sim",
    "synchronous",
    "asynchronous",
    "collaborative",
]


def run_driver(driver, instance, params, seed):
    if driver == "sequential":
        return run_sequential_tsmo(instance, params, seed=seed)
    if driver == "sequential-sim":
        return run_sequential_simulated(instance, params, seed=seed)
    if driver == "synchronous":
        return run_synchronous_tsmo(instance, params, 3, seed)
    if driver == "asynchronous":
        return run_asynchronous_tsmo(
            instance, params, 3, seed, async_params=AsyncParams(batch_size=8)
        )
    if driver == "collaborative":
        return run_collaborative_tsmo(
            instance,
            params,
            3,
            seed,
            collab_params=CollabParams(initial_phase_patience=3),
        )
    raise AssertionError(driver)


def fingerprint(result):
    return (
        result.front().tolist(),
        result.evaluations,
        result.iterations,
        result.restarts,
        result.simulated_time,
        result.extra.get("messages_sent"),
    )


@pytest.mark.parametrize("driver", DRIVERS)
def test_trajectory_identical_knob_on_and_off(
    driver, small_instance, quick_params, monkeypatch
):
    """REPRO_VECTOR_EVAL only changes who computes, never the search."""
    monkeypatch.setenv("REPRO_VECTOR_EVAL", "1")
    on = run_driver(driver, small_instance, quick_params, seed=42)
    monkeypatch.setenv("REPRO_VECTOR_EVAL", "0")
    off = run_driver(driver, small_instance, quick_params, seed=42)
    assert fingerprint(on) == fingerprint(off)


def test_vector_eval_enabled_parsing(monkeypatch):
    for value in ("0", "false", "off", "no", "False", "OFF"):
        monkeypatch.setenv("REPRO_VECTOR_EVAL", value)
        assert not vector_eval_enabled()
    for value in ("1", "true", "on", "yes", ""):
        monkeypatch.setenv("REPRO_VECTOR_EVAL", value)
        assert vector_eval_enabled()
    monkeypatch.delenv("REPRO_VECTOR_EVAL")
    assert vector_eval_enabled()  # on by default


# ----------------------------------------------------------------------
# 4. Registries without emitters keep the legacy loop
# ----------------------------------------------------------------------


def all_six_registry() -> OperatorRegistry:
    return OperatorRegistry(
        [Relocate(), Exchange(), TwoOpt(), TwoOptStar(), OrOpt(), SegmentExchange()]
    )


def test_segment_exchange_registry_not_batch_supported():
    assert batch_supported(default_registry())
    assert not batch_supported(all_six_registry())


def test_legacy_fallback_is_knob_invariant(
    small_instance, small_solution, monkeypatch
):
    """Unsupported registries sample identically under either knob."""

    def run(knob):
        monkeypatch.setenv("REPRO_VECTOR_EVAL", knob)
        return sample_neighborhood(
            small_solution,
            25,
            all_six_registry(),
            np.random.default_rng(99),
            Evaluator(small_instance),
        )

    on, off = run("1"), run("0")
    assert len(on) == len(off) == 25
    for a, b in zip(on, off):
        assert a.move == b.move
        assert a.objectives.distance == b.objectives.distance


# ----------------------------------------------------------------------
# 5. Kernel counters through the observability layer
# ----------------------------------------------------------------------


def test_kernel_counters_on_instrumented_search(
    small_instance, quick_params, monkeypatch
):
    # Counts kernel calls, so it needs the kernel on even when the
    # suite runs with the knob off.
    monkeypatch.setenv("REPRO_VECTOR_EVAL", "1")
    result = run_sequential_tsmo(small_instance, quick_params, seed=5, obs=Obs())
    counters = result.metrics["counters"]
    assert counters.get("eval.vector_calls", 0) > 0
    hist = result.metrics["histograms"].get("eval.batch_size")
    assert hist is not None
    assert sum(hist["counts"]) == counters["eval.vector_calls"]


def test_scalar_fallback_counter_on_legacy_loop(small_instance, small_solution):
    obs = Obs()
    evaluator = Evaluator(small_instance)
    evaluator.metrics = obs.metrics
    neighbors = sample_neighborhood(
        small_solution, 20, all_six_registry(), np.random.default_rng(3), evaluator
    )
    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("eval.scalar_fallbacks", 0) == len(neighbors) == 20
    assert "eval.vector_calls" not in counters


# ----------------------------------------------------------------------
# 6. Lazy moves and the deferred cache protocol
# ----------------------------------------------------------------------


def test_lazy_neighbor_builds_move_on_demand(
    small_instance, small_solution, monkeypatch
):
    # Only the kernel defers move builds; pin it on under knob-off runs.
    monkeypatch.setenv("REPRO_VECTOR_EVAL", "1")
    neighbors = sample_neighborhood(
        small_solution,
        30,
        default_registry(),
        np.random.default_rng(11),
        Evaluator(small_instance),
    )
    lazies = [nb for nb in neighbors if isinstance(nb, LazyNeighbor)]
    assert lazies, "kernel neighborhoods should defer most move builds"
    nb = lazies[0]
    assert nb._move is None
    first = nb.move
    assert nb._move is first and nb.move is first  # built once, cached
    child = nb.solution
    assert child.objectives.distance == nb.objectives.distance


def test_lookup_deferred_protocol(small_instance):
    cache = RouteStatsCache(small_instance, capacity=8)
    route = (1, 2, 3)
    # First touch: a counted miss that parks a placeholder.
    assert cache.lookup_deferred(route) is None
    assert cache.misses == 1 and cache.hits == 0
    # Second touch before fulfillment: a counted hit, still pending.
    assert cache.lookup_deferred(route) is None
    assert cache.hits == 1
    st = route_stats(small_instance, route)
    cache.fulfill(route, st)
    assert cache.lookup_deferred(route) is st
    assert cache.lookup(route) is st
    # fulfill never overwrites a real entry.
    cache.fulfill(route, route_stats(small_instance, (3, 2, 1)))
    assert cache.lookup(route) is st
    assert cache.hits + cache.misses == cache.lookups


def test_lookup_deferred_capacity_zero(small_instance):
    cache = RouteStatsCache(small_instance, capacity=0)
    assert cache.lookup_deferred((1, 2)) is None
    assert cache.lookup_deferred((1, 2)) is None
    assert len(cache) == 0
    assert cache.misses == cache.lookups == 2
