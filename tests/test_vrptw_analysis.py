"""Tests for the instance structural-analysis tools."""

import numpy as np
import pytest

from repro.vrptw.analysis import (
    clustering_score,
    compatibility_density,
    compatibility_graph,
    describe,
    fleet_lower_bounds,
    window_stats,
)
from repro.vrptw.generator import generate_instance


@pytest.fixture(scope="module")
def r1():
    return generate_instance("R1", 40, seed=3)


@pytest.fixture(scope="module")
def r2():
    return generate_instance("R2", 40, seed=3)


@pytest.fixture(scope="module")
def c1():
    return generate_instance("C1", 40, seed=3)


class TestWindowStats:
    def test_basic_fields(self, r1):
        ws = window_stats(r1)
        assert 0 < ws.mean_width < ws.horizon
        assert 0 <= ws.overlap_fraction <= 1
        assert ws.horizon == r1.horizon

    def test_type2_relatively_wider(self, r1, r2):
        # Type-2 windows are wider in absolute terms; relative to their
        # longer horizon they stay comparable, so test absolute widths.
        assert window_stats(r2).mean_width > 2 * window_stats(r1).mean_width

    def test_overlap_higher_for_wide_windows(self, r1, r2):
        assert window_stats(r2).overlap_fraction > window_stats(r1).overlap_fraction


class TestCompatibilityGraph:
    def test_graph_shape(self, r1):
        g = compatibility_graph(r1)
        assert g.shape == (r1.n_sites, r1.n_sites)
        assert g.dtype == bool
        # Only customer pairs carry edges: no self-loops, no depot.
        assert not g.diagonal().any()
        assert not g[0].any() and not g[:, 0].any()

    def test_edges_match_criterion(self, r1):
        from repro.core.operators.feasibility import edge_admissible

        g = compatibility_graph(r1)
        customers = range(1, r1.n_customers + 1)
        expected = np.zeros_like(g)
        for u in customers:
            for v in customers:
                expected[u, v] = u != v and edge_admissible(r1, u, v)
        assert np.array_equal(g, expected)

    def test_density_bounds(self, r1):
        assert 0.0 <= compatibility_density(r1) <= 1.0

    def test_wide_windows_denser(self, r1, r2):
        assert compatibility_density(r2) > compatibility_density(r1)

    def test_single_customer(self):
        inst = generate_instance("R1", 1, seed=1)
        assert compatibility_density(inst) == 1.0


class TestClusteringScore:
    def test_clustered_scores_lower(self, r1, c1):
        assert clustering_score(c1) < clustering_score(r1)

    def test_scale_free(self):
        small = generate_instance("R1", 30, seed=9)
        large = generate_instance("R1", 120, seed=9)
        # Same geometry class: scores comparable across sizes (they are
        # density-dependent — larger n lowers NN distance, so allow a
        # generous band rather than equality).
        assert 0.2 < clustering_score(small) / max(clustering_score(large), 1e-9) < 5


class TestFleetBounds:
    def test_bounds_are_lower_bounds(self, r1):
        from repro.core.construction import i1_construct

        bounds = fleet_lower_bounds(r1)
        solution = i1_construct(r1, rng=1)
        assert solution.n_routes >= bounds["capacity"]
        # The temporal bound may be loose but never exceeds a feasible
        # construction's vehicle count when that construction is
        # tardiness-free.
        if solution.objectives.feasible:
            assert solution.n_routes >= bounds["temporal"]

    def test_capacity_bound_value(self, r1):
        assert fleet_lower_bounds(r1)["capacity"] == r1.min_vehicles_by_capacity


class TestDescribe:
    def test_contains_key_facts(self, r1):
        text = describe(r1)
        assert r1.name in text
        assert "horizon" in text
        assert "lower bounds" in text
