"""Tests for the extensions: the multiprocessing backend."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.parallel.mp_backend import (
    MpAsyncParams,
    RemoteMove,
    pickle_roundtrip_sizes,
    run_multiprocessing_async_tsmo,
    run_multiprocessing_tsmo,
)
from repro.parallel.pool import FaultPlan, PoolParams
from repro.core.solution import Solution
from repro.mo.dominance import dominates
from repro.tabu.params import TSMOParams
from repro.tabu.search import run_sequential_tsmo
from repro.vrptw.generator import generate_instance

#: supervision knobs shrunk so injected failures resolve quickly.
FAST_POOL = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R1", 20, seed=55)


@pytest.fixture(scope="module")
def small_params():
    return TSMOParams(max_evaluations=150, neighborhood_size=20, restart_after=6)


@pytest.fixture(scope="module")
def mp_baseline(instance, small_params):
    """A fault-free two-worker run; the fault tests compare against it."""
    return run_multiprocessing_tsmo(instance, small_params, n_workers=2, seed=3)


class TestRemoteMove:
    def test_attribute_preserved(self):
        move = RemoteMove(("relocate", 7))
        assert move.attribute == ("relocate", 7)
        assert move.is_tabu({("relocate", 7)})

    def test_apply_refused(self, instance):
        move = RemoteMove("attr")
        with pytest.raises(SearchError, match="pre-applied"):
            move.apply(None)


class TestMultiprocessing:
    def test_payload_sizes(self, instance):
        sizes = pickle_roundtrip_sizes(instance)
        # The instance payload (with its O(N^2) matrix) dwarfs a routes
        # payload — the reason it ships once via the initializer.
        assert sizes["instance_bytes"] > 20 * sizes["routes_bytes"]

    def test_run_small(self, instance):
        params = TSMOParams(
            max_evaluations=150, neighborhood_size=20, restart_after=6
        )
        result = run_multiprocessing_tsmo(instance, params, n_workers=2, seed=1)
        assert result.algorithm == "multiprocessing"
        assert result.evaluations >= params.max_evaluations
        assert result.best_feasible() is not None
        front = result.front()
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i != j:
                    assert not dominates(front[i], front[j])

    def test_invalid_workers(self, instance):
        with pytest.raises(SearchError):
            run_multiprocessing_tsmo(instance, n_workers=0)

    def test_lockstep_parity_with_sequential(self, instance, small_params):
        """With one worker and one chunk the driver runs in lockstep —
        the worker continues the master's own PCG64 stream — so the run
        is bit-identical to the sequential algorithm, not just close."""
        seq = run_sequential_tsmo(instance, small_params, seed=9)
        par = run_multiprocessing_tsmo(instance, small_params, n_workers=1, seed=9)
        assert np.array_equal(seq.front(), par.front())
        assert seq.evaluations == par.evaluations
        assert seq.iterations == par.iterations
        assert seq.restarts == par.restarts
        report = par.extra["pool"]
        assert report["crashes"] == 0
        assert report["degraded"] is False
        assert report["tasks_completed"] == par.iterations

    def test_worker_objectives_adopted_bit_for_bit(self, mp_baseline, instance):
        """Satellite check: the master keeps the worker-computed
        objectives instead of discarding them — and they must equal an
        eager master-side re-evaluation exactly (per-route statistics
        are a pure function of the route tuple)."""
        assert len(mp_baseline.archive) > 0
        for entry in mp_baseline.archive:
            fresh = Solution(instance, entry.item.routes)
            recomputed = fresh.objectives
            assert recomputed.distance == entry.objectives.distance
            assert recomputed.vehicles == entry.objectives.vehicles
            assert recomputed.tardiness == entry.objectives.tardiness

    def test_pool_report_attached(self, mp_baseline):
        report = mp_baseline.extra["pool"]
        assert report["n_workers"] == 2
        assert report["crashes"] == 0
        assert report["degraded"] is False
        assert report["tasks_completed"] > 0


class TestMultiprocessingFaults:
    def test_injected_crash_keeps_front_bit_identical(
        self, instance, small_params, mp_baseline
    ):
        """Acceptance criterion: kill one worker mid-run; the run
        completes, the front equals the fault-free same-seed run, and
        the pool report records exactly the injected crash, its retry
        and the respawn."""
        plan = FaultPlan(kills=((1, 2, None),))
        faulty = run_multiprocessing_tsmo(
            instance,
            small_params,
            n_workers=2,
            seed=3,
            pool_params=FAST_POOL,
            fault_plan=plan,
        )
        assert np.array_equal(mp_baseline.front(), faulty.front())
        assert faulty.evaluations == mp_baseline.evaluations
        report = faulty.extra["pool"]
        assert report["crashes"] == 1
        assert report["retries"] == 1
        assert report["respawns"] == 1
        assert report["degraded"] is False
        assert report["faults_planned"] == {"kills": 1, "delays": 0}

    def test_total_collapse_degrades_and_completes(
        self, instance, small_params, mp_baseline
    ):
        """Acceptance criterion: every worker killed with a zero respawn
        budget — the driver degrades to master-only execution and still
        returns a valid (and, by deterministic re-seeding, identical)
        result."""
        plan = FaultPlan(kills=((0, 0, None), (1, 0, None)))
        params = PoolParams(
            heartbeat_interval=0.05,
            heartbeat_timeout=10.0,
            task_deadline=10.0,
            backoff_base=0.01,
            respawn_cap=0,
        )
        degraded = run_multiprocessing_tsmo(
            instance,
            small_params,
            n_workers=2,
            seed=3,
            pool_params=params,
            fault_plan=plan,
        )
        report = degraded.extra["pool"]
        assert report["degraded"] is True
        assert report["respawns"] == 0
        assert degraded.evaluations >= small_params.max_evaluations
        assert degraded.best_feasible() is not None
        assert np.array_equal(mp_baseline.front(), degraded.front())


class TestMultiprocessingAsync:
    def test_run_small(self, instance, small_params):
        result = run_multiprocessing_async_tsmo(
            instance,
            small_params,
            n_workers=2,
            seed=4,
            async_params=MpAsyncParams(batch_size=5, max_wait=0.1),
        )
        assert result.algorithm == "multiprocessing_async"
        assert result.evaluations >= small_params.max_evaluations
        assert result.best_feasible() is not None
        assert result.extra["mean_pool_size"] > 0
        assert result.extra["carryover_neighbors"] >= 0
        assert result.extra["pool"]["crashes"] == 0
        front = result.front()
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i != j:
                    assert not dominates(front[i], front[j])

    def test_params_validation(self):
        with pytest.raises(SearchError):
            MpAsyncParams(batch_size=0)
        with pytest.raises(SearchError):
            MpAsyncParams(max_wait=-1.0)

    def test_invalid_workers(self, instance):
        with pytest.raises(SearchError):
            run_multiprocessing_async_tsmo(instance, n_workers=0)
