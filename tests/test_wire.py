"""Tests for the zero-copy pool transport.

Three layers, separately falsifiable:

* the wire codecs (``repro.parallel.wire``) — hypothesis round-trip
  properties on synthetic payloads plus an equivalence check against
  real operator moves;
* the shared-memory instance broadcast (``repro.parallel.shm``) —
  attach fidelity in-process, and subprocess leak checks (clean
  shutdown *and* a SIGKILL-induced respawn must leave no segment and
  no resource-tracker complaint), plus the pickling fallback when no
  segment can be created;
* end-to-end transport — delta tasks in steady state and full
  re-encoding after a worker crash.
"""

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator
from repro.core.operators.registry import default_registry
from repro.parallel.mp_backend import run_multiprocessing_tsmo
from repro.parallel.pool import FaultPlan, PoolParams, WorkerPool
from repro.parallel.shm import share_instance
from repro.parallel.wire import (
    WireBatch,
    WireRoutes,
    WireTaskDelta,
    diff_routes,
    wire_cost,
)
from repro.tabu.params import TSMOParams
from repro.tabu.search import run_sequential_tsmo
from repro.vrptw.generator import generate_instance

FAST = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R1", 20, seed=55)


@pytest.fixture(scope="module")
def routes(instance):
    return i1_construct(instance, rng=1).routes


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
sites = st.integers(min_value=0, max_value=2**40)  # exercises h/i/q dtypes
route_strategy = st.lists(sites, min_size=0, max_size=8).map(tuple)
routes_strategy = st.lists(route_strategy, min_size=0, max_size=10).map(tuple)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
attr_strategy = st.one_of(
    st.tuples(st.sampled_from(["relocate", "2opt*", "segx"]), st.integers(0, 2**33)),
    st.tuples(
        st.sampled_from(["2opt", "exchange", "oropt"]),
        st.frozensets(st.integers(0, 10_000), max_size=6),
    ),
    st.tuples(st.just("custom-op"), st.integers(0, 500)),  # per-batch name table
    st.text(max_size=8),  # escape hatch
    st.tuples(st.just("weird"), st.text(max_size=4)),  # escape hatch
)


def reference_derive(parent, replacements, added):
    """Independent reimplementation of ``Solution.derive`` route algebra."""
    out = []
    for k, route in enumerate(parent):
        if k in replacements:
            if replacements[k]:
                out.append(tuple(replacements[k]))
        else:
            out.append(tuple(route))
    out.extend(tuple(r) for r in added if r)
    return tuple(out)


@st.composite
def batch_items(draw):
    """A parent plus WireBatch-encodable edit items against it."""
    parent = draw(routes_strategy)
    n = draw(st.integers(1, 6))
    items = []
    for _ in range(n):
        indices = (
            draw(
                st.lists(
                    st.integers(0, len(parent) - 1), max_size=3, unique=True
                )
            )
            if parent
            else []
        )
        replacements = {i: draw(route_strategy) for i in indices}
        added = tuple(draw(st.lists(route_strategy, max_size=2)))
        child = reference_derive(parent, replacements, added)
        objective = (draw(finite), len(child), draw(finite))
        items.append((replacements, added, objective, draw(attr_strategy)))
    return parent, items


# ----------------------------------------------------------------------
# WireRoutes
# ----------------------------------------------------------------------
class TestWireRoutes:
    @settings(max_examples=80, deadline=None)
    @given(r=routes_strategy)
    def test_roundtrip_property(self, r):
        decoded = WireRoutes.encode(r).decode()
        assert decoded == r
        assert all(type(c) is int for route in decoded for c in route)

    def test_real_solution_roundtrip(self, routes):
        assert WireRoutes.encode(routes).decode() == routes

    def test_smaller_than_naive_int32(self, routes):
        # 20 customers fit int16; the adaptive dtype must pick it.
        blob = WireRoutes.encode(routes).blob
        n_sites = sum(len(r) for r in routes)
        assert len(blob) < 4 * n_sites + 4 * len(routes) + 32

    def test_survives_pickle(self, routes):
        wired = pickle.loads(pickle.dumps(WireRoutes.encode(routes)))
        assert wired.decode() == routes


# ----------------------------------------------------------------------
# WireBatch
# ----------------------------------------------------------------------
class TestWireBatch:
    @settings(max_examples=80, deadline=None)
    @given(case=batch_items())
    def test_roundtrip_property(self, case):
        parent, items = case
        triples = WireBatch.encode(items).decode(parent)
        assert len(triples) == len(items)
        for (replacements, added, objective, attr), triple in zip(items, triples):
            child, obj, got_attr = triple
            assert child == reference_derive(parent, replacements, added)
            assert obj == (objective[0], len(child), objective[2])
            assert got_attr == attr

    def test_matches_real_moves(self, instance):
        """Codec output equals what move.apply would have shipped."""
        solution = i1_construct(instance, rng=3)
        registry = default_registry()
        evaluator = Evaluator(instance)
        rng = np.random.default_rng(7)
        items, expected = [], []
        while len(items) < 40:
            move = registry.draw_move(solution, rng)
            if move is None:
                continue
            obj = evaluator.evaluate_move(solution, move)
            objective = (obj.distance, obj.vehicles, obj.tardiness)
            replacements, added = move.route_edits(solution)
            items.append((replacements, added, objective, move.attribute))
            expected.append(
                (move.apply(solution).routes, objective, move.attribute)
            )
        decoded = WireBatch.encode(items).decode(solution.routes)
        for got, want in zip(decoded, expected):
            assert got[0] == want[0]  # identical child routes
            assert got[1] == want[1]  # identical objective floats
            assert got[2] == want[2]  # equal tabu attribute

    def test_survives_pickle(self, instance):
        solution = i1_construct(instance, rng=3)
        items = [({0: solution.routes[0][1:]}, (), (1.5, len(solution.routes), 0.0), ("relocate", 4))]
        batch = pickle.loads(pickle.dumps(WireBatch.encode(items)))
        triples = batch.decode(solution.routes)
        assert triples[0][2] == ("relocate", 4)


# ----------------------------------------------------------------------
# Task deltas
# ----------------------------------------------------------------------
class TestDiffRoutes:
    @settings(max_examples=80, deadline=None)
    @given(case=batch_items())
    def test_found_delta_reconstructs_exactly(self, case):
        parent, items = case
        for replacements, added, _, _ in items:
            child = reference_derive(parent, replacements, added)
            delta = diff_routes(parent, child)
            if delta is not None:
                assert delta.apply(parent) == child

    def test_single_move_delta(self, instance, routes):
        solution = i1_construct(instance, rng=1)
        registry = default_registry()
        rng = np.random.default_rng(5)
        move = None
        while move is None:
            move = registry.draw_move(solution, rng)
        child = move.apply(solution).routes
        delta = diff_routes(solution.routes, child)
        assert delta is not None
        assert delta.apply(solution.routes) == child
        # The delta only carries the touched routes, not the whole plan.
        assert len(delta.replacements) + len(delta.added) < len(child)

    def test_identity_delta(self, routes):
        delta = diff_routes(routes, routes)
        assert delta is not None
        assert delta.replacements == () and delta.added == ()

    def test_unrelated_routes_fall_back(self):
        parent = tuple((i, i + 1) for i in range(0, 20, 2))
        child = tuple((i + 100, i + 101) for i in range(0, 20, 2))
        assert diff_routes(parent, child) is None


# ----------------------------------------------------------------------
# Shared-memory broadcast
# ----------------------------------------------------------------------
class TestSharedInstance:
    def test_attach_fidelity(self, instance):
        shared = share_instance(instance)
        try:
            attached, shm = shared.ref.attach()
            try:
                for field in (
                    "x",
                    "y",
                    "demand",
                    "ready_time",
                    "due_date",
                    "service_time",
                    "travel",
                ):
                    np.testing.assert_array_equal(
                        getattr(attached, field), getattr(instance, field)
                    )
                assert attached.name == instance.name
                assert attached.capacity == instance.capacity
                assert attached.n_vehicles == instance.n_vehicles
                # The list views the hot path walks must match too.
                assert attached._travel_rows == instance._travel_rows
                assert attached._depart_l == instance._depart_l
            finally:
                shm.close()
        finally:
            shared.destroy()

    def test_ref_is_tiny(self, instance):
        shared = share_instance(instance)
        try:
            ref_bytes = len(pickle.dumps(shared.ref))
            assert ref_bytes < 512
            assert len(pickle.dumps(instance)) > 10 * ref_bytes
        finally:
            shared.destroy()

    def test_destroy_is_idempotent(self, instance):
        shared = share_instance(instance)
        shared.destroy()
        shared.destroy()  # must not raise

    def test_pool_unlinks_segment_on_close(self, instance, routes):
        from multiprocessing import shared_memory

        with WorkerPool(instance, 1, params=FAST) as pool:
            assert pool._shared is not None
            name = pool._shared.ref.segment
            tid = pool.submit(routes, 4, seed=5, iteration=1)
            pool.gather([tid])
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_shm_failure_falls_back_to_pickling(self, instance, monkeypatch):
        """With no segment to be had (e.g. /dev/shm full) the pool
        pickles the instance into every spawn, and the search is
        unchanged: lockstep still equals the sequential oracle."""
        import repro.parallel.pool as pool_mod

        def no_segment(_instance):
            raise OSError("no space left on device")

        monkeypatch.setattr(pool_mod, "share_instance", no_segment)
        params = TSMOParams(max_evaluations=150, neighborhood_size=20, restart_after=6)
        seq = run_sequential_tsmo(instance, params, seed=9)
        par = run_multiprocessing_tsmo(
            instance, params, n_workers=1, seed=9, pool_params=FAST
        )
        assert par.extra["pool"]["transport"]["shared_instance"] is False
        assert np.array_equal(seq.front(), par.front())
        assert seq.evaluations == par.evaluations
        assert seq.iterations == par.iterations

    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "sigkill"])
    def test_no_leak_subprocess(self, crash, tmp_path):
        """No segment and no resource-tracker complaint at exit.

        Resource-tracker leak warnings only fire at interpreter
        shutdown, so the check needs a real subprocess — one per mode:
        a clean run, and a run whose worker is SIGKILLed mid-life (the
        respawn re-attaches; neither the kill nor the respawn may leak
        or double-unregister the segment).
        """
        script = textwrap.dedent(
            f"""
            import os, signal, time
            from multiprocessing import shared_memory
            from repro.core.construction import i1_construct
            from repro.parallel.pool import PoolParams, WorkerPool
            from repro.vrptw.generator import generate_instance

            instance = generate_instance("R1", 20, seed=55)
            routes = i1_construct(instance, rng=1).routes
            params = PoolParams(
                heartbeat_interval=0.05, heartbeat_timeout=10.0,
                task_deadline=10.0, backoff_base=0.01,
            )
            crash = {crash!r}
            with WorkerPool(instance, 1, params=params) as pool:
                name = pool._shared.ref.segment
                tid = pool.submit(routes, 4, seed=5, iteration=1)
                pool.gather([tid])
                if crash:
                    os.kill(pool._slots[0].process.pid, signal.SIGKILL)
                    tid = pool.submit(routes, 4, seed=6, iteration=2)
                    pool.gather([tid])  # respawned worker re-attaches
                    assert pool.report()["crashes"] == 1
            try:
                shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                print("SEGMENT-GONE")
            else:
                raise SystemExit("segment leaked")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=180,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SEGMENT-GONE" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


# ----------------------------------------------------------------------
# End-to-end transport behavior
# ----------------------------------------------------------------------
class TestTransportEndToEnd:
    def test_delta_tasks_take_over_in_steady_state(self, instance):
        """Consecutive submits to the same worker ship deltas."""
        solution = i1_construct(instance, rng=1)
        registry = default_registry()
        rng = np.random.default_rng(2)
        move = None
        while move is None:
            move = registry.draw_move(solution, rng)
        child = move.apply(solution)
        with WorkerPool(instance, 1, params=FAST) as pool:
            t1 = pool.submit(solution.routes, 4, seed=1, iteration=1)
            pool.gather([t1])
            t2 = pool.submit(child.routes, 4, seed=2, iteration=2)
            pool.gather([t2])
            report = pool.report()
        transport = report["transport"]
        assert transport["shared_instance"] is True
        assert transport["full_tasks"] == 1  # first dispatch: no base yet
        assert transport["delta_tasks"] == 1  # second rides the delta
        assert transport["wire_batches"] >= 2
        assert transport["wire_batch_bytes"] > 0

    def test_codec_survives_worker_crash(self, instance, routes):
        """A respawned worker has no delta base: retry must go full."""
        from repro.core.evaluation import Evaluator as Ev

        plan = FaultPlan(kills=((0, 1, None),))  # die on the second task
        with WorkerPool(instance, 1, params=FAST, fault_plan=plan) as pool:
            t1 = pool.submit(routes, 6, seed=4, iteration=1)
            first = pool.gather([t1])[t1]
            t2 = pool.submit(routes, 6, seed=5, iteration=2)
            second = pool.gather([t2])[t2]
            report = pool.report()
        assert report["crashes"] == 1 and report["respawns"] == 1
        # Both tasks produced the deterministic ground truth despite the
        # delta dispatch being killed and re-encoded in full.
        from tests.test_pool import run_on_master

        assert first.neighbors == run_on_master(instance, routes, 6, seed=4)
        assert second.neighbors == run_on_master(instance, routes, 6, seed=5)


class TestWireCost:
    def test_report_shape_and_ratios(self, instance):
        report = wire_cost(instance, neighborhood=40, batch_size=10, seed=0)
        assert report["task_bytes_pickle"] > 0
        assert report["batch_ratio"] > 1.0
        assert report["instance_ratio"] > 100.0
        assert report["iteration_bytes_wire"] < report["iteration_bytes_pickle"]


# ----------------------------------------------------------------------
# Instance wire codec + the refcounted multi-segment store
# ----------------------------------------------------------------------
class TestInstanceWire:
    def test_round_trip_is_content_identical(self, instance):
        from repro.parallel.shm import instance_fingerprint
        from repro.parallel.wire import instance_from_wire, instance_to_wire

        back = instance_from_wire(instance_to_wire(instance))
        assert back.name == instance.name
        assert back.n_sites == instance.n_sites
        # Travel is *recomputed* from coordinates, and JSON float
        # round-trips are exact, so the rebuilt matrix is bit-identical.
        assert np.array_equal(np.asarray(back.travel), np.asarray(instance.travel))
        assert instance_fingerprint(back) == instance_fingerprint(instance)

    def test_survives_json(self, instance):
        import json

        from repro.parallel.shm import instance_fingerprint
        from repro.parallel.wire import instance_from_wire, instance_to_wire

        wire = json.loads(json.dumps(instance_to_wire(instance)))
        assert instance_fingerprint(instance_from_wire(wire)) == instance_fingerprint(
            instance
        )

    def test_fingerprint_covers_travel(self, instance):
        """A hand-edited travel matrix must not collide with the
        euclidean one its coordinates imply."""
        from repro.parallel.shm import instance_fingerprint
        from repro.vrptw.instance import Instance

        doctored = np.array(instance.travel, dtype=np.float64, copy=True)
        doctored[1, 2] += 1.0
        forged = Instance.from_validated_arrays(
            name=instance.name,
            capacity=instance.capacity,
            n_vehicles=instance.n_vehicles,
            x=np.asarray(instance.x, dtype=np.float64),
            y=np.asarray(instance.y, dtype=np.float64),
            demand=np.asarray(instance.demand, dtype=np.float64),
            ready_time=np.asarray(instance.ready_time, dtype=np.float64),
            due_date=np.asarray(instance.due_date, dtype=np.float64),
            service_time=np.asarray(instance.service_time, dtype=np.float64),
            travel=doctored,
        )
        assert instance_fingerprint(forged) != instance_fingerprint(instance)

    def test_fingerprint_normalizes_capacity_type(self, instance):
        """int-vs-float capacity (the wire codec coerces to float) must
        not change the fingerprint of otherwise-identical instances."""
        from repro.parallel.shm import instance_fingerprint
        from repro.parallel.wire import instance_from_wire, instance_to_wire

        wire = instance_to_wire(instance)
        assert isinstance(wire["capacity"], float)
        assert instance_fingerprint(instance_from_wire(wire)) == instance_fingerprint(
            instance
        )


class TestSharedInstanceStore:
    def test_dedupes_by_content_and_refcounts(self, instance):
        from repro.parallel.shm import SharedInstanceStore, instance_fingerprint
        from repro.parallel.wire import instance_from_wire, instance_to_wire

        fp = instance_fingerprint(instance)
        twin = instance_from_wire(instance_to_wire(instance))  # equal content
        other = generate_instance("C1", 16, seed=7)
        store = SharedInstanceStore()
        try:
            ref_a = store.acquire(instance, "job-a")
            ref_b = store.acquire(twin, "job-b")
            assert ref_a.segment == ref_b.segment
            assert store.segment_count() == 1
            store.acquire(other, "job-b")
            assert store.segment_count() == 2
            # Releases: last owner out unlinks, earlier ones do not.
            assert store.release(fp, "job-a") is False
            assert store.release(fp, "job-b") is True
            assert store.segment_count() == 1
        finally:
            store.close()
        assert store.segment_count() == 0

    def test_release_is_idempotent_and_unknown_safe(self, instance):
        from repro.parallel.shm import SharedInstanceStore, instance_fingerprint

        store = SharedInstanceStore()
        try:
            fp = instance_fingerprint(instance)
            store.acquire(instance, "job-a")
            assert store.release(fp, "nobody") is False
            assert store.release(fp, "job-a") is True
            assert store.release(fp, "job-a") is False  # double release
            assert store.release("no-such-fp", "job-a") is False
        finally:
            store.close()

    def test_acquire_after_close_refuses(self, instance):
        from repro.parallel.shm import SharedInstanceStore

        store = SharedInstanceStore()
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            store.acquire(instance, "job-a")

    def test_segment_actually_unlinked(self, instance):
        from multiprocessing import shared_memory

        from repro.parallel.shm import SharedInstanceStore, instance_fingerprint

        store = SharedInstanceStore()
        ref = store.acquire(instance, "job-a")
        store.release(instance_fingerprint(instance), "job-a")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment)
        store.close()

    def test_scheduler_startup_failure_unlinks_segments_subprocess(self):
        """The second bugfix this PR carries: a scheduler whose start()
        dies *after* the pool shared its instance (here: a corrupt
        ledger raising during recovery) must unlink every segment on
        the way out — nobody will ever call close() on a scheduler
        that never finished starting."""
        script = textwrap.dedent(
            """
            import asyncio, tempfile
            from multiprocessing import shared_memory
            from pathlib import Path

            import repro.parallel.pool as pool_mod
            from repro.errors import LedgerError
            from repro.parallel.pool import PoolParams
            from repro.serve.scheduler import SolveScheduler
            from repro.vrptw.generator import generate_instance

            # Record every segment the pool broadcasts so we can prove
            # each one is unlinked after the startup failure.
            created = []
            orig_share = pool_mod.share_instance

            def recording_share(instance):
                handle = orig_share(instance)
                created.append(handle.ref.segment)
                return handle

            pool_mod.share_instance = recording_share

            instance = generate_instance("R1", 20, seed=55)
            params = PoolParams(
                heartbeat_interval=0.05, heartbeat_timeout=10.0,
                task_deadline=10.0, backoff_base=0.01,
            )
            ckpt = Path(tempfile.mkdtemp())
            # Corrupt mid-file (not a torn tail): recovery must raise.
            (ckpt / "serve_ledger.jsonl").write_text(
                "this is not json\\n{\\"also\\": \\"not a ledger entry\\"}\\n"
            )

            async def main():
                scheduler = SolveScheduler(
                    instance, n_workers=1, pool_params=params,
                    checkpoint_dir=ckpt,
                )
                try:
                    scheduler.start()
                except LedgerError:
                    pass
                else:
                    raise SystemExit("corrupt ledger did not raise")
                assert scheduler._pool is None, "startup must tear down the pool"

            asyncio.run(main())
            assert created, "the pool never shared its instance"
            for name in created:
                try:
                    shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    pass
                else:
                    raise SystemExit(f"segment {name} leaked")
            print("SEGMENT-GONE")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=180,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SEGMENT-GONE" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
