"""Tests of the unified observability layer (repro.obs).

Three concerns, in order of importance:

1. **Determinism guard** — enabling full metrics/tracing/profiling
   must not change any search trajectory.  Every driver runs seeded
   twice, once with :data:`NULL_OBS` and once with a live bundle, and
   the objective fronts and accounting must be bit-identical.  This is
   the cardinal rule of the subsystem: instrumentation observes, it
   never steers.
2. **Checkpoint integration** — registry/profiler state rides in
   engine snapshots, so a crash+resume run reports cumulative totals
   equal to an uninterrupted instrumented run.
3. **Component semantics** — registry arithmetic (merge, histograms),
   tracer envelope/ring/ingest behavior, sink durability format and
   the ``repro.obs.validate`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CrashInjected, ObsError
from repro.obs import (
    EVENT_TYPES,
    EventTracer,
    JsonlEventSink,
    MetricsRegistry,
    NULL_OBS,
    NULL_REGISTRY,
    NullProfiler,
    Obs,
    PhaseProfiler,
    format_profile_table,
    parse_timestamp,
    utc_timestamp,
)
from repro.obs.validate import main as validate_main, validate_event, validate_file
from repro.parallel.async_ts import AsyncParams, run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.collab_ts import CollabParams, run_collaborative_tsmo
from repro.parallel.hybrid_ts import HybridParams, run_hybrid_tsmo
from repro.parallel.sync_ts import run_synchronous_tsmo
from repro.persistence import CheckpointPolicy
from repro.tabu.search import run_sequential_tsmo
from repro.tabu.trace import TrajectoryRecorder

DRIVERS = [
    "sequential",
    "sequential-sim",
    "synchronous",
    "asynchronous",
    "collaborative",
    "hybrid",
]


def run_driver(driver, instance, params, seed, *, checkpoint=None, obs=NULL_OBS):
    if driver == "sequential":
        return run_sequential_tsmo(
            instance, params, seed=seed, checkpoint=checkpoint, obs=obs
        )
    if driver == "sequential-sim":
        return run_sequential_simulated(
            instance, params, seed=seed, checkpoint=checkpoint, obs=obs
        )
    if driver == "synchronous":
        return run_synchronous_tsmo(
            instance, params, 3, seed, checkpoint=checkpoint, obs=obs
        )
    if driver == "asynchronous":
        return run_asynchronous_tsmo(
            instance,
            params,
            3,
            seed,
            async_params=AsyncParams(batch_size=8),
            checkpoint=checkpoint,
            obs=obs,
        )
    if driver == "collaborative":
        return run_collaborative_tsmo(
            instance,
            params,
            3,
            seed,
            collab_params=CollabParams(initial_phase_patience=3),
            checkpoint=checkpoint,
            obs=obs,
        )
    if driver == "hybrid":
        # No checkpoint support: only the per-driver tests run it.
        return run_hybrid_tsmo(
            instance,
            params,
            HybridParams(n_islands=2, procs_per_island=3, initial_phase_patience=3),
            seed,
            obs=obs,
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


# ----------------------------------------------------------------------
# 1. Determinism guard
# ----------------------------------------------------------------------
class TestDeterminismGuard:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_instrumentation_never_steers(
        self, driver, small_instance, quick_params
    ):
        plain = run_driver(driver, small_instance, quick_params, seed=31)
        obs = Obs()
        instrumented = run_driver(
            driver, small_instance, quick_params, seed=31, obs=obs
        )
        assert fingerprint(instrumented) == fingerprint(plain)
        # ... and the instrumented run actually recorded something.
        assert instrumented.metrics is not None
        assert instrumented.profile is not None
        assert instrumented.metrics["counters"].get("search.iterations", 0) > 0
        assert instrumented.profile["phases"]
        assert plain.metrics is None and plain.profile is None

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_events_emitted_per_driver(self, driver, small_instance, quick_params):
        obs = Obs()
        run_driver(driver, small_instance, quick_params, seed=31, obs=obs)
        types = {event["type"] for event in obs.tracer.events()}
        assert "iteration" in types
        assert "move_applied" in types
        assert types <= EVENT_TYPES


# ----------------------------------------------------------------------
# 2. Checkpoint integration: cumulative totals across crash+resume
# ----------------------------------------------------------------------
class TestCheckpointCumulative:
    @pytest.mark.parametrize("driver", ["sequential", "sequential-sim"])
    def test_resumed_metrics_cover_whole_run(
        self, driver, small_instance, quick_params, tmp_path
    ):
        oracle_obs = Obs()
        oracle = run_driver(
            driver,
            small_instance,
            quick_params,
            seed=13,
            checkpoint=CheckpointPolicy(tmp_path / "oracle.ckpt", every=100),
            obs=oracle_obs,
        )
        path = tmp_path / "crash.ckpt"
        with pytest.raises(CrashInjected):
            run_driver(
                driver,
                small_instance,
                quick_params,
                seed=13,
                checkpoint=CheckpointPolicy(path, every=100, crash_after=180),
                obs=Obs(),
            )
        resumed_obs = Obs()
        resumed = run_driver(
            driver,
            small_instance,
            quick_params,
            seed=13,
            checkpoint=CheckpointPolicy(path, every=100, resume=True),
            obs=resumed_obs,
        )
        assert fingerprint(resumed) == fingerprint(oracle)
        # Counters are restored from the snapshot and continued, so the
        # resumed run reports totals over the whole logical run.
        assert resumed.metrics["counters"] == oracle.metrics["counters"]
        if driver == "sequential-sim":
            # Simulated-unit phase totals are deterministic too.
            assert resumed.profile == oracle.profile

    def test_obs_state_absent_is_fine(self, small_instance, quick_params, tmp_path):
        # A snapshot written by an uninstrumented run resumes cleanly
        # under an instrumented one (and vice versa).
        path = tmp_path / "plain.ckpt"
        with pytest.raises(CrashInjected):
            run_driver(
                "sequential-sim",
                small_instance,
                quick_params,
                seed=13,
                checkpoint=CheckpointPolicy(path, every=100, crash_after=180),
            )
        resumed = run_driver(
            "sequential-sim",
            small_instance,
            quick_params,
            seed=13,
            checkpoint=CheckpointPolicy(path, every=100, resume=True),
            obs=Obs(),
        )
        oracle = run_driver(
            "sequential-sim",
            small_instance,
            quick_params,
            seed=13,
            checkpoint=CheckpointPolicy(tmp_path / "oracle.ckpt", every=100),
        )
        assert fingerprint(resumed) == fingerprint(oracle)


# ----------------------------------------------------------------------
# 3a. Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        m.gauge("g", 7.5)
        snap = m.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 7.5
        assert set(snap) == {"counters", "gauges", "histograms"}

    def test_histogram_buckets(self):
        m = MetricsRegistry()
        for v in (0.5, 1.5, 99.0):
            m.observe("h", v, buckets=(1.0, 10.0))
        snap = m.snapshot()["histograms"]["h"]
        assert snap["counts"] == [1, 1, 1]  # <=1, <=10, +inf
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(101.0)

    def test_merge_state_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.gauge("g", 1.0)
        b.gauge("g", 9.0)
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 2.0, buckets=(1.0,))
        a.merge_state(b.export_state())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 9.0  # last writer wins
        assert snap["histograms"]["h"]["count"] == 2

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 0.5, buckets=(2.0,))
        with pytest.raises(ObsError) as excinfo:
            a.merge_state(b.export_state())
        # The error names the histogram and *both* bucket sets, so the
        # operator can see which worker disagreed about the grid.
        message = str(excinfo.value)
        assert "'h'" in message
        assert "(1.0,)" in message and "(2.0,)" in message
        # Nothing was partially merged for the offending histogram.
        assert a.snapshot()["histograms"]["h"]["count"] == 1

    def test_restore_replaces(self):
        a = MetricsRegistry()
        a.inc("c", 2)
        state = a.export_state()
        a.inc("c", 100)
        a.restore_state(state)
        assert a.counter("c") == 2
        # Restoring twice is idempotent (the collaborative driver
        # restores the shared bundle once per searcher).
        a.restore_state(state)
        assert a.counter("c") == 2
        # Older checkpoints also carry a "timers" series: still restores
        # and merges, the key ignored.
        legacy = {**state, "timers": {"t": {"seconds": 1.0, "count": 1, "max": 1.0}}}
        a.restore_state(legacy)
        a.merge_state(legacy)
        assert a.counter("c") == 4
        assert "timers" not in a.snapshot()

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.inc("x")
        NULL_REGISTRY.gauge("x", 1.0)
        NULL_REGISTRY.observe("x", 1.0)
        assert NULL_REGISTRY.enabled is False
        snap = NULL_REGISTRY.snapshot()
        assert all(not v for v in snap.values())


# ----------------------------------------------------------------------
# 3b. Event tracer + sink + validation
# ----------------------------------------------------------------------
class TestEventTracer:
    def test_envelope_and_ring(self):
        tracer = EventTracer(span="main", ring_size=4)
        for i in range(6):
            tracer.emit("iteration", iteration=i, evaluations=i, archive_size=0)
        events = tracer.events()
        assert len(events) == 4  # bounded ring keeps the tail
        assert [e["iteration"] for e in events] == [2, 3, 4, 5]
        assert all(e["span"] == "main" and e["run"] for e in events)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_unknown_type_rejected(self):
        tracer = EventTracer()
        with pytest.raises(ValueError):
            tracer.emit("not_a_type", foo=1)

    def test_ingest_rewrites_envelope(self):
        worker = EventTracer(span="worker-3")
        worker.emit("worker_task", worker=3, task_id=9, neighbors=20)
        master = EventTracer(span="main")
        master.emit("iteration", iteration=1, evaluations=10, archive_size=1)
        master.ingest(worker.drain())
        last = master.events()[-1]
        assert last["type"] == "worker_task"
        assert last["span"] == "worker-3"  # provenance preserved
        assert last["run"] == master.run_id  # identity rewritten
        assert last["wseq"] == 1
        seqs = [e["seq"] for e in master.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert worker.events() == []  # drained

    def test_sink_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlEventSink(path, "runid123") as sink:
            tracer = EventTracer("runid123", sink=sink)
            tracer.emit("iteration", iteration=1, evaluations=10, archive_size=1)
            tracer.emit(
                "decision_fired", iteration=1, reason="c1,c3", pool=12
            )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert lines[0]["run"] == "runid123"
        parse_timestamp(lines[0]["written_at"])  # ISO-8601 UTC
        ok, errors = validate_file(path)
        assert (ok, errors) == (3, [])

    def test_validate_rejects_bad_events(self, tmp_path):
        assert validate_event({"type": "nope"}) is not None
        assert (
            validate_event(
                {"type": "iteration", "seq": 1, "run": "r", "span": "s"}
            )
            is not None  # missing payload fields
        )
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "run": "r", "format": 1, "written_at": "x"})
            + "\n"
            + "{not json}\n"
            + json.dumps(
                {
                    "type": "iteration",
                    "seq": 1,
                    "run": "r",
                    "span": "s",
                    "iteration": 1,
                    "evaluations": 5,
                    "archive_size": 0,
                }
            )
            + "\n"
        )
        ok, errors = validate_file(path)
        assert len(errors) == 1  # mid-file garbage is an error

    def test_validate_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps(
                {
                    "type": "iteration",
                    "seq": 1,
                    "run": "r",
                    "span": "s",
                    "iteration": 1,
                    "evaluations": 5,
                    "archive_size": 0,
                }
            )
            + '\n{"type": "iterat'  # crash mid-append
        )
        ok, errors = validate_file(path)
        assert (ok, errors) == (1, [])

    def test_validate_cli(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        with JsonlEventSink(good, "r1") as sink:
            EventTracer("r1", sink=sink).emit(
                "checkpoint", kind="engine", iteration=5
            )
        assert validate_main([str(tmp_path)]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "wat"}\n{"also": "bad"}\n')
        assert validate_main([str(tmp_path)]) == 1
        assert validate_main([str(tmp_path / "missing-dir-glob")]) in (1, 2)


# ----------------------------------------------------------------------
# 3c. Phase profiler
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_accumulates_and_summarizes(self):
        p = PhaseProfiler("simulated")
        p.add("evaluate", 2.0)
        p.add("evaluate", 1.0)
        p.add("wait", 0.5)
        summary = p.summary()
        assert summary["unit"] == "simulated"
        assert summary["phases"]["evaluate"] == {"total": 3.0, "count": 2}
        assert p.total("evaluate") == pytest.approx(3.0)
        assert p.total("wait") == pytest.approx(0.5)

    def test_time_context(self):
        p = PhaseProfiler()
        with p.time("select"):
            pass
        assert p.summary()["phases"]["select"]["count"] == 1

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfiler("fortnights")

    def test_non_canonical_phases_sort_after(self):
        # Drivers may add extra phases (e.g. "checkpoint"); they render
        # after the canonical ones rather than being rejected.
        p = PhaseProfiler()
        p.add("zebra", 1.0)
        p.add("wait", 1.0)
        assert list(p.summary()["phases"]) == ["wait", "zebra"]

    def test_restore_and_merge(self):
        a = PhaseProfiler("simulated")
        a.add("evaluate", 2.0)
        b = PhaseProfiler("simulated")
        b.restore_state(a.export_state())
        b.merge_state(a.export_state())
        assert b.summary()["phases"]["evaluate"]["total"] == 4.0

    def test_null_profiler_contexts(self):
        p = NullProfiler()
        with p.time("select"):
            pass
        p.add("evaluate", 1.0)
        assert p.enabled is False

    def test_format_table(self):
        p = PhaseProfiler("simulated")
        p.add("evaluate", 1.0)
        table = format_profile_table({"seq": p.summary()})
        assert "seq [simulated]" in table
        assert "evaluate" in table and "total" in table


# ----------------------------------------------------------------------
# 3d. Obs bundle + trajectory-recorder shim
# ----------------------------------------------------------------------
class TestObsBundle:
    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert Obs.from_env() is NULL_OBS
        monkeypatch.setenv("REPRO_OBS", "1")
        obs = Obs.from_env()
        assert obs.enabled and obs.sink is None
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        with Obs.from_env() as obs:
            assert obs.sink is not None
            obs.tracer.emit("checkpoint", kind="engine", iteration=1)
        ok, errors = validate_file(obs.sink.path)
        assert (ok, errors) == (2, [])

    def test_set_unit_swaps_profiler(self):
        obs = Obs()
        obs.set_unit("simulated")
        assert obs.profiler.unit == "simulated"
        first = obs.profiler
        obs.set_unit("simulated")
        assert obs.profiler is first  # no-op when already right

    def test_move_applied_carryover_matches_recorder(self):
        """Figure 1 from the one event stream: carryover counted off the
        engine's ``move_applied`` events equals the recorder's count."""
        from repro.tabu.params import TSMOParams
        from repro.vrptw.generator import generate_instance

        instance = generate_instance("R1", 25, seed=31)
        params = TSMOParams(max_evaluations=1500, neighborhood_size=30, restart_after=6)
        obs = Obs()
        recorder = TrajectoryRecorder()
        run_asynchronous_tsmo(instance, params, 6, 1, trace=recorder, obs=obs)
        moves = obs.tracer.events("move_applied")
        # selections[0] is the initial solution, which no move applied.
        assert [(m["iteration"], m["created"]) for m in moves] == [
            (p.selected_iteration, p.created_iteration) for p in recorder.selections[1:]
        ]
        carryover = sum(
            1 for m in moves if not m["restarted"] and m["iteration"] > m["created"]
        )
        assert carryover == recorder.carryover_count
        assert carryover > 0


# ----------------------------------------------------------------------
# 3e. Worker event shipping over the pool's result queue
# ----------------------------------------------------------------------
class TestPoolEventShipping:
    def test_worker_events_reach_master_tracer(self, monkeypatch):
        from repro.core.construction import i1_construct
        from repro.parallel.pool import PoolParams, WorkerPool
        from repro.vrptw.generator import generate_instance

        # Spawn workers inherit the environment; the flag must be set
        # before the pool boots them.
        monkeypatch.setenv("REPRO_OBS", "1")
        instance = generate_instance("R1", 15, seed=55)
        routes = i1_construct(instance, rng=1).routes
        obs = Obs()
        with WorkerPool(
            instance,
            1,
            params=PoolParams(heartbeat_interval=0.05),
            obs=obs,
        ) as pool:
            tid = pool.submit(routes, 8, seed=42, iteration=1)
            pool.gather([tid])
        shipped = obs.tracer.events("worker_task")
        assert len(shipped) == 1
        event = shipped[0]
        assert event["span"] == "worker-0"  # provenance survives ingest
        assert event["run"] == obs.run_id  # identity is the master's
        assert event["task_id"] == tid
        assert event["neighbors"] == 8
        assert "wseq" in event


# ----------------------------------------------------------------------
# 3f. Timestamps
# ----------------------------------------------------------------------
class TestTimeutil:
    def test_roundtrip(self):
        stamp = utc_timestamp()
        parsed = parse_timestamp(stamp)
        assert parsed.tzinfo is not None

    def test_naive_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("2026-08-07T12:00:00")

    def test_manifest_entries_are_stamped(self, tmp_path):
        from repro.persistence.manifest import RunManifest

        manifest = RunManifest(tmp_path / "m.jsonl", table="table1")
        manifest.append(
            instance="R1",
            instance_idx=0,
            run_idx=0,
            algorithm="sequential",
            processors=1,
            record={"x": 1},
        )
        line = json.loads(
            (tmp_path / "m.jsonl").read_text().splitlines()[0]
        )
        parse_timestamp(line["written_at"])
        # The loader ignores the stamp — cells keep resolving.
        assert len(manifest.load()) == 1
