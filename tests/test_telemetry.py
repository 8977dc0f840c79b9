"""Tests for the live telemetry plane.

Three layers, mirroring how the plane is built:

* process-free units — the bounded fan-out :class:`EventBus`, the
  Prometheus-style exposition/quantile helpers in ``repro.obs.expo``,
  and span-tree reconstruction over synthetic traces;
* pool integration — tailing live jobs off the scheduler's bus,
  cross-process span propagation (worker events join their job's
  trace), per-span ``wseq`` ordering under interleaved multi-worker
  batches, and a duration-bounded traffic run (the soak);
* the acceptance guarantee — a seeded serve run with a live tail
  consumer attached is bit-identical (front + trajectory counters) to
  the same run with tailing disabled, per driver.  Streaming observes;
  it never steers.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs import Obs, quantile_from_histogram, render_exposition
from repro.obs.spans import analyze_traces, main as spans_main
from repro.obs.stream import EventBus
from repro.obs.validate import main as validate_main, validate_file
from repro.parallel.pool import PoolParams
from repro.serve import (
    JobSpec,
    ServeParams,
    SolveScheduler,
    TrafficConfig,
    TrafficReport,
    run_traffic,
)
from repro.tabu.params import TSMOParams
from repro.vrptw.generator import generate_instance

FAST = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)

SMALL = TSMOParams(max_evaluations=48, neighborhood_size=8)

#: a snapshot cadence fast enough that short test runs see several.
SNAPPY = ServeParams(snapshot_interval=0.05)


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R1", 20, seed=55)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# EventBus: bounded fan-out, drop counting, thread-safe publish
# ----------------------------------------------------------------------
class TestEventBus:
    def test_subscriber_sees_events_in_order(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe()
            for i in range(5):
                bus.publish({"type": "t", "i": i})
            bus.close()
            return [event["i"] async for event in sub], bus.published

        seen, published = run(scenario())
        assert seen == [0, 1, 2, 3, 4]
        assert published == 5

    def test_predicate_filters_without_counting_drops(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe(predicate=lambda e: e["i"] % 2 == 0)
            for i in range(6):
                bus.publish({"i": i})
            bus.close()
            return [e["i"] async for e in sub], bus.dropped()

        seen, dropped = run(scenario())
        assert seen == [0, 2, 4]
        assert dropped == 0

    def test_slow_subscriber_drops_oldest_and_counts(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe(maxsize=3)
            for i in range(10):
                bus.publish({"i": i})
            bus.close()
            kept = [e["i"] async for e in sub]
            return kept, sub.dropped, bus.dropped()

        kept, sub_dropped, bus_dropped = run(scenario())
        # Drop-oldest: the newest maxsize events survive.
        assert kept == [7, 8, 9]
        assert sub_dropped == 7
        assert bus_dropped == 7

    def test_dropped_counts_survive_unsubscribe(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe(maxsize=1)
            bus.publish({"i": 0})
            bus.publish({"i": 1})
            sub.close()
            return bus.dropped(), bus.subscriber_count()

        dropped, remaining = run(scenario())
        assert dropped == 1
        assert remaining == 0

    def test_subscribe_after_close_yields_nothing(self):
        async def scenario():
            bus = EventBus()
            bus.close()
            sub = bus.subscribe()
            bus.publish({"i": 0})
            return [e async for e in sub], bus.published

        seen, published = run(scenario())
        assert seen == []
        assert published == 0

    def test_publish_from_another_thread_wakes_subscriber(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe()

            def worker():
                for i in range(3):
                    bus.publish({"i": i})
                bus.close()

            thread = threading.Thread(target=worker)
            thread.start()
            seen = [e["i"] async for e in sub]
            thread.join()
            return seen

        assert run(scenario()) == [0, 1, 2]

    def test_raising_predicate_closes_only_that_subscription(self):
        async def scenario():
            bus = EventBus()
            bad = bus.subscribe(predicate=lambda e: e["boom"])
            good = bus.subscribe()
            bus.publish({"i": 0})  # KeyError inside bad's predicate
            bus.publish({"i": 1, "boom": True})
            bus.close()
            return bad.closed, [e["i"] async for e in good]

        bad_closed, seen = run(scenario())
        assert bad_closed
        assert seen == [0, 1]


# ----------------------------------------------------------------------
# Exposition + histogram math
# ----------------------------------------------------------------------
class TestExpo:
    def test_render_exposition_counters_gauges_histograms(self):
        from repro.obs import MetricsRegistry

        m = MetricsRegistry()
        m.inc("serve.jobs_completed", 3)
        m.gauge("serve.jobs_active", 2)
        m.observe("lat", 0.3, buckets=(0.1, 1.0))
        m.observe("lat", 5.0, buckets=(0.1, 1.0))
        text = render_exposition(m.snapshot())
        assert "# TYPE repro_serve_jobs_completed counter" in text
        assert "repro_serve_jobs_completed 3" in text
        assert "repro_serve_jobs_active 2" in text
        # Cumulative buckets with a +Inf terminator.
        assert 'repro_lat_bucket{le="0.1"} 0' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_count 2" in text

    def test_quantile_interpolates_within_buckets(self):
        bounds = (1.0, 2.0, 4.0)
        counts = (0, 10, 0, 0)  # all mass in (1, 2]
        assert quantile_from_histogram(bounds, counts, 0.5) == pytest.approx(1.5)
        assert quantile_from_histogram(bounds, counts, 1.0) == pytest.approx(2.0)

    def test_quantile_edge_cases(self):
        assert quantile_from_histogram((1.0,), (0, 0), 0.5) is None
        with pytest.raises(ValueError):
            quantile_from_histogram((1.0,), (1, 0), 1.5)
        # Mass in the overflow bucket reports the largest finite bound.
        assert quantile_from_histogram((1.0,), (0, 5), 0.99) == pytest.approx(1.0)



# ----------------------------------------------------------------------
# Span-tree reconstruction over synthetic traces
# ----------------------------------------------------------------------
def _event(type_, seq, span, trace=None, parent=None, **fields):
    event = {"type": type_, "seq": seq, "run": "r", "span": span, **fields}
    if trace is not None:
        event["trace"] = trace
    if parent is not None:
        event["parent"] = parent
    return event


class TestSpanAnalysis:
    def test_complete_tree(self):
        events = [
            _event("job_state", 1, "job-a", trace="a", job="a", state="queued"),
            _event("job_state", 2, "job-a", trace="a", job="a", state="running"),
            _event(
                "worker_task", 3, "worker-0", trace="a", parent="job-a",
                worker=0, task_id="t1", neighbors=8,
            ),
            _event("job_state", 4, "job-a", trace="a", job="a", state="done"),
        ]
        reports = analyze_traces(events)
        report = reports["a"]
        assert report.complete
        assert report.roots == ["job-a"]
        assert report.spans["job-a"].children == ["worker-0"]
        assert report.spans["job-a"].states == ["queued", "running", "done"]

    def test_orphan_when_parent_has_no_events(self):
        events = [
            _event("job_state", 1, "job-a", trace="a", job="a", state="done"),
            _event(
                "worker_task", 2, "worker-0", trace="a", parent="job-GONE",
                worker=0, task_id="t1", neighbors=8,
            ),
        ]
        report = analyze_traces(events)["a"]
        assert not report.complete
        assert report.orphans == ["worker-0"]

    def test_gap_when_lifecycle_never_terminates(self):
        events = [
            _event("job_state", 1, "job-a", trace="a", job="a", state="queued"),
            _event("job_state", 2, "job-a", trace="a", job="a", state="running"),
        ]
        report = analyze_traces(events)["a"]
        assert not report.complete
        assert report.gaps and "terminal" in report.gaps[0]

    def test_untraced_events_are_ignored(self):
        events = [_event("iteration", 1, "main", iteration=0,
                         evaluations=8, archive_size=1)]
        assert analyze_traces(events) == {}

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text(
            "\n".join(
                json.dumps(e)
                for e in [
                    _event("job_state", 1, "job-a", trace="a", job="a",
                           state="running"),
                    _event("job_state", 2, "job-a", trace="a", job="a",
                           state="done"),
                ]
            )
            + "\n"
        )
        assert spans_main([str(good)]) == 0
        out = capsys.readouterr().out
        assert "all complete" in out and "trace a:" in out

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                _event("worker_task", 1, "worker-0", trace="b",
                       parent="job-GONE", worker=0, task_id="t", neighbors=8)
            )
            + "\n"
        )
        assert spans_main([str(bad)]) == 1
        assert "ORPHAN" in capsys.readouterr().out

        empty = tmp_path / "untraced.jsonl"
        empty.write_text(
            json.dumps(_event("iteration", 1, "main", iteration=0,
                              evaluations=8, archive_size=1)) + "\n"
        )
        assert spans_main([str(empty)]) == 2


# ----------------------------------------------------------------------
# Validator: a complete write of garbage is an error, a torn tail is not
# ----------------------------------------------------------------------
class TestValidateTail:
    def test_newline_terminated_garbage_is_an_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(_event("job_state", 1, "job-a", job="a", state="done"))
            + "\n{not json}\n"
        )
        ok, errors = validate_file(path)
        assert errors
        assert validate_main([str(path)]) == 1

    def test_torn_tail_without_newline_is_tolerated(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(_event("job_state", 1, "job-a", job="a", state="done"))
            + "\n{\"type\": \"job_st"
        )
        ok, errors = validate_file(path)
        assert not errors
        assert validate_main([str(path)]) == 0
        assert "torn final line" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Live tails against a real scheduler
# ----------------------------------------------------------------------
class TestTail:
    def test_tail_streams_job_lifecycle_and_ends_at_terminal(self, instance):
        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST, params=SNAPPY
            ) as scheduler:
                job = scheduler.submit(JobSpec(job_id="t1", seed=3, params=SMALL))
                events = []

                async def consume():
                    async for event in scheduler.tail("t1"):
                        events.append(event)

                consumer = asyncio.ensure_future(consume())
                await job.wait()
                await asyncio.wait_for(consumer, timeout=30)
                return events

        events = run(scenario())
        states = [e["state"] for e in events if e["type"] == "job_state"]
        assert states[-1] == "done"
        assert any(e["type"] == "job_progress" for e in events)
        # Everything tailed belongs to this job's trace.
        assert all(
            e.get("job") == "t1" or e.get("trace") == "t1" for e in events
        )
        # The bus preserves publish order: seq is strictly increasing.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_tail_of_finished_job_yields_nothing(self, instance):
        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST
            ) as scheduler:
                job = scheduler.submit(JobSpec(job_id="t2", seed=3, params=SMALL))
                await job.wait()
                return [event async for event in scheduler.tail("t2")]

        assert run(scenario()) == []

    def test_tail_all_carries_metrics_snapshots(self, instance):
        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST, params=SNAPPY
            ) as scheduler:
                snapshots = []

                async def consume():
                    async for event in scheduler.tail_all():
                        if event["type"] == "metrics_snapshot":
                            snapshots.append(event["snapshot"])

                consumer = asyncio.ensure_future(consume())
                job = scheduler.submit(JobSpec(job_id="t3", seed=3, params=SMALL))
                await job.wait()
                await asyncio.sleep(0.15)  # one more snapshot cadence
                consumer.cancel()
                try:
                    await consumer
                except asyncio.CancelledError:
                    pass
                return snapshots

        snapshots = run(scenario())
        assert snapshots
        latest = snapshots[-1]
        for key in ("jobs_active", "jobs_queued", "pool_backlog", "deficits",
                    "counters", "deltas", "stream", "metrics"):
            assert key in latest
        assert any(s["counters"].get("completed") == 1 for s in snapshots)


# ----------------------------------------------------------------------
# Cross-process span propagation + ingest ordering
# ----------------------------------------------------------------------
class TestSpanPropagation:
    def test_worker_events_join_job_trace_and_wseq_orders_per_span(
        self, instance, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS", "1")

        async def scenario():
            obs = Obs(span="serve")
            async with SolveScheduler(
                instance, n_workers=2, pool_params=FAST, obs=obs
            ) as scheduler:
                tailed = {}

                async def consume(job_id):
                    tailed[job_id] = [
                        e async for e in scheduler.tail(job_id)
                    ]

                jobs = [
                    scheduler.submit(
                        JobSpec(job_id=f"sp{i}", seed=10 + i, params=SMALL,
                                driver="split", n_tasks=2)
                    )
                    for i in range(2)
                ]
                consumers = [
                    asyncio.ensure_future(consume(f"sp{i}")) for i in range(2)
                ]
                await asyncio.gather(*(job.wait() for job in jobs))
                await asyncio.wait_for(
                    asyncio.gather(*consumers), timeout=30
                )
            return obs, tailed

        obs, tailed = run(scenario())
        shipped = obs.tracer.events("worker_task")
        assert shipped, "workers shipped no events back"
        # Every worker event carries its job's trace and points at the
        # job's root span — the propagation chain is unbroken.
        for event in shipped:
            assert event["trace"] in ("sp0", "sp1")
            assert event["parent"] == f"job-{event['trace']}"
            assert event["span"].startswith("worker-")
        # Both workers contributed (interleaved batches, not one pipe).
        assert len({e["span"] for e in shipped}) == 2
        # wseq (the worker's own emission counter) is strictly
        # increasing within each worker span even though batches from
        # the two workers interleave arbitrarily at the scheduler.
        by_span = {}
        for event in shipped:
            by_span.setdefault(event["span"], []).append(event["wseq"])
        for span, wseqs in by_span.items():
            assert wseqs == sorted(wseqs), span
            assert len(set(wseqs)) == len(wseqs), span
        # Tail subscribers observe the same per-span order.
        for job_id, events in tailed.items():
            worker_events = [e for e in events if e["type"] == "worker_task"]
            assert worker_events, job_id
            per_span = {}
            for event in worker_events:
                per_span.setdefault(event["span"], []).append(event["wseq"])
            for wseqs in per_span.values():
                assert wseqs == sorted(wseqs)

    def test_checkpoint_events_join_the_trace(self, instance, tmp_path):
        async def scenario():
            obs = Obs(span="serve")
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                obs=obs,
                checkpoint_dir=tmp_path,
                checkpoint_every=16,
            ) as scheduler:
                job = scheduler.submit(JobSpec(job_id="ck", seed=4, params=SMALL))
                await job.wait()
            return obs

        obs = run(scenario())
        checkpoints = [
            e for e in obs.tracer.events("checkpoint") if e.get("trace") == "ck"
        ]
        assert checkpoints
        assert all(e["span"] == "job-ck" for e in checkpoints)


# ----------------------------------------------------------------------
# Acceptance: tailing a run never changes it (per driver)
# ----------------------------------------------------------------------
class TestTailDeterminismGuard:
    @pytest.mark.parametrize(
        "driver,n_tasks,n_workers",
        [("lockstep", 1, 1), ("split", 2, 2)],
        ids=["lockstep", "split"],
    )
    def test_tailed_run_is_bit_identical(
        self, instance, driver, n_tasks, n_workers
    ):
        spec_kwargs = dict(
            seed=7, params=SMALL, driver=driver, n_tasks=n_tasks
        )

        async def run_once(tailing):
            async with SolveScheduler(
                instance, n_workers=n_workers, pool_params=FAST, params=SNAPPY
            ) as scheduler:
                job = scheduler.submit(JobSpec(job_id="d", **spec_kwargs))
                if tailing:
                    events = []

                    async def consume():
                        async for event in scheduler.tail("d"):
                            events.append(event)

                    consumer = asyncio.ensure_future(consume())
                    result = await job.wait()
                    await asyncio.wait_for(consumer, timeout=30)
                    assert events, "tailing observed nothing"
                else:
                    result = await job.wait()
                return result

        plain = run(run_once(False))
        tailed = run(run_once(True))
        assert tailed.evaluations == plain.evaluations
        assert tailed.iterations == plain.iterations
        assert tailed.restarts == plain.restarts
        assert np.array_equal(tailed.front(), plain.front())


# ----------------------------------------------------------------------
# Duration-bounded traffic (the soak) + end-to-end span completeness
# ----------------------------------------------------------------------
class TestSoak:
    def test_config_validation(self):
        # A burst without a job count never ends.
        with pytest.raises(ServeError):
            TrafficConfig(n_jobs=None, duration_s=5.0, rate=0.0)
        with pytest.raises(ServeError):
            TrafficConfig(n_jobs=None, duration_s=None)
        with pytest.raises(ServeError):
            TrafficConfig(n_jobs=None, duration_s=0.0)
        with pytest.raises(ServeError):
            TrafficConfig(n_jobs=None, duration_s=5.0, warmup_s=5.0)
        with pytest.raises(ServeError):
            TrafficConfig(warmup_s=-1.0)
        # Count-bounded bursts and runs bounded both ways are fine.
        TrafficConfig(n_jobs=10, rate=0.0)
        TrafficConfig(n_jobs=10, duration_s=5.0, warmup_s=1.0)

    def test_short_soak_conserves_and_reconstructs_spans(
        self, instance, tmp_path, monkeypatch, capsys
    ):
        trace_dir = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(trace_dir))
        config = TrafficConfig(
            n_jobs=None, duration_s=2.5, warmup_s=0.5, rate=10.0, seed=2,
            budget=32, neighborhood=8,
        )

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=2, pool_params=FAST, params=SNAPPY
            ) as scheduler:
                return await run_traffic(scheduler, config)

        report = run(scenario())
        assert report.conserved(), report.to_dict()
        assert report.submitted > 0
        assert report.snapshots > 0
        assert report.to_dict()["latency_s"].keys() >= {"p50", "p95", "p99"}
        # The traces on disk validate and reconstruct one complete span
        # tree per job — no orphans, no torn lifecycles (the acceptance
        # bar for the 2-worker chaos-free soak).
        assert validate_main([str(trace_dir)]) == 0
        assert spans_main([str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "all complete" in out


# ----------------------------------------------------------------------
# TailServer: the EventBus over TCP (length-prefixed JSON frames)
# ----------------------------------------------------------------------
class TestTailServer:
    def test_tail_all_streams_until_bus_close(self):
        from repro.obs.tailserv import TailServer, tail_client

        async def scenario():
            bus = EventBus()
            server = TailServer(bus, port=0)
            host, port = await server.start()

            async def consume():
                return [e async for e in tail_client(host, port)]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)  # let the subscription attach
            for i in range(5):
                bus.publish({"type": "t", "i": i})
            await asyncio.sleep(0.05)
            bus.close()
            events = await asyncio.wait_for(task, timeout=5)
            report = server.report()
            await server.stop()
            await server.stop()  # idempotent
            return events, report

        events, report = run(scenario())
        assert [e["i"] for e in events] == [0, 1, 2, 3, 4]
        assert report["connections"] == 1
        assert report["frames_sent"] == 5
        assert report["bad_requests"] == 0

    def test_per_job_tail_filters_and_ends_at_terminal(self):
        from repro.obs.tailserv import TailServer, tail_client

        async def scenario():
            bus = EventBus()
            server = TailServer(bus, port=0)
            host, port = await server.start()

            async def consume():
                return [e async for e in tail_client(host, port, job_id="a")]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)
            bus.publish({"type": "job_state", "job": "a", "state": "running"})
            bus.publish({"type": "job_state", "job": "b", "state": "running"})
            bus.publish({"type": "worker_task", "trace": "a", "worker": 0})
            bus.publish({"type": "job_state", "job": "a", "state": "done"})
            # The stream must end at job a's terminal event, with the
            # bus still open and job b still running.
            events = await asyncio.wait_for(task, timeout=5)
            await server.stop()
            bus.close()
            return events

        events = run(scenario())
        assert [e.get("type") for e in events] == [
            "job_state",
            "worker_task",
            "job_state",
        ]
        assert all(e.get("job", "a") == "a" or e.get("trace") == "a" for e in events)
        assert events[-1]["state"] == "done"

    def test_malformed_request_counted_and_closed(self):
        from repro.obs.tailserv import TailServer

        async def scenario():
            bus = EventBus()
            server = TailServer(bus, port=0)
            host, port = await server.start()
            outcomes = []
            for payload in (b"not json\n", b'{"op": "steer"}\n', b'{"op": "tail"}\n'):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(payload)
                await writer.drain()
                # Server closes without sending a frame.
                data = await asyncio.wait_for(reader.read(), timeout=5)
                outcomes.append(data)
                writer.close()
            report = server.report()
            await server.stop()
            bus.close()
            return outcomes, report

        outcomes, report = run(scenario())
        assert outcomes == [b"", b"", b""]
        assert report["bad_requests"] == 3
        assert report["frames_sent"] == 0

    def test_scheduler_tail_port_end_to_end(self, instance):
        """A real scheduler with tail_port=0: a remote client sees the
        job lifecycle and at least one metrics snapshot, and the
        scheduler report carries the tailserv counters."""
        from repro.obs.tailserv import tail_client

        async def scenario():
            async with SolveScheduler(
                instance,
                n_workers=1,
                params=SNAPPY,
                pool_params=FAST,
                tail_port=0,
            ) as scheduler:
                host, port = await scheduler.tail_address()

                async def consume():
                    kinds = []
                    async for event in tail_client(host, port, job_id="j"):
                        kinds.append(event.get("type"))
                    return kinds

                task = asyncio.ensure_future(consume())
                await asyncio.sleep(0.05)
                job = scheduler.submit(JobSpec(job_id="j", seed=5, params=SMALL))
                await job.wait()
                kinds = await asyncio.wait_for(task, timeout=10)
                report = scheduler.report()
            return kinds, report

        kinds, report = run(scenario())
        assert "job_state" in kinds
        assert report["tailserv"]["connections"] == 1
        assert report["tailserv"]["frames_sent"] == len(kinds)


# ----------------------------------------------------------------------
# Empty-aggregate audit: no measurement is None / "-", never 0.0 / NaN
# ----------------------------------------------------------------------
class TestEmptyAggregates:
    def test_quantiles_of_nothing_are_none(self):
        from repro.serve.traffic import _quantiles

        empty = _quantiles([])
        assert empty == {
            "p50": None,
            "p95": None,
            "p99": None,
            "max": None,
            "mean": None,
        }

    def test_quantile_from_histogram_all_zero_counts(self):
        assert quantile_from_histogram([0.1, 1.0], [0, 0, 0], 0.99) is None

    def test_watch_line_renders_dashes_not_nan(self):
        from repro.serve.__main__ import _fmt_ms, _watch_line

        assert _fmt_ms(None) == "-"
        assert _fmt_ms(0.25) == "250ms"
        snapshot = {
            "jobs_active": 0,
            "jobs_queued": 0,
            "pool_backlog": 0,
            "counters": {},
            "stream": {},
            "deficits": {},
            "metrics": {
                "histograms": {
                    "serve.job_latency_s": {
                        "bounds": [0.1],
                        "counts": [0, 0],
                        "count": 0,
                    }
                }
            },
        }
        line = _watch_line(snapshot)
        assert "p50=- p99=-" in line
        assert "nan" not in line.lower()

    def test_empty_steady_window_reports_none(self):
        """A steady-state window in which nothing finished — every
        completed job landed inside the warm-up — has no quantiles:
        they come out None (JSON-safe), never NaN or a fake 0ms, while
        the audit still counts the jobs as completed."""
        from types import SimpleNamespace

        from repro.tabu.search import TSMOResult

        result = TSMOResult(
            instance_name="R1-20", algorithm="serve-lockstep", params=SMALL,
            archive=[], iterations=1, evaluations=SMALL.max_evaluations,
            restarts=0, wall_time=0.0, extra={"job_id": "a"},
        )
        job = SimpleNamespace(submitted_at=1.0, started_at=1.5, finished_at=2.0)
        report = TrafficReport.audit(
            [(job, result)], budget=SMALL.max_evaluations, since=3.0,
            submitted=1, rejected=0, makespan_s=2.0, peak_active=1,
        )
        assert report.completed == 1 and report.conserved()
        assert report.latency_s["p50"] is None
        assert report.queue_wait_s["p99"] is None
        json.dumps(report.to_dict(), allow_nan=False)
