"""Tests for the persistent fault-tolerant worker pool.

Process-free tests (fault-plan parsing, parameter validation, the
execute_task determinism invariant) run first; the process-backed
tests shrink every supervision interval so failure paths resolve in
well under a second of policing time.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator
from repro.core.operators.registry import default_registry
from repro.errors import WorkerPoolError
from repro.parallel.messages import PoolTask
from repro.parallel.pool import FaultPlan, PoolParams, WorkerPool, execute_task
from repro.vrptw.generator import generate_instance

#: supervision knobs shrunk for tests: failures resolve in milliseconds.
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


def run_on_master(instance, routes, count, seed, batch_size=None):
    """Ground truth: the same task executed inline, no processes."""
    task = PoolTask(
        task_id=0,
        attempt=0,
        routes=routes,
        count=count,
        batch_size=batch_size or count,
        iteration=1,
        seed=seed,
    )
    neighbors = []
    for batch in execute_task(
        instance, Evaluator(instance), default_registry(), task, -1
    ):
        neighbors.extend(batch.neighbors)
    return tuple(neighbors)


class TestFaultPlanParsing:
    def test_kill_delay_and_mid_task_kill(self):
        plan = FaultPlan.from_env("kill:1@3, delay:0@2:0.5, kill:2@0+4")
        assert plan.kills == ((1, 3, None), (2, 0, 4))
        assert plan.delays == ((0, 2, 0.5),)
        assert plan.action(1, 3) == ("kill", None)
        assert plan.action(2, 0) == ("kill", 4)
        assert plan.action(0, 2) == ("delay", 0.5)
        assert plan.action(0, 0) is None

    def test_empty_spec_is_no_plan(self):
        assert FaultPlan.from_env("") is None
        assert FaultPlan.from_env("   ") is None

    def test_plan_truthiness(self):
        assert not FaultPlan()
        assert FaultPlan(kills=((0, 0, None),))

    @pytest.mark.parametrize(
        "spec", ["kill:x@y", "delay:0@1:soon", "boom:1@2", "kill:1"]
    )
    def test_malformed_rejected(self, spec):
        with pytest.raises(WorkerPoolError, match="malformed"):
            FaultPlan.from_env(spec)


class TestPoolParams:
    def test_defaults_valid(self):
        PoolParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(heartbeat_interval=0.0),
            dict(heartbeat_timeout=0.1, heartbeat_interval=0.25),
            dict(task_deadline=0.0),
            dict(max_retries=-1),
            dict(respawn_cap=-1),
            dict(backoff_base=-0.1),
            dict(backoff_base=1.0, backoff_cap=0.5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(WorkerPoolError):
            PoolParams(**kwargs)


class TestExecuteTaskDeterminism:
    def test_same_seed_same_neighbors(self, instance, routes):
        a = run_on_master(instance, routes, 12, seed=77)
        b = run_on_master(instance, routes, 12, seed=77)
        assert a == b
        assert len(a) == 12

    def test_batching_does_not_change_output(self, instance, routes):
        whole = run_on_master(instance, routes, 12, seed=77)
        streamed = run_on_master(instance, routes, 12, seed=77, batch_size=3)
        assert whole == streamed

    @pytest.mark.parametrize("batch_size", [12, 6, 5])
    def test_one_final_batch_ends_each_task(self, instance, routes, batch_size):
        """A task sends ceil(count / batch_size) batches; the one holding
        the last neighbor is final and carries the lockstep RNG state
        and the cache delta, even when count is a multiple of batch_size."""
        master_rng = np.random.default_rng(5)
        task = PoolTask(
            task_id=0,
            attempt=0,
            routes=routes,
            count=12,
            batch_size=batch_size,
            iteration=1,
            rng_state=master_rng.bit_generator.state,
        )
        batches = list(
            execute_task(instance, Evaluator(instance), default_registry(), task, -1)
        )
        assert len(batches) == -(-12 // batch_size)
        assert [b.final for b in batches] == [False] * (len(batches) - 1) + [True]
        assert all(b.neighbors for b in batches)
        assert sum(len(b.neighbors) for b in batches) == 12
        final = batches[-1]
        assert final.rng_state is not None and final.cache_delta is not None
        assert all(b.rng_state is None and b.cache_delta is None for b in batches[:-1])

    def test_empty_task_sends_one_final_batch(self, instance, routes):
        task = PoolTask(
            task_id=0, attempt=0, routes=routes, count=0, batch_size=4, iteration=1, seed=3
        )
        batches = list(
            execute_task(instance, Evaluator(instance), default_registry(), task, -1)
        )
        assert len(batches) == 1
        assert batches[0].final and batches[0].neighbors == ()
        assert batches[0].cache_delta == (0, 0)


class TestWorkerPoolHealthy:
    def test_submit_gather_matches_master(self, instance, routes):
        with WorkerPool(instance, 1, params=FAST) as pool:
            tid = pool.submit(routes, 10, seed=42, iteration=1)
            outcome = pool.gather([tid])[tid]
            # Determinism across the process boundary: the worker's
            # neighbors equal an inline execution of the same task.
            assert outcome.neighbors == run_on_master(instance, routes, 10, seed=42)
            assert outcome.cache_delta[1] > 0  # misses were counted

            with pytest.raises(WorkerPoolError, match="count"):
                pool.submit(routes, 0, seed=1)
            with pytest.raises(WorkerPoolError, match="exactly one"):
                pool.submit(routes, 5)
            with pytest.raises(WorkerPoolError, match="exactly one"):
                pool.submit(routes, 5, seed=1, rng_state={"state": 0})

            report = pool.report()
        assert report["crashes"] == 0
        assert report["respawns"] == 0
        assert report["degraded"] is False
        assert report["tasks_completed"] == 1
        assert report["latency"]["p50"] is not None
        assert len(report["per_worker"]) == 1

        with pytest.raises(WorkerPoolError, match="closed"):
            pool.submit(routes, 5, seed=1)

    def test_invalid_worker_count(self, instance):
        with pytest.raises(WorkerPoolError):
            WorkerPool(instance, 0)


class TestFaultTolerance:
    def test_kill_before_task_retries_and_respawns(self, instance, routes):
        plan = FaultPlan(kills=((0, 0, None),))
        with WorkerPool(instance, 1, params=FAST, fault_plan=plan) as pool:
            tid = pool.submit(routes, 10, seed=42, iteration=1)
            outcome = pool.gather([tid])[tid]
            report = pool.report()
        # The injected crash, its retry and the respawn — exactly once.
        assert report["crashes"] == 1
        assert report["retries"] == 1
        assert report["respawns"] == 1
        assert report["degraded"] is False
        assert report["faults_planned"] == {"kills": 1, "delays": 0}
        # Deterministic re-seeding: the retried task regenerates the
        # identical neighbor sequence.
        assert outcome.neighbors == run_on_master(instance, routes, 10, seed=42)

    def test_mid_task_kill_is_exactly_once(self, instance, routes):
        # Worker dies after streaming one 3-neighbor batch; the retry
        # must resume past the delivered prefix: no loss, no duplicates.
        plan = FaultPlan(kills=((0, 0, 1),))
        with WorkerPool(instance, 1, params=FAST, fault_plan=plan) as pool:
            tid = pool.submit(routes, 12, seed=42, iteration=1, batch_size=3)
            outcome = pool.gather([tid])[tid]
            report = pool.report()
        assert report["crashes"] == 1
        assert report["retries"] == 1
        expected = run_on_master(instance, routes, 12, seed=42)
        assert len(outcome.neighbors) == 12
        assert outcome.neighbors == expected

    def test_delayed_worker_is_cut_off_as_straggler(self, instance, routes):
        # The injected 30 s delay dwarfs the 0.75 s deadline, so the
        # cutoff decision has a 40x margin against scheduler jitter.
        # The deadline clock starts when the incarnation is first heard
        # (plus boot_grace while unheard), so neither the first worker's
        # boot nor the respawned replacement's boot — arbitrarily slow
        # under full-suite load — can count against the task and
        # produce a second spurious straggler.
        plan = FaultPlan(delays=((0, 0, 30.0),))
        params = PoolParams(
            heartbeat_interval=0.05,
            heartbeat_timeout=10.0,
            task_deadline=0.75,
            # Must stay well under the injected delay: even if the slot
            # were somehow never heard, deadline + boot_grace (10.75 s)
            # still cuts the 30 s sleeper off as a straggler.
            boot_grace=10.0,
            backoff_base=0.01,
        )
        with WorkerPool(instance, 1, params=params, fault_plan=plan) as pool:
            tid = pool.submit(routes, 8, seed=9, iteration=1)
            outcome = pool.gather([tid])[tid]
            report = pool.report()
        assert report["stragglers"] == 1
        assert report["retries"] == 1
        assert report["respawns"] == 1
        assert outcome.neighbors == run_on_master(instance, routes, 8, seed=9)

    def test_total_collapse_degrades_to_master(self, instance, routes):
        # Both workers die on their first task and the respawn budget is
        # zero: the pool must degrade and still complete every task.
        plan = FaultPlan(kills=((0, 0, None), (1, 0, None)))
        params = PoolParams(
            heartbeat_interval=0.05,
            heartbeat_timeout=10.0,
            task_deadline=10.0,
            backoff_base=0.01,
            respawn_cap=0,
        )
        with WorkerPool(instance, 2, params=params, fault_plan=plan) as pool:
            tids = [pool.submit(routes, 6, seed=s, iteration=1) for s in (1, 2, 3)]
            outcomes = pool.gather(tids)
            report = pool.report()
        assert report["degraded"] is True
        assert report["crashes"] == 2
        assert report["respawns"] == 0
        assert len(outcomes) == 3
        for tid, seed in zip(tids, (1, 2, 3)):
            assert outcomes[tid].neighbors == run_on_master(
                instance, routes, 6, seed=seed
            )

    def test_report_dump_on_request(self, instance, routes, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_REPORT_DIR", str(tmp_path))
        with WorkerPool(instance, 1, params=FAST) as pool:
            tid = pool.submit(routes, 4, seed=5, iteration=1)
            pool.gather([tid])
        dumps = list(tmp_path.glob("pool-*.json"))
        assert len(dumps) == 1
        import json

        payload = json.loads(dumps[0].read_text())
        assert payload["tasks_completed"] == 1
        assert payload["n_workers"] == 1


class TestEventDrivenWait:
    """poll() blocks on readiness, not on a sleep cadence.

    Heartbeats are pushed out to 20 s here, so no worker message can
    end a wait early: only the mechanism under test can.
    """

    QUIET = dict(heartbeat_interval=20.0, heartbeat_timeout=60.0)

    def test_wakeup_from_another_thread_ends_a_blocked_poll(self, instance):
        with WorkerPool(instance, 1, params=PoolParams(**self.QUIET)) as pool:
            waker = threading.Timer(0.2, pool.wakeup)
            waker.start()
            t0 = time.monotonic()
            events = pool.poll(timeout=30)
            elapsed = time.monotonic() - t0
            waker.join(timeout=5)
        assert not waker.is_alive()
        assert events == []
        assert elapsed < 5.0
        pool.wakeup()  # after close: a no-op, not an error

    def test_retry_dispatches_at_its_backoff_end(self, instance, routes):
        # The worker dies before the task; its sentinel wakes the wait,
        # and the retry must then leave its 0.3 s backoff on time — no
        # worker message (the next heartbeat is 20 s away) announces it.
        plan = FaultPlan(kills=((0, 0, None),))
        params = PoolParams(backoff_base=0.3, **self.QUIET)
        with WorkerPool(instance, 1, params=params, fault_plan=plan) as pool:
            t0 = time.monotonic()
            tid = pool.submit(routes, 6, seed=4, iteration=1)
            outcome = pool.gather([tid])[tid]
            elapsed = time.monotonic() - t0
            report = pool.report()
        assert elapsed < 10.0
        assert report["crashes"] == 1 and report["retries"] == 1
        assert outcome.neighbors == run_on_master(instance, routes, 6, seed=4)

    def test_gather_after_total_collapse_does_not_block(self, instance, routes):
        # Master-local runs produce their events inside poll(); the
        # drain must return them instead of waiting for a message no
        # (dead) worker will ever send.
        plan = FaultPlan(kills=((0, 0, None), (1, 0, None)))
        params = PoolParams(respawn_cap=0, **self.QUIET)
        with WorkerPool(instance, 2, params=params, fault_plan=plan) as pool:
            t0 = time.monotonic()
            first = [pool.submit(routes, 6, seed=s, iteration=1) for s in (1, 2)]
            pool.gather(first)
            assert pool.degraded
            later = [pool.submit(routes, 6, seed=s, iteration=2) for s in (3, 4, 5)]
            outcomes = pool.gather(later)
            elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        for tid, seed in zip(later, (3, 4, 5)):
            assert outcomes[tid].neighbors == run_on_master(
                instance, routes, 6, seed=seed
            )


class TestShutdownSurface:
    def test_submit_and_poll_after_shutdown_raise(self, instance, routes):
        # Regression: submitting to a shut-down pool used to enqueue
        # onto dead worker queues and hang (a later poll would dispatch
        # to a terminated process); now both raise immediately.
        pool = WorkerPool(instance, 1, params=FAST)
        tid = pool.submit(routes, 4, seed=1, iteration=1)
        pool.gather([tid])
        pool.shutdown()
        with pytest.raises(WorkerPoolError, match="shut-down"):
            pool.submit(routes, 4, seed=2, iteration=1)
        with pytest.raises(WorkerPoolError, match="shut-down"):
            pool.poll(0.01)
        with pytest.raises(WorkerPoolError):
            pool.cancel_tag("any")

    def test_report_readable_after_shutdown(self, instance, routes):
        with WorkerPool(instance, 1, params=FAST) as pool:
            tid = pool.submit(routes, 4, seed=1, iteration=1)
            pool.gather([tid])
        report = pool.report()  # the context manager already closed it
        assert report["tasks_completed"] == 1
        assert report["n_workers"] == 1
        pool.shutdown()  # idempotent

    def test_shutdown_is_close_alias(self, instance):
        assert WorkerPool.shutdown is WorkerPool.close


class TestCancelTag:
    def test_pending_tasks_dropped_inflight_drained(self, instance, routes):
        with WorkerPool(instance, 1, params=FAST) as pool:
            keep = pool.submit(routes, 4, seed=1, iteration=1, tag="keep")
            doomed = [
                pool.submit(routes, 4, seed=s, iteration=1, tag="doomed")
                for s in (2, 3, 4)
            ]
            cancelled = pool.cancel_tag("doomed")
            assert sorted(cancelled) == sorted(doomed)
            assert pool.cancel_tag("doomed") == []  # idempotent
            outcome = pool.gather([keep])[keep]
            # No cancelled batch is ever delivered after cancel_tag.
            deadline = 40
            while pool.backlog() and deadline:
                assert all(e.tag != "doomed" for e in pool.poll(0.02))
                deadline -= 1
            report = pool.report()
        assert outcome.neighbors == run_on_master(instance, routes, 4, seed=1)
        assert report["cancelled_tasks"] == 3
        assert report["tasks_completed"] >= 1

    def test_events_carry_tags(self, instance, routes):
        with WorkerPool(instance, 1, params=FAST) as pool:
            pool.submit(routes, 4, seed=7, iteration=1, tag="job-x")
            tags = set()
            neighbors = []
            while pool.backlog():
                for event in pool.poll(0.05):
                    tags.add(event.tag)
                    neighbors.extend(event.neighbors)
            assert tags == {"job-x"}
            assert tuple(neighbors) == run_on_master(instance, routes, 4, seed=7)


class TestCancelCompletionRace:
    """A task finishing while its cancel is in flight must count once.

    The window: the worker streams the final batch into the result
    queue, and before the master drains it ``cancel_tag`` marks the
    task cancelled.  The invariant pinned here is conservation —
    every resolved task lands in exactly one of ``tasks_completed`` or
    ``cancelled_tasks`` — plus silence (no event with the tag is ever
    delivered after ``cancel_tag`` returns).
    """

    def test_finished_but_undrained_task_counts_once(self, instance, routes):
        # The injected delay guarantees the first poll dispatches the
        # task but cannot deliver any of its output; the sleep then
        # guarantees the final batch is sitting undrained in the result
        # queue when the cancel lands.
        plan = FaultPlan(delays=((0, 0, 0.2),))
        with WorkerPool(instance, 1, params=FAST, fault_plan=plan) as pool:
            tid = pool.submit(routes, 4, seed=3, iteration=1, tag="j")
            assert pool.poll(0.001) == []
            time.sleep(1.0)  # worker finishes; final batch lands undrained
            assert pool.cancel_tag("j") == [tid]
            assert pool.cancel_tag("j") == []  # idempotent, still counted once
            deadline = 40
            while pool.backlog() and deadline:
                assert pool.poll(0.02) == []  # the finish drains silently
                deadline -= 1
            report = pool.report()
        assert report["tasks_completed"] == 0
        assert report["cancelled_tasks"] == 1
        assert report["cancelled_completions"] == 1
        assert report["crashes"] == 0

    def test_tag_reuse_after_cancel_is_fresh(self, instance, routes):
        # A new task under a previously-cancelled tag must behave as if
        # the tag were never seen: delivered exactly once, in full.
        with WorkerPool(instance, 1, params=FAST) as pool:
            first = pool.submit(routes, 4, seed=5, iteration=1, tag="j")
            assert pool.cancel_tag("j") == [first]
            second = pool.submit(routes, 4, seed=6, iteration=2, tag="j")
            outcome = pool.gather([second])[second]
            report = pool.report()
        assert outcome.neighbors == run_on_master(instance, routes, 4, seed=6)
        assert report["tasks_completed"] == 1
        assert report["cancelled_tasks"] == 1
        assert report["cancelled_completions"] == 0  # dropped pre-dispatch

    def test_mixed_workload_counts_are_conserved(self, instance, routes):
        submitted = 6
        with WorkerPool(instance, 2, params=FAST) as pool:
            ids = [
                pool.submit(
                    routes, 4, seed=s, iteration=1, tag="a" if s % 2 else "b"
                )
                for s in range(submitted)
            ]
            pool.poll(0.05)
            pool.cancel_tag("a")
            deadline = 100
            while pool.backlog() and deadline:
                pool.poll(0.02)
                deadline -= 1
            report = pool.report()
        assert deadline > 0, "pool failed to drain"
        assert len(ids) == submitted
        assert (
            report["tasks_completed"] + report["cancelled_tasks"] == submitted
        )
        assert report["cancelled_completions"] <= report["cancelled_tasks"]
