"""Tests for the multi-tenant solve service (``repro.serve``).

The deterministic pieces — spec validation, admission control, the
deficit-round-robin arbiter — run process-free.  The integration tests
spawn a real worker pool with the same shrunk supervision intervals as
``test_pool.py``; the headline guarantees each proves:

* a lockstep job is bit-identical to the sequential driver;
* killing the scheduler mid-job and resuming in a brand-new one
  finishes bit-identically (checkpointed multi-tenant restarts work);
* 50+ concurrent jobs on one shared pool lose and duplicate nothing;
* overload is rejected loudly, never dropped silently.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    CrashInjected,
    JobCancelled,
    JobDeadlineExceeded,
    LedgerError,
    ServeError,
    WrongInstanceError,
)
from repro.obs import Obs
from repro.parallel.pool import FaultPlan, PoolParams
from repro.serve import (
    DeficitRoundRobin,
    JobLedger,
    JobSpec,
    JobState,
    ServeFaultPlan,
    ServeParams,
    SolveScheduler,
    TrafficConfig,
    run_chaos_soak,
    run_traffic,
)
from repro.serve.ledger import LEDGER_FILENAME
from repro.tabu.params import TSMOParams
from repro.tabu.search import run_sequential_tsmo
from repro.vrptw.generator import generate_instance

#: supervision knobs shrunk for tests (same spirit as test_pool.py).
FAST = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)

#: a small budget: a few iterations, well under a second per job.
SMALL = TSMOParams(max_evaluations=48, neighborhood_size=8)


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R1", 20, seed=55)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Process-free: spec validation and admission control
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_rejects_empty_id_bad_driver_and_lockstep_split(self):
        with pytest.raises(ServeError):
            JobSpec(job_id="")
        with pytest.raises(ServeError):
            JobSpec(job_id="a", driver="turbo")
        with pytest.raises(ServeError):
            JobSpec(job_id="a", driver="lockstep", n_tasks=2)

    def test_split_accepts_many_tasks(self):
        spec = JobSpec(job_id="a", driver="split", n_tasks=4)
        assert spec.n_tasks == 4


class TestAdmission:
    def test_queue_bound_rejects_not_drops(self, instance):
        # The scheduler is never started: jobs stay queued, so the
        # bounded queue fills deterministically.
        async def scenario():
            obs = Obs()
            scheduler = SolveScheduler(
                instance, params=ServeParams(max_queued=2), obs=obs
            )
            scheduler.submit(JobSpec(job_id="a", params=SMALL))
            scheduler.submit(JobSpec(job_id="b", params=SMALL))
            with pytest.raises(AdmissionError):
                scheduler.submit(JobSpec(job_id="c", params=SMALL))
            assert scheduler.rejected == 1
            counters = obs.metrics.snapshot()["counters"]
            assert counters["serve.admission_rejects"] == 1
            # The rejected job never entered any queue.
            with pytest.raises(ServeError):
                scheduler.get_job("c")
            await scheduler.close()
            # Abandoned jobs fail loudly with a resume hint.
            with pytest.raises(ServeError, match="resume"):
                await scheduler.get_job("a").wait()

        run(scenario())

    def test_duplicate_id_and_closed_scheduler_rejected(self, instance):
        async def scenario():
            scheduler = SolveScheduler(instance)
            scheduler.submit(JobSpec(job_id="a", params=SMALL))
            with pytest.raises(ServeError):
                scheduler.submit(JobSpec(job_id="a", params=SMALL))
            await scheduler.close()
            with pytest.raises(AdmissionError):
                scheduler.submit(JobSpec(job_id="b", params=SMALL))

        run(scenario())

    def test_cancelled_queued_job_frees_its_admission_slot(self, instance):
        # Regression: a job cancelled while queued kept its heap entry
        # (and so its admission slot) until that entry reached the top.
        long_params = TSMOParams(max_evaluations=4000, neighborhood_size=8)

        async def scenario():
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                params=ServeParams(max_active=1, max_queued=2),
            ) as scheduler:
                a = scheduler.submit(JobSpec(job_id="a", seed=1, params=long_params))
                while a.state != JobState.RUNNING:
                    await asyncio.sleep(0.005)
                jobs = [a] + [
                    scheduler.submit(JobSpec(job_id=j, seed=2, params=SMALL))
                    for j in ("b", "c")
                ]
                assert scheduler.cancel("c") is True
                assert scheduler.report()["queued"] == 1
                jobs.append(scheduler.submit(JobSpec(job_id="d", params=SMALL)))
                assert scheduler.report()["queued"] == 2
                for job in jobs:
                    scheduler.cancel(job.job_id)
                with pytest.raises(JobCancelled):
                    await a.wait()
                return scheduler.report()

        report = run(scenario())
        assert report["rejected"] == 0
        assert report["cancelled"] == 4 and report["queued"] == 0

    def test_resume_without_checkpoint_dir_rejected(self, instance):
        async def scenario():
            scheduler = SolveScheduler(instance)
            with pytest.raises(ServeError):
                scheduler.submit(JobSpec(job_id="a", params=SMALL, resume=True))
            await scheduler.close()

        run(scenario())


class TestDeficitRoundRobin:
    def test_weighted_shares_exact_pattern(self):
        # Weight 3 vs 1, equal unit costs of 30, quantum 10: tenant A
        # accrues 30 credit per round, B 10 — so the steady-state cycle
        # serves A three times per B.
        drr = DeficitRoundRobin(quantum=10.0)
        drr.set_weight("A", 3.0)
        drr.set_weight("B", 1.0)
        costs = {"A": 30.0, "B": 30.0}
        picks = [drr.pick(costs) for _ in range(12)]
        assert picks.count("A") == 9
        assert picks.count("B") == 3

    def test_single_tenant_always_wins(self):
        drr = DeficitRoundRobin(quantum=4.0)
        assert drr.pick({"only": 100.0}) == "only"
        assert drr.pick({}) is None

    def test_idle_tenant_forfeits_credit(self):
        drr = DeficitRoundRobin(quantum=10.0)
        drr.set_weight("A", 1.0)
        drr.set_weight("B", 1.0)
        # A runs alone for a while...
        for _ in range(10):
            assert drr.pick({"A": 10.0}) == "A"
        # ...B was idle, so on return it holds no stale credit and the
        # two alternate immediately instead of B bursting ahead.
        picks = [drr.pick({"A": 10.0, "B": 10.0}) for _ in range(6)]
        assert picks.count("A") == 3
        assert picks.count("B") == 3

    def test_determinism(self):
        def play():
            drr = DeficitRoundRobin(quantum=7.0)
            drr.set_weight("x", 2.0)
            drr.set_weight("y", 1.5)
            drr.set_weight("z", 1.0)
            costs = {"x": 11.0, "y": 5.0, "z": 17.0}
            return [drr.pick(costs) for _ in range(50)]

        assert play() == play()


# ----------------------------------------------------------------------
# Process-backed integration
# ----------------------------------------------------------------------
class TestLockstepBitIdentity:
    def test_job_matches_sequential_driver(self, instance):
        params = TSMOParams(max_evaluations=96, neighborhood_size=16)

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST
            ) as scheduler:
                job = scheduler.submit(JobSpec(job_id="a", seed=7, params=params))
                return await job.wait()

        result = run(scenario())
        oracle = run_sequential_tsmo(instance, params, seed=7)
        assert result.evaluations == oracle.evaluations
        assert result.iterations == oracle.iterations
        assert result.restarts == oracle.restarts
        assert np.array_equal(result.front(), oracle.front())
        assert result.extra["job_id"] == "a"

    def test_split_driver_completes_budget(self, instance):
        async def scenario():
            async with SolveScheduler(
                instance, n_workers=2, pool_params=FAST
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(
                        job_id="s", seed=3, params=SMALL, driver="split", n_tasks=3
                    )
                )
                return await job.wait()

        result = run(scenario())
        assert result.evaluations >= SMALL.max_evaluations
        assert result.algorithm == "serve-split"


class TestCancellation:
    def test_cancel_mid_run_drains_gracefully(self, instance):
        long_params = TSMOParams(max_evaluations=4000, neighborhood_size=8)
        # One worker takes the two jobs' tasks in turn (victim's at even
        # ordinals), so ordinal 4 is the victim's third task, dispatched
        # as its evaluations pass 16.  The delay keeps that task in
        # flight when the cancel lands: without it, the task could
        # finish and be routed first, leaving nothing to cancel.
        plan = FaultPlan(delays=((0, 4, 1.5),))

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST, fault_plan=plan
            ) as scheduler:
                victim = scheduler.submit(
                    JobSpec(job_id="victim", seed=1, params=long_params)
                )
                survivor = scheduler.submit(
                    JobSpec(job_id="survivor", seed=2, params=SMALL)
                )
                while victim.evaluations < 16:
                    await asyncio.sleep(0.005)
                assert scheduler.cancel("victim") is True
                with pytest.raises(JobCancelled):
                    await victim.wait()
                result = await survivor.wait()
                report = scheduler.report()
                return victim, result, report

        victim, result, report = run(scenario())
        assert victim.state == JobState.CANCELLED
        assert 0 < victim.evaluations < long_params.max_evaluations
        assert result.evaluations >= SMALL.max_evaluations
        assert report["cancelled"] == 1 and report["completed"] == 1
        # Cancelling an already-terminal job is a no-op, unknown ids raise.
        assert report["pool"]["cancelled_tasks"] >= 1

    def test_cancel_queued_job_immediate(self, instance):
        async def scenario():
            scheduler = SolveScheduler(instance)  # never started
            job = scheduler.submit(JobSpec(job_id="q", params=SMALL))
            assert scheduler.cancel("q") is True
            with pytest.raises(JobCancelled):
                await job.wait()
            assert scheduler.cancel("q") is False
            with pytest.raises(ServeError):
                scheduler.cancel("nope")
            await scheduler.close()

        run(scenario())


class TestKillAndResume:
    def test_resumed_job_is_bit_identical(self, instance, tmp_path):
        params = TSMOParams(max_evaluations=240, neighborhood_size=16)
        spec = dict(job_id="long", seed=11, params=params, checkpoint_every=48)

        async def phase_one():
            scheduler = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            async with scheduler:
                job = scheduler.submit(JobSpec(**spec))
                while job.evaluations < 100:
                    await asyncio.sleep(0.005)
                await scheduler.close()  # kill: no drain, job abandoned
            with pytest.raises(ServeError, match="resume=True"):
                await job.wait()
            return job.evaluations

        async def phase_two():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            ) as scheduler:
                job = scheduler.submit(JobSpec(**spec, resume=True))
                return await job.wait()

        served_before_kill = run(phase_one())
        assert (tmp_path / "serve_long.ckpt").exists()
        result = run(phase_two())
        # The resume did real work: it did not replay from scratch ...
        assert served_before_kill >= 96
        # ... and the stitched run equals the uninterrupted sequential
        # oracle bit for bit.
        oracle = run_sequential_tsmo(instance, params, seed=11)
        assert result.evaluations == oracle.evaluations
        assert result.iterations == oracle.iterations
        assert result.restarts == oracle.restarts
        assert np.array_equal(result.front(), oracle.front())
        # Completion discards the snapshot.
        assert not (tmp_path / "serve_long.ckpt").exists()


class TestFairness:
    def test_weighted_tenants_skew_completion_order(self, instance):
        # One worker → pool work is strictly serialized in dispatch
        # order, so the DRR's grants are the only thing deciding which
        # tenant's jobs progress.  With weights 3:1 and equal jobs per
        # tenant, the heavy tenant's jobs must finish earlier on
        # average (sum of completion ranks strictly smaller).
        async def scenario():
            finished: list[str] = []

            async def watch(job):
                try:
                    await job.wait()
                finally:
                    finished.append(job.tenant)

            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                params=ServeParams(quantum=8.0),
                tenant_weights={"heavy": 3.0, "light": 1.0},
            ) as scheduler:
                jobs = []
                for i in range(4):
                    for tenant in ("heavy", "light"):
                        jobs.append(
                            scheduler.submit(
                                JobSpec(
                                    job_id=f"{tenant}-{i}",
                                    tenant=tenant,
                                    seed=i,
                                    params=SMALL,
                                )
                            )
                        )
                await asyncio.gather(*(watch(j) for j in jobs))
            return finished

        finished = run(scenario())
        assert len(finished) == 8
        heavy_ranks = [i for i, t in enumerate(finished) if t == "heavy"]
        light_ranks = [i for i, t in enumerate(finished) if t == "light"]
        assert sum(heavy_ranks) < sum(light_ranks)


class TestConcurrencyAtScale:
    def test_50_concurrent_jobs_zero_lost_zero_duplicated(self, instance):
        config = TrafficConfig(
            n_jobs=55,
            rate=2000.0,
            seed=1,
            budget=24,
            neighborhood=8,
            cancel_every=11,
        )

        async def scenario():
            async with SolveScheduler(
                instance,
                n_workers=2,
                pool_params=FAST,
                params=ServeParams(max_active=64, max_queued=256),
            ) as scheduler:
                return await run_traffic(scheduler, config)

        report = run(scenario())
        assert report.conserved(), report.to_dict()
        assert report.rejected == 0
        assert report.cancelled == 5
        assert report.completed == 50
        # The service genuinely multiplexed: ≥50 jobs were in flight on
        # the one shared pool at once.
        assert report.peak_active >= 50


class TestObservability:
    def test_job_scoped_events_and_metrics(self, instance):
        async def scenario():
            obs = Obs()
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST, obs=obs
            ) as scheduler:
                job = scheduler.submit(JobSpec(job_id="j1", seed=5, params=SMALL))
                await job.wait()
            return obs

        obs = run(scenario())
        states = [e for e in obs.tracer.events("job_state") if e["job"] == "j1"]
        assert [e["state"] for e in states] == ["queued", "running", "done"]
        assert all(e["span"] == "job-j1" for e in states)
        progress = obs.tracer.events("job_progress")
        assert progress and progress[-1]["evaluations"] >= SMALL.max_evaluations
        snap = obs.metrics.snapshot()
        assert snap["counters"]["serve.jobs_completed"] == 1
        assert "serve.job_latency_s" in snap["histograms"]


# ----------------------------------------------------------------------
# Fault tolerance: retry budgets, preemption, corruption, supervision
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_crash_retries_from_checkpoint_bit_identical(self, instance, tmp_path):
        params = TSMOParams(max_evaluations=240, neighborhood_size=16)
        plan = ServeFaultPlan(crashes=(("c1", 100),))

        async def scenario():
            obs = Obs()
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                checkpoint_dir=tmp_path,
                chaos=plan,
                obs=obs,
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(
                        job_id="c1",
                        seed=13,
                        params=params,
                        checkpoint_every=48,
                        max_retries=2,
                        retry_backoff_s=0.01,
                    )
                )
                result = await job.wait()
                return result, scheduler.report(), obs, job

        result, report, obs, job = run(scenario())
        # The injected crash burned exactly one retry ...
        assert job.attempts == 1
        assert report["job_retries"] == 1
        assert report["completed"] == 1 and report["failed"] == 0
        retries = obs.tracer.events("job_retry")
        assert retries and retries[0]["job"] == "c1"
        assert retries[0]["cause"] == "CrashInjected"
        # ... resumed from the snapshot, and the stitched trajectory is
        # bit-identical to the uninterrupted sequential oracle.
        oracle = run_sequential_tsmo(instance, params, seed=13)
        assert result.evaluations == oracle.evaluations
        assert result.iterations == oracle.iterations
        assert np.array_equal(result.front(), oracle.front())
        # The ledger saw accept -> retry -> done, episode closed.
        audit = JobLedger(tmp_path / LEDGER_FILENAME).audit()
        assert audit["conserved"], audit
        assert audit["events"]["retry"] == 1

    def test_exhausted_budget_fails_naming_cause(self, instance, tmp_path):
        plan = ServeFaultPlan(crashes=(("c2", 1),))

        async def scenario():
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                checkpoint_dir=tmp_path,
                chaos=plan,
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(job_id="c2", seed=14, params=SMALL, max_retries=0)
                )
                with pytest.raises(CrashInjected):
                    await job.wait()
                return scheduler.report(), job

        report, job = run(scenario())
        assert job.state == JobState.FAILED
        assert report["failed"] == 1 and report["job_retries"] == 0
        entries = list(JobLedger(tmp_path / LEDGER_FILENAME).entries())
        terminal = [e for e in entries if e["event"] == "failed"]
        assert len(terminal) == 1
        assert "CrashInjected" in terminal[0]["cause"]

    def test_deadline_overrun_retries_then_fails(self, instance):
        # A budget no attempt can finish inside the deadline: the first
        # overrun burns the single retry, the second is terminal.
        long_params = TSMOParams(max_evaluations=100_000, neighborhood_size=8)

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(
                        job_id="slow",
                        seed=15,
                        params=long_params,
                        max_retries=1,
                        retry_backoff_s=0.01,
                        deadline_s=0.2,
                    )
                )
                with pytest.raises(JobDeadlineExceeded, match="slow"):
                    await job.wait()
                return scheduler.report(), job

        report, job = run(scenario())
        assert job.state == JobState.FAILED
        assert job.attempts == 1  # retried once, then terminal
        assert report["job_retries"] == 1 and report["failed"] == 1


class TestPreemption:
    def test_high_priority_preempts_then_victim_resumes(self, instance, tmp_path):
        params = TSMOParams(max_evaluations=320, neighborhood_size=16)

        async def scenario():
            obs = Obs()
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                params=ServeParams(max_active=1),
                checkpoint_dir=tmp_path,
                obs=obs,
            ) as scheduler:
                low = scheduler.submit(
                    JobSpec(
                        job_id="low",
                        seed=21,
                        params=params,
                        checkpoint_every=32,
                        priority=0,
                    )
                )
                while low.evaluations < 32:
                    await asyncio.sleep(0.005)
                high = scheduler.submit(
                    JobSpec(job_id="high", seed=22, params=SMALL, priority=5)
                )
                high_result = await high.wait()
                low_result = await low.wait()
                return low, high, low_result, high_result, scheduler.report(), obs

        low, high, low_result, high_result, report, obs = run(scenario())
        assert report["preemptions"] >= 1
        assert report["completed"] == 2 and report["failed"] == 0
        # The arrival displaced the running job and finished first.
        assert high.finished_at <= low.finished_at
        preempted = obs.tracer.events("job_preempted")
        assert preempted and preempted[0]["job"] == "low"
        states = [e["state"] for e in obs.tracer.events("job_state") if e["job"] == "low"]
        assert "preempted" in states and states[-1] == "done"
        # Suspension/resume did not perturb either trajectory.
        for result, seed, p in (
            (low_result, 21, params),
            (high_result, 22, SMALL),
        ):
            oracle = run_sequential_tsmo(instance, p, seed=seed)
            assert result.evaluations == oracle.evaluations
            assert np.array_equal(result.front(), oracle.front())

    def test_preempted_job_can_be_cancelled(self, instance):
        params = TSMOParams(max_evaluations=4000, neighborhood_size=8)

        async def scenario():
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                params=ServeParams(max_active=1),
            ) as scheduler:
                low = scheduler.submit(
                    JobSpec(job_id="low", seed=23, params=params, priority=0)
                )
                while low.evaluations < 16:
                    await asyncio.sleep(0.005)
                high = scheduler.submit(
                    JobSpec(job_id="high", seed=24, params=SMALL, priority=9)
                )
                while low.state != JobState.PREEMPTED:
                    await asyncio.sleep(0.005)
                assert scheduler.cancel("low") is True
                with pytest.raises(JobCancelled):
                    await low.wait()
                await high.wait()
                return scheduler.report()

        report = run(scenario())
        assert report["preemptions"] >= 1
        assert report["cancelled"] == 1 and report["completed"] == 1

    def test_equal_priority_never_preempts(self, instance):
        async def scenario():
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                params=ServeParams(max_active=1),
            ) as scheduler:
                first = scheduler.submit(
                    JobSpec(job_id="first", seed=25, params=SMALL, priority=3)
                )
                second = scheduler.submit(
                    JobSpec(job_id="second", seed=26, params=SMALL, priority=3)
                )
                await asyncio.gather(first.wait(), second.wait())
                return scheduler.report()

        report = run(scenario())
        assert report["preemptions"] == 0
        assert report["completed"] == 2


class TestCorruptCheckpoint:
    def test_corrupt_snapshot_restarts_fresh_and_loud(self, instance, tmp_path):
        (tmp_path / "serve_cc.ckpt").write_bytes(b"REPROCKPT garbage\x00\xff")

        async def scenario():
            obs = Obs()
            async with SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                checkpoint_dir=tmp_path,
                obs=obs,
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(
                        job_id="cc",
                        seed=31,
                        params=SMALL,
                        checkpoint_every=16,
                        resume=True,
                    )
                )
                result = await job.wait()
                return result, job, scheduler.report(), obs

        result, job, report, obs = run(scenario())
        # The job completed from scratch instead of raising out of the pump.
        assert report["completed"] == 1 and report["failed"] == 0
        assert job.checkpoint_corrupt is not None
        events = obs.tracer.events("job_checkpoint_corrupt")
        assert events and events[0]["job"] == "cc" and events[0]["error"]
        audit = JobLedger(tmp_path / LEDGER_FILENAME).audit()
        assert audit["conserved"] and audit["events"]["checkpoint_corrupt"] == 1
        # Fresh restart == plain sequential run.
        oracle = run_sequential_tsmo(instance, SMALL, seed=31)
        assert result.evaluations == oracle.evaluations
        assert np.array_equal(result.front(), oracle.front())


class TestPumpFailure:
    def test_pump_failure_goes_through_failure_bookkeeping(
        self, instance, monkeypatch
    ):
        """A crashing pump fails every unfinished job the way any other
        terminal failure does: counted in ``serve.jobs_failed``, ended
        with a terminal ``job_state`` (so tails close before the
        scheduler does) and its instance segment released."""
        payload = generate_instance("C1", 16, seed=7)
        dispatch = SolveScheduler._dispatch

        def crash_once_running(scheduler):
            if any(j.state == JobState.RUNNING for j in scheduler._active.values()):
                raise RuntimeError("injected pump fault")
            dispatch(scheduler)

        monkeypatch.setattr(SolveScheduler, "_dispatch", crash_once_running)

        async def scenario():
            obs = Obs()
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST, obs=obs
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(job_id="p", seed=4, params=SMALL, instance=payload)
                )
                # No await since submit: the tail subscribes before the
                # pump can admit the job.
                async with asyncio.timeout(5):
                    states = [
                        event["state"]
                        async for event in scheduler.tail("p")
                        if event.get("type") == "job_state"
                    ]
                with pytest.raises(ServeError, match="pump failed"):
                    await job.wait()
                return states, scheduler.report(), obs

        states, report, obs = run(scenario())
        assert report["failed"] == 1
        assert obs.metrics.counter("serve.jobs_failed") == report["failed"]
        assert states[-1] == JobState.FAILED
        assert report["instance_segments"] == 0


class TestChaosSoak:
    def test_seeded_schedule_conserves_and_stays_bit_identical(
        self, instance, tmp_path
    ):
        """The seeded fault schedule at CI's size: worker kills, a
        scheduler kill-and-restart with ledger recovery, torn
        checkpoints, injected crashes and preemptions — and still every
        job conserved and bit-identical to its sequential oracle."""
        n_jobs = 24
        plan = ServeFaultPlan.seeded(1, n_jobs)
        report = run(
            run_chaos_soak(
                instance,
                checkpoint_dir=tmp_path,
                plan=plan,
                n_jobs=n_jobs,
                n_workers=2,
                seed=1,
                budget=96,
                neighborhood=16,
                pool_params=FAST,
            )
        )
        assert report.conserved(), report.to_dict()
        assert report.traffic.completed == n_jobs
        assert len(plan.worker_kills) >= 2
        assert report.scheduler_kills >= 1
        assert report.recovered_jobs >= 1
        assert report.tears_applied >= 1
        assert report.job_retries >= 1
        assert report.preemptions >= 1
        assert report.bit_identical is True and report.verified_jobs == n_jobs
        # No job handle survives a scheduler kill: latency is unmeasured.
        assert report.traffic.latency_s["p50"] is None


class TestLedgerRecovery:
    def test_abort_then_new_scheduler_recovers_everything(self, instance, tmp_path):
        params = TSMOParams(max_evaluations=240, neighborhood_size=16)
        n_jobs = 5
        specs = [
            JobSpec(
                job_id=f"r{i}", seed=40 + i, params=params, checkpoint_every=32
            )
            for i in range(n_jobs)
        ]

        async def scenario():
            first = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            first.start()
            jobs = [first.submit(spec) for spec in specs]
            while not any(job.evaluations >= 32 for job in jobs):
                await asyncio.sleep(0.005)
            await first.abort()  # SIGKILL stand-in: no terminal bookkeeping
            aborted = sum(1 for job in jobs if job.state != JobState.DONE)
            assert aborted >= 1

            second = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            async with second:
                recovered = list(second._jobs.values())
                results = await asyncio.gather(*(j.wait() for j in recovered))
                report = second.report()
            return jobs, recovered, results, report

        jobs, recovered, results, report = run(scenario())
        assert report["recovered_jobs"] == len(recovered) >= 1
        assert report["completed"] == len(recovered)
        audit = JobLedger(tmp_path / LEDGER_FILENAME).audit()
        assert audit["conserved"], audit
        assert audit["accepted"] == n_jobs
        assert audit["events"]["recovered"] == len(recovered)
        # Recovered jobs finish bit-identically to uninterrupted runs.
        for job, result in zip(recovered, results):
            seed = 40 + int(job.job_id[1:])
            oracle = run_sequential_tsmo(instance, params, seed=seed)
            assert result.evaluations == oracle.evaluations
            assert np.array_equal(result.front(), oracle.front()), job.job_id

    def test_recovery_skips_resubmitted_ids(self, instance, tmp_path):
        async def scenario():
            first = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            first.start()
            first.submit(JobSpec(job_id="dup", seed=50, params=SMALL))
            await first.abort()

            second = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            async with second:
                # Recovery already re-admitted the id; a client that
                # re-submits adopts the recovered handle instead.
                with pytest.raises(ServeError, match="duplicate"):
                    second.submit(
                        JobSpec(job_id="dup", seed=50, params=SMALL, resume=True)
                    )
                job = second.get_job("dup")
                result = await job.wait()
                report = second.report()
            return result, report

        result, report = run(scenario())
        assert report["completed"] == 1 and report["recovered_jobs"] == 1
        assert result.evaluations >= SMALL.max_evaluations

    def test_recover_false_opts_out(self, instance, tmp_path):
        async def scenario():
            first = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            first.start()
            first.submit(JobSpec(job_id="o1", seed=51, params=SMALL))
            await first.abort()

            second = SolveScheduler(
                instance,
                n_workers=1,
                pool_params=FAST,
                checkpoint_dir=tmp_path,
                recover=False,
            )
            async with second:
                return dict(second._jobs), second.report()

        jobs, report = run(scenario())
        assert jobs == {} and report["recovered_jobs"] == 0


class TestJobLedger:
    def test_episode_replay_and_audit(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        ledger.record("accepted", "a", spec={"job_id": "a"})
        ledger.record("accepted", "b", spec={"job_id": "b"})
        ledger.record("retry", "a", attempt=1, cause="x")
        ledger.record("done", "a")
        open_episodes = ledger.replay()
        assert list(open_episodes) == ["b"]
        assert open_episodes["b"]["spec"] == {"job_id": "b"}
        audit = ledger.audit()
        assert audit["open"] == 1 and not audit["conserved"]
        ledger.record("failed", "b", cause="y")
        assert ledger.audit()["conserved"]

    def test_torn_tail_dropped_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = JobLedger(path)
        ledger.record("accepted", "a", spec={})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "event": "do')  # torn mid-append
        assert [e["event"] for e in ledger.entries()] == ["accepted"]
        # Complete the torn line into valid JSON of the wrong shape and
        # append after it: now it is mid-file corruption, not a tail.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('ne"}\n')
        ledger.record("done", "a")
        with pytest.raises(LedgerError, match="line 2"):
            list(ledger.entries())

    def test_rejects_unknown_event_kind(self, tmp_path):
        with pytest.raises(LedgerError, match="unknown ledger event"):
            JobLedger(tmp_path / "l.jsonl").record("exploded", "a")

    def test_audit_flags_orphans_and_duplicates(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        ledger.record("done", "ghost")  # terminal without accept
        ledger.record("accepted", "a", spec={})
        ledger.record("accepted", "a", spec={})  # re-accept while open
        audit = ledger.audit()
        assert audit["orphan_terminals"] == 1
        assert audit["duplicate_accepts"] == 1
        assert not audit["conserved"]


class TestSpecWire:
    def test_round_trip_with_overrides(self):
        spec = JobSpec(
            job_id="w",
            tenant="acme",
            seed=9,
            params=TSMOParams(max_evaluations=64, neighborhood_size=8),
            priority=2,
            max_retries=3,
            deadline_s=5.0,
        )
        wire = spec.to_wire()
        back = JobSpec.from_wire(wire, resume=True)
        assert back.resume is True
        assert back.params == spec.params
        assert back.job_id == spec.job_id and back.priority == 2
        assert back.max_retries == 3 and back.deadline_s == 5.0
        # Wire form survives JSON (what the ledger actually stores).
        import json as _json

        assert JobSpec.from_wire(_json.loads(_json.dumps(wire))).params == spec.params

    def test_validates_budget_fields(self):
        with pytest.raises(ServeError):
            JobSpec(job_id="x", max_retries=-1)
        with pytest.raises(ServeError):
            JobSpec(job_id="x", retry_backoff_s=-0.1)
        with pytest.raises(ServeError):
            JobSpec(job_id="x", deadline_s=0.0)


# ----------------------------------------------------------------------
# Per-job instances: multi-tenant in data, not just scheduling
# ----------------------------------------------------------------------
class TestPerJobInstances:
    def test_concurrent_jobs_match_their_own_oracles(self, instance):
        """Two lockstep jobs on *different* instances, one shared pool:
        each must be bit-identical to the sequential driver on its own
        instance, and the payload segment must die with its job."""
        other = generate_instance("C1", 16, seed=7)

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=2, pool_params=FAST
            ) as scheduler:
                own = scheduler.submit(
                    JobSpec(job_id="own", seed=21, params=SMALL, instance=other)
                )
                dft = scheduler.submit(JobSpec(job_id="dft", seed=22, params=SMALL))
                r_own, r_dft = await asyncio.gather(own.wait(), dft.wait())
                # The payload job is terminal: its segment is already gone.
                segments_at_terminal = scheduler._store.segment_count()
                report = scheduler.report()
            return r_own, r_dft, segments_at_terminal, report, scheduler

        r_own, r_dft, seg_term, report, scheduler = run(scenario())
        o_own = run_sequential_tsmo(other, SMALL, seed=21)
        o_dft = run_sequential_tsmo(instance, SMALL, seed=22)
        assert r_own.evaluations == o_own.evaluations
        assert r_own.iterations == o_own.iterations
        assert np.array_equal(r_own.front(), o_own.front())
        assert r_dft.evaluations == o_dft.evaluations
        assert r_dft.iterations == o_dft.iterations
        assert np.array_equal(r_dft.front(), o_dft.front())
        assert seg_term == 0
        assert report["instance_segments"] == 0
        # ... and close() left nothing mapped either.
        assert scheduler._store.segment_count() == 0

    def test_split_driver_solves_its_own_instance(self, instance):
        other = generate_instance("C1", 16, seed=7)

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=2, pool_params=FAST
            ) as scheduler:
                job = scheduler.submit(
                    JobSpec(
                        job_id="s",
                        seed=3,
                        params=SMALL,
                        driver="split",
                        n_tasks=3,
                        instance=other,
                    )
                )
                result = await job.wait()
                return result, scheduler.report()

        result, report = run(scenario())
        assert result.evaluations >= SMALL.max_evaluations
        assert result.algorithm == "serve-split"
        assert report["instance_segments"] == 0

    def test_same_instance_shares_one_segment(self, instance):
        """Two jobs carrying equal-content payloads dedupe to a single
        segment (the store keys by content fingerprint, not job id)."""
        payload = generate_instance("C1", 16, seed=7)
        twin = generate_instance("C1", 16, seed=7)

        async def scenario():
            async with SolveScheduler(
                instance, n_workers=1, pool_params=FAST
            ) as scheduler:
                a = scheduler.submit(
                    JobSpec(job_id="a", seed=1, params=SMALL, instance=payload)
                )
                b = scheduler.submit(
                    JobSpec(job_id="b", seed=2, params=SMALL, instance=twin)
                )
                peak = scheduler._store.segment_count()
                await asyncio.gather(a.wait(), b.wait())
                return peak, scheduler._store.segment_count()

        peak, final = run(scenario())
        assert peak == 1
        assert final == 0


# ----------------------------------------------------------------------
# The wrong-instance bugfix: identity is checked, never assumed
# ----------------------------------------------------------------------
class TestWrongInstanceRecovery:
    def test_recovery_against_different_instance_fails_loudly(
        self, instance, tmp_path
    ):
        """The regression this PR fixes: before the fingerprint rode the
        ledger, a scheduler restarted over a *different* instance would
        silently resume a default-instance job against the wrong
        problem and produce fronts for it.  Now the `accepted` entry
        pins the job to its instance's content hash and recovery fails
        the job loudly on mismatch."""
        params = TSMOParams(max_evaluations=240, neighborhood_size=16)
        spec = dict(job_id="pinned", seed=31, params=params, checkpoint_every=32)

        async def phase_one():
            first = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            first.start()
            job = first.submit(JobSpec(**spec))
            while job.evaluations < 32:
                await asyncio.sleep(0.005)
            await first.abort()  # SIGKILL stand-in

        async def phase_two():
            wrong = generate_instance("C1", 20, seed=99)  # not the instance
            async with SolveScheduler(
                wrong, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            ) as second:
                job = second.get_job("pinned")
                assert job.state == JobState.FAILED
                with pytest.raises(WrongInstanceError, match="fingerprint"):
                    await job.wait()
                return second.report()

        run(phase_one())
        report = run(phase_two())
        assert report["failed"] == 1 and report["completed"] == 0
        audit = JobLedger(tmp_path / LEDGER_FILENAME).audit()
        assert audit["conserved"], audit
        assert audit["events"]["wrong_instance"] == 1
        assert audit["events"]["recovered"] == 0

    def test_recovery_with_same_instance_still_resumes(self, instance, tmp_path):
        """Control for the test above: identical content (a fresh object
        with the same arrays) recovers and finishes bit-identically."""
        params = TSMOParams(max_evaluations=240, neighborhood_size=16)
        spec = dict(job_id="pinned", seed=31, params=params, checkpoint_every=32)

        async def phase_one():
            first = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            first.start()
            job = first.submit(JobSpec(**spec))
            while job.evaluations < 32:
                await asyncio.sleep(0.005)
            await first.abort()

        async def phase_two():
            same = generate_instance("R1", 20, seed=55)  # equal content
            async with SolveScheduler(
                same, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            ) as second:
                return await second.get_job("pinned").wait()

        run(phase_one())
        result = run(phase_two())
        oracle = run_sequential_tsmo(instance, params, seed=31)
        assert result.evaluations == oracle.evaluations
        assert np.array_equal(result.front(), oracle.front())

    def test_recovered_payload_jobs_resume_from_ledger_instances(
        self, instance, tmp_path
    ):
        """Kill-and-recover where the restarted scheduler's constructor
        instance is *different*: jobs that carried their own instance
        payloads are rebuilt from the ledger's wire form and still
        finish bit-identically to their own oracles."""
        payload = generate_instance("C1", 16, seed=7)
        params = TSMOParams(max_evaluations=240, neighborhood_size=16)

        async def scenario():
            first = SolveScheduler(
                instance, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            )
            first.start()
            job = first.submit(
                JobSpec(
                    job_id="carry",
                    seed=41,
                    params=params,
                    checkpoint_every=32,
                    instance=payload,
                )
            )
            while job.evaluations < 32:
                await asyncio.sleep(0.005)
            await first.abort()

            # The restart is constructed over an unrelated default
            # instance; the recovered job must NOT see it.
            unrelated = generate_instance("RC1", 24, seed=3)
            async with SolveScheduler(
                unrelated, n_workers=1, pool_params=FAST, checkpoint_dir=tmp_path
            ) as second:
                result = await second.get_job("carry").wait()
                segments = second._store.segment_count()
                report = second.report()
            return result, segments, report

        result, segments, report = run(scenario())
        assert report["recovered_jobs"] == 1 and report["completed"] == 1
        oracle = run_sequential_tsmo(payload, params, seed=41)
        assert result.evaluations == oracle.evaluations
        assert np.array_equal(result.front(), oracle.front())
        assert segments == 0
