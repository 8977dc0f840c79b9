"""Deterministic chaos for the solve service.

:class:`ServeFaultPlan` extends the worker pool's
:class:`~repro.parallel.pool.FaultPlan` to every fault domain the
service spans: worker processes (SIGKILL-style exits, stragglers),
the pump (injected stalls), checkpoints (mid-run crash injection and
torn tail bytes) and the scheduler itself (kill-and-restart).  Every
fault is *scheduled*, not random — a plan is a pure value, the
environment form ``REPRO_SERVE_FAULTS`` round-trips it, and
:meth:`ServeFaultPlan.seeded` derives a reproducible schedule from a
seed — so a chaos failure replays exactly.

:func:`run_chaos_soak` drives the whole failure story end to end: it
plays a burst of jobs against a supervised scheduler, kills workers
and the scheduler mid-flight per the plan, tears checkpoint files
between incarnations, lets ledger recovery re-admit the survivors,
and then audits the wreckage — traffic conservation, ledger episode
conservation and (for lockstep jobs) bit-identity of every completed
front against the uninterrupted sequential oracle.
"""

from __future__ import annotations

import asyncio
import os
import random

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.errors import ServeError
from repro.obs import NULL_OBS
from repro.parallel.pool import FaultPlan
from repro.serve.job import JobSpec
from repro.serve.ledger import LEDGER_FILENAME, JobLedger
from repro.serve.scheduler import ServeParams, SolveScheduler
from repro.serve.traffic import TrafficReport
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOResult, run_sequential_tsmo

__all__ = ["ChaosReport", "ServeFaultPlan", "run_chaos_soak", "tear_checkpoint"]


@dataclass(frozen=True)
class ServeFaultPlan:
    """A deterministic schedule of service-level faults.

    * ``worker_kills`` / ``worker_delays`` — forwarded to the pool's
      :class:`~repro.parallel.pool.FaultPlan` (first scheduler
      incarnation only; a recovered scheduler gets a healthy pool).
    * ``stalls`` — ``(pump_cycle, seconds)``: the pump sleeps before
      that cycle, simulating an event-loop hiccup.
    * ``scheduler_kills`` — each entry is a count of terminal jobs;
      when the soak reaches it the scheduler is killed with no
      shutdown bookkeeping and a fresh one recovers from the ledger.
    * ``tears`` — job ids whose checkpoint file loses its tail bytes
      between incarnations (the torn-write crash signature).
    * ``crashes`` — ``(job_id, evaluations)``: the job's first attempt
      raises :class:`~repro.errors.CrashInjected` at that evaluation
      count, exercising retry-from-checkpoint.

    The environment form ``REPRO_SERVE_FAULTS`` is a comma list of
    ``kill-worker:SLOT@ORDINAL[+BATCHES]``,
    ``delay-worker:SLOT@ORDINAL:SECONDS``, ``stall:CYCLE:SECONDS``,
    ``kill-scheduler:AFTER_DONE``, ``tear:JOB_ID`` and
    ``crash:JOB_ID@EVALUATIONS`` items.
    """

    worker_kills: tuple[tuple[int, int, int | None], ...] = ()
    worker_delays: tuple[tuple[int, int, float], ...] = ()
    stalls: tuple[tuple[int, float], ...] = ()
    scheduler_kills: tuple[int, ...] = ()
    tears: tuple[str, ...] = ()
    crashes: tuple[tuple[str, int], ...] = ()

    # -- the scheduler's view (duck-typed; see SolveScheduler(chaos=)) --
    def stall_for(self, cycle: int) -> float:
        return sum(seconds for at, seconds in self.stalls if at == cycle)

    def crash_after_for(self, job_id: str) -> int | None:
        for target, evaluations in self.crashes:
            if target == job_id:
                return evaluations
        return None

    def pool_plan(self) -> FaultPlan | None:
        if not self.worker_kills and not self.worker_delays:
            return None
        return FaultPlan(kills=self.worker_kills, delays=self.worker_delays)

    @staticmethod
    def from_env(spec: str | None = None) -> "ServeFaultPlan | None":
        """Parse ``REPRO_SERVE_FAULTS`` (or an explicit spec string)."""
        if spec is None:
            spec = os.environ.get("REPRO_SERVE_FAULTS", "")
        spec = spec.strip()
        if not spec:
            return None
        worker_kills: list[tuple[int, int, int | None]] = []
        worker_delays: list[tuple[int, int, float]] = []
        stalls: list[tuple[int, float]] = []
        scheduler_kills: list[int] = []
        tears: list[str] = []
        crashes: list[tuple[str, int]] = []
        for item in spec.split(","):
            item = item.strip()
            kind, _, rest = item.partition(":")
            try:
                if kind == "kill-worker":
                    slot_s, _, ordinal_s = rest.partition("@")
                    ordinal_s, _, after_s = ordinal_s.partition("+")
                    worker_kills.append(
                        (int(slot_s), int(ordinal_s), int(after_s) if after_s else None)
                    )
                elif kind == "delay-worker":
                    where, _, seconds_s = rest.partition(":")
                    slot_s, _, ordinal_s = where.partition("@")
                    worker_delays.append(
                        (int(slot_s), int(ordinal_s), float(seconds_s))
                    )
                elif kind == "stall":
                    cycle_s, _, seconds_s = rest.partition(":")
                    stalls.append((int(cycle_s), float(seconds_s)))
                elif kind == "kill-scheduler":
                    scheduler_kills.append(int(rest))
                elif kind == "tear":
                    if not rest:
                        raise ValueError("tear needs a job id")
                    tears.append(rest)
                elif kind == "crash":
                    job_s, _, evals_s = rest.partition("@")
                    if not job_s:
                        raise ValueError("crash needs a job id")
                    crashes.append((job_s, int(evals_s)))
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except ValueError as exc:
                raise ServeError(
                    f"malformed REPRO_SERVE_FAULTS item {item!r}: {exc}"
                ) from exc
        return ServeFaultPlan(
            worker_kills=tuple(worker_kills),
            worker_delays=tuple(worker_delays),
            stalls=tuple(stalls),
            scheduler_kills=tuple(sorted(scheduler_kills)),
            tears=tuple(tears),
            crashes=tuple(crashes),
        )

    @classmethod
    def seeded(cls, seed: int, n_jobs: int) -> "ServeFaultPlan":
        """A reproducible schedule covering every fault domain at once:
        two worker kills, a pump stall, one scheduler kill-and-restart,
        torn checkpoints and two mid-run crash injections."""
        rng = random.Random(seed)
        kill_at = max(2, n_jobs // 3)
        mid = kill_at + 1
        crash_targets = sorted(rng.sample(range(n_jobs), min(2, n_jobs)))
        return cls(
            worker_kills=(
                (0, rng.randrange(2, 5), None),
                (1, rng.randrange(4, 8), 1),
            ),
            stalls=((rng.randrange(10, 30), 0.05),),
            scheduler_kills=(kill_at,),
            tears=tuple(f"chaos-{mid + k:05d}" for k in range(3) if mid + k < n_jobs),
            # Crash past the default first snapshot threshold so the
            # retry demonstrably resumes from a checkpoint, not scratch.
            crashes=tuple((f"chaos-{k:05d}", 40) for k in crash_targets),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def tear_checkpoint(path) -> bool:
    """Truncate a checkpoint file's tail — the signature of a crash
    midway through a (non-atomic) write.  Returns whether anything was
    torn (a missing or empty file is left alone)."""
    p = Path(path)
    if not p.exists():
        return False
    size = p.stat().st_size
    if size < 2:
        return False
    with open(p, "r+b") as handle:
        handle.truncate(size // 2)
    return True


@dataclass
class ChaosReport:
    """What one chaos soak survived, and whether the books balance."""

    traffic: TrafficReport
    ledger: dict
    incarnations: int
    scheduler_kills: int
    worker_kills: int
    tears_applied: int
    crash_targets: int
    job_retries: int
    preemptions: int
    recovered_jobs: int
    #: None when verification was skipped, else the oracle comparison.
    bit_identical: bool | None
    verified_jobs: int

    def conserved(self) -> bool:
        """The soak-level invariant: traffic conserved, ledger episodes
        conserved, and no completed front diverged from its oracle."""
        return (
            self.traffic.conserved()
            and bool(self.ledger.get("conserved"))
            and self.bit_identical is not False
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["traffic"] = self.traffic.to_dict()
        out["conserved"] = self.conserved()
        return out


async def run_chaos_soak(
    instance,
    *,
    checkpoint_dir,
    plan: ServeFaultPlan | None = None,
    n_jobs: int = 60,
    n_workers: int = 2,
    seed: int = 0,
    budget: int = 96,
    neighborhood: int = 16,
    checkpoint_every: int | None = None,
    max_retries: int = 2,
    tenants: tuple = (("acme", 1.0), ("globex", 1.0)),
    serve_params: ServeParams | None = None,
    pool_params=None,
    obs=NULL_OBS,
    verify_bit_identity: bool = True,
    instances: tuple = (),
) -> ChaosReport:
    """Run the full failure story once and audit the books.

    Submits ``n_jobs`` lockstep jobs (ids ``chaos-00000``…, a high
    priority sprinkled in to force preemption), applies ``plan``'s
    faults — killing and restarting the scheduler over the same
    checkpoint directory so ledger recovery re-admits open episodes —
    and returns a :class:`ChaosReport` whose :meth:`~ChaosReport.conserved`
    must hold for *any* plan: no accepted job lost or double-counted,
    every ledger episode closed exactly once, and every completed
    lockstep front bit-identical to an uninterrupted sequential run.

    ``instances`` (optional) round-robins per-job instance payloads
    into the specs, exactly as in the traffic generator; each
    completed job is then verified against the sequential oracle on
    *its own* instance, and a kill-and-restart proves recovery rebuilds
    per-job instances from the ledger rather than the constructor.
    """
    if plan is None:
        plan = ServeFaultPlan.seeded(seed, n_jobs)
    mix = tuple(instances)
    if checkpoint_every is None:
        # Snapshot at every iteration boundary: a kill then always finds
        # live checkpoints, so recovery (and tearing) has teeth.
        checkpoint_every = max(min(neighborhood, budget // 4), 4)
    if serve_params is None:
        serve_params = ServeParams(max_active=4, max_queued=max(2 * n_jobs, 128))
    params = TSMOParams(max_evaluations=budget, neighborhood_size=neighborhood)
    tenant_names = [name for name, _ in tenants]
    specs = [
        JobSpec(
            job_id=f"chaos-{i:05d}",
            tenant=tenant_names[i % len(tenant_names)],
            seed=seed * 1_000_003 + i,
            params=params,
            driver="lockstep",
            # A high-priority job every so often, arriving into a full
            # running set, drives the preemption path.
            priority=5 if i % 9 == 7 else 0,
            max_retries=max_retries,
            retry_backoff_s=0.01,
            instance=mix[i % len(mix)] if mix else None,
        )
        for i in range(n_jobs)
    ]
    checkpoint_dir = Path(checkpoint_dir)

    loop = asyncio.get_running_loop()
    t0 = loop.time()
    # Each terminal job's raw outcome: its result or its exception.
    outcomes: dict[str, object] = {}
    kills = sorted(plan.scheduler_kills)
    tears_pending = set(plan.tears)
    tears_applied = 0
    incarnations = 0
    scheduler_kills_done = 0
    peak_active = 0
    agg = {"job_retries": 0, "preemptions": 0, "recovered_jobs": 0}

    while len(outcomes) < len(specs):
        if incarnations > len(kills) + 2:
            raise ServeError(
                f"chaos soak did not converge: {len(outcomes)}/{len(specs)} "
                f"jobs terminal after {incarnations} scheduler incarnations"
            )
        incarnations += 1
        first = incarnations == 1
        scheduler = SolveScheduler(
            instance,
            n_workers=n_workers,
            params=serve_params,
            pool_params=pool_params,
            tenant_weights=dict(tenants),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            obs=obs,
            # Injected faults belong to the first incarnation; the
            # recovered scheduler proves the clean-recovery path.
            fault_plan=plan.pool_plan() if first else None,
            chaos=plan if first else None,
        )
        killed = False
        scheduler.start()  # recovers the previous incarnation's open episodes
        handles = dict(scheduler._jobs)
        # High-priority jobs are held back on the first incarnation so
        # they *arrive* into a full running set — that, not queue order,
        # is what drives the preemption path.
        late: list[JobSpec] = []
        for spec in specs:
            if spec.job_id in outcomes or spec.job_id in handles:
                continue
            if first and spec.priority > 0:
                late.append(spec)
                continue
            handles[spec.job_id] = scheduler.submit(spec)
        kill_at = kills[scheduler_kills_done] if scheduler_kills_done < len(kills) else None
        while True:
            done_ids = [jid for jid, job in handles.items() if job.done()]
            if late and (done_ids or not handles):
                for spec in late:
                    handles[spec.job_id] = scheduler.submit(spec)
                late = []
                continue
            if kill_at is not None and len(outcomes) + len(done_ids) >= kill_at:
                killed = True
                break
            if len(done_ids) == len(handles):
                break
            await asyncio.sleep(0.02)
        # Collect terminal outcomes *before* tearing anything down —
        # an aborted scheduler cancels the remaining futures.
        for jid, job in handles.items():
            if jid in outcomes or not job.done():
                continue
            future = job._future
            if future.cancelled():
                continue
            exc = future.exception()
            outcomes[jid] = exc if exc is not None else future.result()
        report = scheduler.report()
        peak_active = max(peak_active, report["peak_active"])
        for key in agg:
            agg[key] += report[key]
        if killed:
            scheduler_kills_done += 1
            await scheduler.abort()
            if tears_pending:
                for jid in sorted(tears_pending):
                    path = checkpoint_dir / f"serve_{jid}.ckpt"
                    if tear_checkpoint(path):
                        tears_applied += 1
                if not tears_applied:
                    # The named jobs finished before the kill: tear any
                    # surviving snapshot so the corrupt-resume path is
                    # still exercised.
                    for path in sorted(checkpoint_dir.glob("serve_*.ckpt")):
                        if tear_checkpoint(path):
                            tears_applied += 1
                            break
                tears_pending.clear()
        else:
            await scheduler.close()

    # Handles do not survive a scheduler kill, so no job carries
    # timings: the latency quantiles read None (no measurement).
    traffic = TrafficReport.audit(
        [(None, outcomes.get(spec.job_id)) for spec in specs],
        budget=budget,
        submitted=len(specs),
        rejected=0,
        makespan_s=loop.time() - t0,
        peak_active=peak_active,
        **agg,
    )

    verified = 0
    bit_identical: bool | None = None
    if verify_bit_identity:
        bit_identical = True
        by_id = {spec.job_id: spec for spec in specs}
        for jid, result in outcomes.items():
            spec = by_id[jid]
            if not isinstance(result, TSMOResult) or spec.driver != "lockstep":
                continue
            own = spec.instance if spec.instance is not None else instance
            oracle = run_sequential_tsmo(own, spec.params, seed=spec.seed)
            verified += 1
            if not (
                result.evaluations == oracle.evaluations
                and result.iterations == oracle.iterations
                and result.restarts == oracle.restarts
                and np.array_equal(result.front(), oracle.front())
            ):
                bit_identical = False

    ledger = JobLedger(checkpoint_dir / LEDGER_FILENAME)
    return ChaosReport(
        traffic=traffic,
        ledger=ledger.audit() if ledger.exists() else {"conserved": False},
        incarnations=incarnations,
        scheduler_kills=scheduler_kills_done,
        worker_kills=len(plan.worker_kills),
        tears_applied=tears_applied,
        crash_targets=len(plan.crashes),
        job_retries=agg["job_retries"],
        preemptions=agg["preemptions"],
        recovered_jobs=agg["recovered_jobs"],
        bit_identical=bit_identical,
        verified_jobs=verified,
    )
