"""Synthetic open-loop traffic for the solve service.

:func:`run_traffic` plays a deterministic Poisson arrival process of
solve jobs against a running :class:`~repro.serve.SolveScheduler` —
*open loop*: arrivals never wait for completions, so overload actually
overloads (the service must reject, not slow the generator down).
Arrivals stop after ``n_jobs`` submissions, after ``duration_s``
seconds, or at whichever of the two comes first.  The resulting
:class:`TrafficReport` carries the service-level numbers — sustained
jobs/sec, exact per-job latency and queue-wait quantiles (jobs
finishing inside the ``warmup_s`` window left out), peaks over the
live ``metrics_snapshot`` stream — plus the conservation audit the
smoke tests assert on: every accepted job reaches exactly one terminal
state (``lost == 0``), no result is delivered twice
(``duplicates == 0``) and every completed job consumed its full budget
(``short_of_budget == 0``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import time

from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import AdmissionError, JobCancelled, ServeError
from repro.obs.timeutil import utc_timestamp
from repro.serve.job import JobSpec
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOResult

__all__ = [
    "TrafficConfig",
    "TrafficReport",
    "run_traffic",
    "write_report",
]


@dataclass(frozen=True, slots=True)
class TrafficConfig:
    """One reproducible traffic pattern (arrivals are a pure function
    of ``seed``).

    Set ``n_jobs``, ``duration_s`` or both; arrivals stop at whichever
    bound is reached first.
    """

    #: arrivals to offer (None: bounded by ``duration_s`` alone).
    n_jobs: int | None = 50
    #: seconds to keep offering arrivals (None: bounded by ``n_jobs``).
    duration_s: float | None = None
    #: jobs finishing within this many seconds of the start are left
    #: out of the latency quantiles (cold caches, worker spawn).
    warmup_s: float = 0.0
    #: mean arrival rate, jobs/second (exponential gaps); <= 0 means
    #: all jobs arrive at once (burst).
    rate: float = 500.0
    seed: int = 0
    #: per-job evaluation budget and neighborhood size.
    budget: int = 96
    neighborhood: int = 16
    #: ``(name, weight)`` pairs; jobs are assigned round-robin.
    tenants: tuple = (("acme", 1.0), ("globex", 1.0))
    driver: str = "lockstep"
    n_tasks: int = 1
    #: cancel every k-th accepted job right after submission (0: never).
    cancel_every: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs is None and self.duration_s is None:
            raise ServeError("traffic needs n_jobs, duration_s or both")
        if self.rate <= 0 and self.n_jobs is None:
            raise ServeError("a burst (rate <= 0) needs n_jobs")
        if self.warmup_s < 0 or (
            self.duration_s is not None and self.warmup_s >= self.duration_s
        ):
            raise ServeError("warmup must be >= 0 and shorter than the duration")


@dataclass
class TrafficReport:
    """What one traffic run measured."""

    #: arrivals offered to the scheduler (accepted + rejected).
    submitted: int
    accepted: int
    rejected: int
    completed: int
    cancelled: int
    failed: int
    #: accepted jobs that reached no terminal state — must be 0.
    lost: int
    #: completed results sharing a job id — must be 0.
    duplicates: int
    #: completed jobs that stopped short of their budget — must be 0.
    short_of_budget: int
    makespan_s: float
    jobs_per_sec: float
    peak_active: int
    #: exact quantiles over completed jobs finishing after the warm-up.
    latency_s: dict
    queue_wait_s: dict
    # Fault-tolerance counters (how much healing the run needed).
    job_retries: int = 0
    preemptions: int = 0
    recovered_jobs: int = 0
    #: live metrics_snapshot events seen, and the peaks over them.
    snapshots: int = 0
    max_backlog: int = 0
    max_queue_depth: int = 0
    #: events lost to slow tail subscribers (bus drop counters).
    dropped_events: int = 0

    @classmethod
    def audit(
        cls, outcomes, *, budget: int, since: float = float("-inf"), **fields
    ) -> "TrafficReport":
        """Classify every accepted job's raw outcome into a report.

        ``outcomes`` pairs each accepted job's handle with what waiting
        on it produced: a result, an exception, or ``None`` for a job
        that never reached a terminal state (counted lost).  A handle of
        ``None`` carries no timings, so its latency goes unmeasured.
        Completed jobs finishing before ``since`` (a ``time.monotonic``
        stamp) are left out of the quantiles.  ``fields`` supplies the
        rest of the report.
        """
        results, latencies, waits = [], [], []
        cancelled = failed = 0
        for job, outcome in outcomes:
            if isinstance(outcome, TSMOResult):
                results.append(outcome)
                if job is not None and job.finished_at >= since:
                    latencies.append(job.finished_at - job.submitted_at)
                    if job.started_at is not None:
                        waits.append(job.started_at - job.submitted_at)
            elif isinstance(outcome, JobCancelled):
                cancelled += 1
            elif isinstance(outcome, BaseException):
                failed += 1
        completed = len(results)
        makespan = fields["makespan_s"]
        return cls(
            accepted=len(outcomes),
            completed=completed,
            cancelled=cancelled,
            failed=failed,
            lost=len(outcomes) - completed - cancelled - failed,
            duplicates=completed - len({r.extra.get("job_id") for r in results}),
            short_of_budget=sum(1 for r in results if r.evaluations < budget),
            jobs_per_sec=completed / makespan if makespan > 0 else 0.0,
            latency_s=_quantiles(latencies),
            queue_wait_s=_quantiles(waits),
            **fields,
        )

    def conserved(self) -> bool:
        """The exactly-once audit: nothing lost, nothing duplicated,
        nothing silently truncated."""
        return (
            self.lost == 0
            and self.duplicates == 0
            and self.short_of_budget == 0
            and self.completed + self.cancelled + self.failed == self.accepted
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _quantiles(samples: list[float]) -> dict:
    # No samples means *no measurement*, not a zero-latency service:
    # aggregates are None (rendered "-"), never a fabricated 0.0 — the
    # same convention the histogram aggregators follow (NaN/garbage
    # aggregates are errors, not values).
    if not samples:
        return {"p50": None, "p95": None, "p99": None, "max": None, "mean": None}
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    return {
        "p50": float(np.quantile(arr, 0.50)),
        "p95": float(np.quantile(arr, 0.95)),
        "p99": float(np.quantile(arr, 0.99)),
        "max": float(arr[-1]),
        "mean": float(arr.mean()),
    }


async def run_traffic(
    scheduler, config: TrafficConfig, *, instances: tuple = ()
) -> TrafficReport:
    """Play ``config`` against a started scheduler and measure it.

    ``instances`` (optional) is a sequence of
    :class:`~repro.vrptw.instance.Instance` objects assigned to jobs
    round-robin as per-job payloads — the mixed-instance mode; empty
    means every job solves the scheduler's default instance.  Live
    ``metrics_snapshot`` events are read off the scheduler's own
    telemetry bus while the run lasts, so a run also exercises the
    streaming plane end to end.
    """
    rng = np.random.default_rng(config.seed)
    mix = tuple(instances)
    tenants = list(config.tenants)
    params = TSMOParams(
        max_evaluations=config.budget, neighborhood_size=config.neighborhood
    )
    # (pool_backlog, jobs_queued) per live snapshot.
    samples: list[tuple[int, int]] = []

    async def watch() -> None:
        async for event in scheduler.tail_all():
            if event.get("type") == "metrics_snapshot":
                snap = event["snapshot"]
                samples.append((snap["pool_backlog"], snap["jobs_queued"]))

    watcher = asyncio.ensure_future(watch())
    loop = asyncio.get_running_loop()
    start = loop.time()
    since = time.monotonic() + config.warmup_s
    deadline = None if config.duration_s is None else start + config.duration_s
    jobs = []
    submitted = rejected = 0
    try:
        while config.n_jobs is None or submitted < config.n_jobs:
            if config.rate > 0:
                await asyncio.sleep(float(rng.exponential(1.0 / config.rate)))
            if deadline is not None and loop.time() >= deadline:
                break
            i = submitted
            submitted += 1
            spec = JobSpec(
                job_id=f"job-{i:05d}",
                tenant=tenants[i % len(tenants)][0],
                seed=config.seed * 1_000_003 + i,
                params=params,
                driver=config.driver,
                n_tasks=config.n_tasks,
                instance=mix[i % len(mix)] if mix else None,
            )
            try:
                job = scheduler.submit(spec)
            except AdmissionError:
                rejected += 1
                continue
            except ServeError as exc:
                if "duplicate job id" not in str(exc):
                    raise
                # The scheduler recovered this job from its ledger before
                # the generator re-offered it: adopt the live handle so
                # the conservation audit still sees one outcome per id.
                job = scheduler.get_job(spec.job_id)
            jobs.append(job)
            if config.cancel_every and len(jobs) % config.cancel_every == 0:
                scheduler.cancel(job.job_id)
        outcomes = await asyncio.gather(
            *(job.wait() for job in jobs), return_exceptions=True
        )
        makespan = loop.time() - start
    finally:
        watcher.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await watcher
    return TrafficReport.audit(
        list(zip(jobs, outcomes)),
        budget=config.budget,
        since=since,
        submitted=submitted,
        rejected=rejected,
        makespan_s=makespan,
        peak_active=scheduler.peak_active,
        job_retries=scheduler.job_retries,
        preemptions=scheduler.preemptions,
        recovered_jobs=scheduler.recovered_jobs,
        snapshots=len(samples),
        max_backlog=max((b for b, _ in samples), default=0),
        max_queue_depth=max((q for _, q in samples), default=0),
        dropped_events=scheduler.bus.dropped(),
    )


def write_report(
    report: TrafficReport,
    path,
    *,
    config: TrafficConfig | None = None,
    extra: dict | None = None,
) -> None:
    """Write ``report`` (plus its config and any ``extra`` keys) as JSON."""
    payload = {
        "bench": "serve",
        "written_at": utc_timestamp(),
        "report": report.to_dict(),
    }
    if config is not None:
        payload["config"] = asdict(config)
    if extra:
        payload.update(extra)
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
