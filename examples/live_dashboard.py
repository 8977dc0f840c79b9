#!/usr/bin/env python
"""Watch a solve service live: snapshot tables off the telemetry bus.

The scheduler publishes every traced event — job lifecycle, worker
batches, periodic ``metrics_snapshot`` readings — onto an in-process
:class:`~repro.obs.stream.EventBus`.  Anything can subscribe without
touching the search: a slow subscriber drops *its own* oldest events
(counted, never blocking the pump), so watching a run can never change
it — the bit-identity guard in ``tests/test_telemetry.py`` holds the
service to that.

This example submits a burst of jobs from two tenants to a real
two-worker service, consumes the live snapshot stream with
:meth:`~repro.serve.SolveScheduler.tail_all` while the jobs run, and
prints a dashboard table mid-run: jobs in flight, queue depth, pool
backlog, per-tenant deficit-round-robin credit, and running latency
quantiles estimated from the mergeable histograms.  At the end it
tails one job's full event stream and renders the final Prometheus
exposition — the same text a scraper would pull.

Run:  python examples/live_dashboard.py
"""

import asyncio

from repro.obs import quantile_from_histogram, render_exposition
from repro.parallel.pool import PoolParams
from repro.serve import JobSpec, ServeParams, SolveScheduler
from repro.tabu.params import TSMOParams
from repro.vrptw.generator import generate_instance

#: shrunk supervision intervals so the demo finishes in seconds.
DEMO_POOL = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)

N_JOBS = 10
PARAMS = TSMOParams(max_evaluations=64, neighborhood_size=8)
TENANTS = {"acme": 3.0, "globex": 1.0}


def latency_quantiles(snapshot):
    hist = snapshot.get("metrics", {}).get("histograms", {}).get(
        "serve.job_latency_s"
    )
    if not hist or hist.get("count", 0) == 0:
        return "-", "-"
    p50 = quantile_from_histogram(hist["bounds"], hist["counts"], 0.50)
    p99 = quantile_from_histogram(hist["bounds"], hist["counts"], 0.99)
    return f"{p50 * 1e3:.0f}ms", f"{p99 * 1e3:.0f}ms"


def print_row(snapshot, header=False):
    if header:
        print(
            f"{'active':>6} {'queued':>6} {'backlog':>7} {'done':>4} "
            f"{'p50':>7} {'p99':>7}  deficits"
        )
    p50, p99 = latency_quantiles(snapshot)
    deficits = " ".join(
        f"{tenant}={value:.1f}"
        for tenant, value in snapshot.get("deficits", {}).items()
    )
    print(
        f"{snapshot['jobs_active']:>6} {snapshot['jobs_queued']:>6} "
        f"{snapshot['pool_backlog']:>7} "
        f"{snapshot['counters'].get('completed', 0):>4} "
        f"{p50:>7} {p99:>7}  {deficits}"
    )


async def main():
    instance = generate_instance("R1", 20, seed=55)
    # Cap concurrency well below the job count so the dashboard shows a
    # real queue draining (and so jobs tailed after submission are
    # still queued — their running -> done transitions get streamed).
    params = ServeParams(snapshot_interval=0.1, max_active=3, max_queued=64)

    async with SolveScheduler(
        instance,
        n_workers=2,
        pool_params=DEMO_POOL,
        params=params,
        tenant_weights=TENANTS,
    ) as scheduler:
        # -- the live dashboard: one table row per metrics_snapshot ----
        rows = 0

        async def watch():
            nonlocal rows
            async for event in scheduler.tail_all():
                if event["type"] != "metrics_snapshot":
                    continue
                print_row(event["snapshot"], header=rows == 0)
                rows += 1

        watcher = asyncio.ensure_future(watch())

        print(f"== submitting {N_JOBS} jobs from {len(TENANTS)} tenants ==")
        tenants = list(TENANTS)
        jobs = [
            scheduler.submit(
                JobSpec(
                    job_id=f"job-{i:02d}",
                    tenant=tenants[i % len(tenants)],
                    seed=100 + i,
                    params=PARAMS,
                )
            )
            for i in range(N_JOBS)
        ]

        # -- tail one still-queued job's stream while everything runs --
        # (events published before the subscription are gone — the bus
        # buffers per-subscriber, not globally — but with max_active=3
        # the later jobs are still queued, so their running -> done
        # transitions get streamed in full).
        lifecycle = []

        async def tail_one():
            async for event in scheduler.tail("job-07"):
                if event["type"] == "job_state":
                    lifecycle.append(event["state"])

        tailer = asyncio.ensure_future(tail_one())

        await asyncio.gather(*(job.wait() for job in jobs))
        await tailer
        await asyncio.sleep(0.25)  # a final snapshot with everything done
        watcher.cancel()
        try:
            await watcher
        except asyncio.CancelledError:
            pass

        print(f"\njob-07 lifecycle as streamed: {' -> '.join(lifecycle)}")
        print(
            f"bus: {scheduler.bus.published} events published, "
            f"{scheduler.bus.dropped()} dropped, {rows} snapshots rendered"
        )

        # -- what a scraper would pull -------------------------------
        print("\n== final exposition (excerpt) ==")
        text = render_exposition(scheduler.obs.metrics.snapshot())
        for line in text.splitlines():
            if "serve_jobs" in line or "job_latency_s_bucket" in line:
                print(line)


if __name__ == "__main__":
    asyncio.run(main())
