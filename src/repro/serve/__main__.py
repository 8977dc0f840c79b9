"""``python -m repro.serve`` — the open-loop load test for the solve service.

Runs a reproducible open-loop workload against a fresh scheduler and
prints (and optionally writes, with ``--out``) the service-level
numbers: throughput, exact per-job latency and queue-wait quantiles,
and peaks over the live snapshot stream.  With ``--smoke`` it exits
non-zero unless the exactly-once audit holds — this is the command the
CI ``serve`` job runs.

Example::

    PYTHONPATH=src python -m repro.serve --jobs 60 --rate 500 \\
        --workers 2 --budget 96 --neighborhood 16 \\
        --tenants acme:3,globex:1 --out serve.json --smoke

``--soak SECONDS`` bounds the same workload by duration instead of job
count: the arrival rate is held for that long, and jobs finishing in
the first ``--warmup`` seconds are left out of the quantiles.
``--watch`` (usable with any mode that runs a local scheduler) tails
the live telemetry bus and prints one status line per
``metrics_snapshot`` — jobs in flight, queue depth, DRR deficits and
running latency quantiles — without perturbing the run::

    PYTHONPATH=src python -m repro.serve --soak 30 --warmup 5 \\
        --rate 10 --workers 2 --watch --out soak.json --smoke

``--chaos`` switches to the deterministic chaos soak instead: the same
jobs are driven through seeded worker kills, a scheduler
kill-and-restart (with ledger recovery), torn checkpoints and injected
crashes, and the run must still conserve every job::

    PYTHONPATH=src python -m repro.serve --chaos --jobs 60 \\
        --checkpoint-dir /tmp/serve-chaos --out chaos.json --smoke

``--faults`` (or ``REPRO_SERVE_FAULTS``) overrides the seeded schedule
with an explicit one, e.g.
``kill-worker:0@3,stall:12:0.05,kill-scheduler:20,tear:chaos-00021``.

``--instances CLASS:SIZE[:SEED],...`` makes the workload
multi-instance: every generated instance rides its job's spec as a
shared-memory payload, round-robin across arrivals (the first listed
instance doubles as the scheduler default).  ``--tail-port PORT``
additionally serves the telemetry bus over TCP, and ``--connect
HOST:PORT`` turns this command into a pure client of such a server —
no scheduler, no pool, just the remote event stream rendered exactly
like ``--watch``::

    # terminal 1: serve a mixed-instance soak with a tail server
    PYTHONPATH=src python -m repro.serve --soak 30 --rate 10 \\
        --instances R1:20,C1:16:7 --tail-port 9400

    # terminal 2 (any machine): watch it live
    PYTHONPATH=src python -m repro.serve --watch --connect 127.0.0.1:9400
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys

from repro.obs.expo import quantile_from_histogram, render_exposition
from repro.obs.timeutil import utc_timestamp
from repro.serve.chaos import ServeFaultPlan, run_chaos_soak
from repro.serve.scheduler import ServeParams, SolveScheduler
from repro.serve.traffic import TrafficConfig, run_traffic, write_report
from repro.vrptw.generator import generate_instance


def _parse_instances(text: str) -> tuple:
    """Parse ``CLASS:SIZE[:SEED],...`` into generated instances.

    The seed defaults to each entry's position so two unseeded entries
    of the same class/size still produce *different* instances — the
    point of a mixed-instance run.
    """
    instances = []
    for position, part in enumerate(text.split(",")):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) not in (2, 3):
            raise argparse.ArgumentTypeError(
                f"bad instance spec {part!r} (expected CLASS:SIZE[:SEED])"
            )
        klass = pieces[0]
        try:
            size = int(pieces[1])
            seed = int(pieces[2]) if len(pieces) == 3 else position
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad instance spec {part!r}: {exc}"
            ) from None
        instances.append(generate_instance(klass, size, seed=seed))
    if not instances:
        raise argparse.ArgumentTypeError("--instances needs at least one entry")
    return tuple(instances)


def _parse_connect(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"bad --connect address {text!r} (expected HOST:PORT)"
        )
    return host, int(port)


def _parse_tenants(text: str) -> tuple:
    tenants = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition(":")
        tenants.append((name, float(weight) if weight else 1.0))
    return tuple(tenants) or (("default", 1.0),)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--jobs", type=int, default=50, help="jobs to submit (ignored with --soak)"
    )
    parser.add_argument(
        "--rate", type=float, default=500.0, help="mean arrivals/second (<=0: burst)"
    )
    parser.add_argument("--seed", type=int, default=0, help="traffic + job seed base")
    parser.add_argument("--workers", type=int, default=2, help="pool worker processes")
    parser.add_argument("--budget", type=int, default=96, help="evaluations per job")
    parser.add_argument(
        "--neighborhood", type=int, default=16, help="neighbors per iteration"
    )
    parser.add_argument(
        "--driver", choices=("lockstep", "split"), default="lockstep"
    )
    parser.add_argument(
        "--n-tasks", type=int, default=1, help="tasks/iteration (split driver)"
    )
    parser.add_argument(
        "--tenants",
        type=_parse_tenants,
        default=(("acme", 1.0), ("globex", 1.0)),
        help="name:weight,... (default acme:1,globex:1)",
    )
    parser.add_argument("--max-active", type=int, default=64)
    parser.add_argument("--max-queued", type=int, default=256)
    parser.add_argument(
        "--cancel-every", type=int, default=0, help="cancel every k-th job (0: never)"
    )
    parser.add_argument(
        "--instance-class", default="R1", help="C1/C2/R1/R2/RC1/RC2"
    )
    parser.add_argument("--instance-size", type=int, default=20)
    parser.add_argument("--instance-seed", type=int, default=55)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="exit non-zero unless zero jobs were lost or duplicated",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="enable per-job checkpoints + the durable job ledger here",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="default snapshot cadence (evaluations) for all jobs",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the deterministic chaos soak (requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="explicit REPRO_SERVE_FAULTS-style schedule for --chaos "
        "(default: seeded from --seed)",
    )
    parser.add_argument(
        "--soak",
        type=float,
        default=None,
        metavar="SECONDS",
        help="offer arrivals for this many seconds instead of a fixed "
        "job count (uses --rate as the sustained arrival rate)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=0.0,
        help="leave jobs finishing in the first SECONDS of the run out of "
        "the latency quantiles",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="tail the live telemetry bus and print one status line per "
        "metrics snapshot (stderr)",
    )
    parser.add_argument(
        "--expo",
        default=None,
        metavar="PATH",
        help="write a Prometheus-style text exposition of the final "
        "metrics here",
    )
    parser.add_argument(
        "--instances",
        type=_parse_instances,
        default=None,
        metavar="CLASS:SIZE[:SEED],...",
        help="mixed-instance workload: jobs carry these instances "
        "round-robin as shared-memory payloads (first entry is also "
        "the scheduler default)",
    )
    parser.add_argument(
        "--tail-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the live telemetry bus over TCP on this port "
        "(0: ephemeral; address is printed at startup)",
    )
    parser.add_argument(
        "--connect",
        type=_parse_connect,
        default=None,
        metavar="HOST:PORT",
        help="pure-client mode: tail a remote scheduler's event stream "
        "instead of running one (combine with --watch / --smoke)",
    )
    return parser


def _fmt_ms(seconds) -> str:
    """Render a latency quantile, or ``-`` when there is no data.

    Empty aggregates are ``None`` (no measurement), never a fabricated
    0 ms — see the traffic-report quantile helpers.
    """
    return f"{seconds * 1e3:.0f}ms" if seconds is not None else "-"


def _watch_line(snapshot: dict) -> str:
    """One human-readable status line per live ``metrics_snapshot``."""
    hist = snapshot.get("metrics", {}).get("histograms", {}).get(
        "serve.job_latency_s"
    )
    p50 = p99 = None
    if hist and hist.get("count", 0) > 0:
        p50 = quantile_from_histogram(hist["bounds"], hist["counts"], 0.50)
        p99 = quantile_from_histogram(hist["bounds"], hist["counts"], 0.99)
    quantiles = f"p50={_fmt_ms(p50)} p99={_fmt_ms(p99)}"
    counters = snapshot.get("counters", {})
    stream = snapshot.get("stream", {})
    deficits = " ".join(
        f"{tenant}={value:.1f}"
        for tenant, value in snapshot.get("deficits", {}).items()
    )
    return (
        f"[watch] active={snapshot.get('jobs_active', 0)} "
        f"queued={snapshot.get('jobs_queued', 0)} "
        f"backlog={snapshot.get('pool_backlog', 0)} "
        f"done={counters.get('completed', 0)} "
        f"rejected={counters.get('rejected', 0)} {quantiles} "
        f"drops={stream.get('dropped', 0)}"
        + (f" | drr {deficits}" if deficits else "")
    )


async def _watch_loop(scheduler) -> None:
    """Print the live snapshot stream until cancelled (or bus close).

    Pure consumer: it subscribes to the scheduler's telemetry bus like
    any other tail, so a slow terminal can only drop *its own* events,
    never slow the pump.
    """
    async for event in scheduler.tail_all():
        if event.get("type") == "metrics_snapshot":
            print(_watch_line(event["snapshot"]), file=sys.stderr, flush=True)


@contextlib.asynccontextmanager
async def _watching(scheduler, enabled: bool):
    task = asyncio.ensure_future(_watch_loop(scheduler)) if enabled else None
    try:
        yield
    finally:
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task


async def _announce_tail(scheduler, enabled: bool) -> None:
    if not enabled:
        return
    host, port = await scheduler.tail_address()
    print(f"serve: tail server listening on {host}:{port}", flush=True)


async def _run_connect(args) -> int:
    """Pure-client mode: tail a remote scheduler and render its stream.

    Prints one ``--watch`` status line per ``metrics_snapshot`` and one
    ``[event]`` line per job lifecycle event; exits when the server
    ends the stream (scheduler shutdown).  With ``--smoke`` the exit
    code asserts the stream was *live*: at least one metrics snapshot
    and at least one terminal ``job_state`` must have arrived.
    """
    from repro.obs.stream import is_terminal_job_event
    from repro.obs.tailserv import tail_client

    host, port = args.connect
    snapshots = 0
    terminals = 0
    events = 0
    async for event in tail_client(host, port):
        events += 1
        kind = event.get("type")
        if kind == "metrics_snapshot":
            snapshots += 1
            print(_watch_line(event["snapshot"]), flush=True)
        elif kind == "job_state":
            if is_terminal_job_event(event):
                terminals += 1
            print(
                f"[event] job={event.get('job')} state={event.get('state')}",
                flush=True,
            )
    print(
        f"serve-connect: stream from {host}:{port} ended after {events} "
        f"event(s) ({snapshots} snapshot(s), {terminals} terminal "
        f"job state(s))"
    )
    if args.smoke and (snapshots < 1 or terminals < 1):
        print(
            "serve-connect: SMOKE FAILURE — expected a live stream with "
            f">=1 metrics_snapshot and >=1 terminal job_state, got "
            f"snapshots={snapshots} terminals={terminals}",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_expo(path: str, scheduler) -> None:
    text = render_exposition(scheduler.obs.metrics.snapshot())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"serve: wrote exposition {path}")


def _default_instance(args):
    """The scheduler's default instance: the first ``--instances``
    entry when a mix is given, the classic single-instance flags
    otherwise."""
    if args.instances:
        return args.instances[0]
    return generate_instance(
        args.instance_class, args.instance_size, seed=args.instance_seed
    )


async def _run_chaos(args) -> int:
    if not args.checkpoint_dir:
        print("serve: --chaos requires --checkpoint-dir", file=sys.stderr)
        return 2
    instance = _default_instance(args)
    plan = ServeFaultPlan.from_env(args.faults)
    if plan is None:
        plan = ServeFaultPlan.seeded(args.seed, args.jobs)
    report = await run_chaos_soak(
        instance,
        checkpoint_dir=args.checkpoint_dir,
        plan=plan,
        n_jobs=args.jobs,
        n_workers=args.workers,
        seed=args.seed,
        budget=args.budget,
        neighborhood=args.neighborhood,
        checkpoint_every=args.checkpoint_every,
        tenants=args.tenants,
        instances=args.instances or (),
    )
    traffic = report.traffic
    print(
        f"serve-chaos: {traffic.completed}/{traffic.accepted} completed "
        f"({traffic.cancelled} cancelled, {traffic.failed} failed) across "
        f"{report.incarnations} scheduler incarnation(s) in "
        f"{traffic.makespan_s:.2f}s"
    )
    print(
        f"serve-chaos: kills={report.scheduler_kills} "
        f"worker_kills={report.worker_kills} tears={report.tears_applied} "
        f"crashes={report.crash_targets} retries={report.job_retries} "
        f"preemptions={report.preemptions} recovered={report.recovered_jobs}"
    )
    print(
        f"serve-chaos: ledger conserved={report.ledger.get('conserved')} "
        f"bit_identical={report.bit_identical} "
        f"(verified {report.verified_jobs} fronts)"
    )
    if args.out:
        payload = {
            "bench": "serve-chaos",
            "written_at": utc_timestamp(),
            "plan": plan.to_dict(),
            "report": report.to_dict(),
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
        print(f"serve-chaos: wrote {args.out}")
    if args.smoke and not report.conserved():
        print(
            "serve-chaos: SMOKE FAILURE — conservation audit failed: "
            f"lost={traffic.lost} duplicates={traffic.duplicates} "
            f"ledger={report.ledger} bit_identical={report.bit_identical}",
            file=sys.stderr,
        )
        return 1
    return 0


async def _run(args) -> int:
    instance = _default_instance(args)
    config = TrafficConfig(
        n_jobs=args.jobs if args.soak is None else None,
        duration_s=args.soak,
        warmup_s=args.warmup,
        rate=args.rate,
        seed=args.seed,
        budget=args.budget,
        neighborhood=args.neighborhood,
        tenants=args.tenants,
        driver=args.driver,
        n_tasks=args.n_tasks,
        cancel_every=args.cancel_every,
    )
    params = ServeParams(max_active=args.max_active, max_queued=args.max_queued)
    async with SolveScheduler(
        instance,
        n_workers=args.workers,
        params=params,
        tenant_weights=dict(args.tenants),
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        tail_port=args.tail_port,
    ) as scheduler:
        await _announce_tail(scheduler, args.tail_port is not None)
        async with _watching(scheduler, args.watch):
            report = await run_traffic(
                scheduler, config, instances=args.instances or ()
            )
        pool_report = scheduler.report().get("pool", {})
        if args.expo:
            _write_expo(args.expo, scheduler)
    latency, wait = report.latency_s, report.queue_wait_s
    print(
        f"serve: {report.completed}/{report.accepted} jobs completed "
        f"({report.rejected} rejected, {report.cancelled} cancelled, "
        f"{report.failed} failed) in {report.makespan_s:.2f}s "
        f"= {report.jobs_per_sec:.1f} jobs/s"
    )
    print(
        f"serve: latency p50={_fmt_ms(latency['p50'])} "
        f"p95={_fmt_ms(latency['p95'])} p99={_fmt_ms(latency['p99'])}, "
        f"queue wait p50={_fmt_ms(wait['p50'])} p99={_fmt_ms(wait['p99'])} "
        f"(exact, warmup {config.warmup_s:g}s trimmed)"
    )
    print(
        f"serve: peak_active={report.peak_active} "
        f"max_backlog={report.max_backlog} "
        f"max_queue_depth={report.max_queue_depth} "
        f"snapshots={report.snapshots} dropped_events={report.dropped_events}, "
        f"pool tasks={pool_report.get('tasks_completed', 0)} "
        f"retries={pool_report.get('retries', 0)}"
    )
    if args.out:
        write_report(
            report,
            args.out,
            config=config,
            extra={
                "n_workers": args.workers,
                "instances": [inst.name for inst in args.instances or (instance,)],
                "pool": pool_report,
            },
        )
        print(f"serve: wrote {args.out}")
    if args.smoke and not report.conserved():
        print(
            "serve: SMOKE FAILURE — conservation audit failed: "
            f"lost={report.lost} duplicates={report.duplicates} "
            f"short_of_budget={report.short_of_budget} "
            f"accepted={report.accepted} completed={report.completed} "
            f"cancelled={report.cancelled} failed={report.failed}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.connect is not None:
        return asyncio.run(_run_connect(args))
    if args.chaos:
        return asyncio.run(_run_chaos(args))
    return asyncio.run(_run(args))


if __name__ == "__main__":
    sys.exit(main())
