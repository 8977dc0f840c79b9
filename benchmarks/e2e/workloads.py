"""The benchmark's four workloads, their correctness gates and metrics.

Every workload solves a fixed problem instance and builds the rest of
its inputs from the ``--seed`` it is given, sets up (the part
``setup_s`` times), runs one *untraced* measured window of
``--seconds`` and, for a traced run, replays the identical operations a
second time with span wrappers installed.  Operations are whole search
runs (``paper_r1_400``, ``mp_r2_400``) or whole serve jobs
(``serve_ladder``, ``serve_durable``).  See README.md for why each
workload exists and which layer metric should move which end-to-end
metric on which workload.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import (
    AdmissionError,
    JobSpec,
    ServeParams,
    SolveScheduler,
    TSMOParams,
    generate_instance,
    run_multiprocessing_tsmo,
    run_sequential_tsmo,
)
from repro.bench.config import BenchConfig
from repro.bench.runner import ALGORITHMS, run_configuration
from repro.parallel.costmodel import CostModel
from repro.serve.ledger import LEDGER_FILENAME, JobLedger

from checks import check_result, front_digest, front_key
from spans import SpanRecorder, coverage, instrument, self_times, write_jsonl

__all__ = ["METRICS", "WORKLOADS", "Outcome", "run_setup_only", "run_workload"]

OUT_DIR = Path(__file__).resolve().parent / "out"

#: every metric the benchmark can print, with its unit.
METRICS = {
    # end to end
    "setup_s": "s",
    "evals_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    # per layer: times every workload exercises
    "vrptw.generate_s": "s",
    "tabu.search.initialize_p50_s": "s",
    "tabu.search.select_p50_s": "s",
    "loadgen.lag_p99_s": "s",
    # per layer: self time as a share of the traced window
    "tabu.search.initialize.self_share": "ratio",
    "tabu.neighborhood.self_share": "ratio",
    "tabu.search.select.self_share": "ratio",
    "parallel.pool.lifecycle.self_share": "ratio",
    "parallel.pool.submit.self_share": "ratio",
    "parallel.pool.wait.self_share": "ratio",
    "parallel.shm.self_share": "ratio",
    "parallel.wire.self_share": "ratio",
    "serve.submit.self_share": "ratio",
    "serve.ledger.self_share": "ratio",
    "persistence.commit.self_share": "ratio",
    "serve.loop.self_share": "ratio",
    "serve.to_thread.self_share": "ratio",
    # per layer: a search module's own time as a share of its runs' wall time
    "parallel.base.self_share": "ratio",
    "parallel.sync_ts.self_share": "ratio",
    "parallel.async_ts.self_share": "ratio",
    "parallel.collab_ts.self_share": "ratio",
    "parallel.mp_backend.self_share": "ratio",
    # per layer: per-module throughput on the paper cell
    "parallel.base.evals_per_s": "1/s",
    "parallel.sync_ts.evals_per_s": "1/s",
    "parallel.async_ts.evals_per_s": "1/s",
    "parallel.collab_ts.evals_per_s": "1/s",
    # per layer: counts and ratios
    "core.stats_cache.hit_ratio": "ratio",
    "core.stats_cache.scans_per_eval": "ratio",
    "tabu.neighborhood.neighbors_per_call": "count",
    "parallel.pool.empty_poll_ratio": "ratio",
    "parallel.pool.events_per_poll": "count",
    "parallel.pool.polls_per_task": "count",
    "parallel.wire.bytes_per_iter": "B",
    "parallel.wire.delta_task_ratio": "ratio",
    "serve.queue_wait_share": "ratio",
    "serve.max_ok_rate_jps": "1/s",
    "serve.rejected": "count",
    "serve.preemptions": "count",
    "serve.ledger.bytes": "B",
    "persistence.commits": "count",
    # validity of the traced run
    "trace.residual_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: span name -> the layer its self time is charged to.
_LAYER_OF = {
    "tabu.search.initialize": "tabu.search.initialize",
    "tabu.neighborhood": "tabu.neighborhood",
    "tabu.search.select": "tabu.search.select",
    "parallel.pool.start": "parallel.pool.lifecycle",
    "parallel.pool.close": "parallel.pool.lifecycle",
    "parallel.pool.submit": "parallel.pool.submit",
    "parallel.pool.gather": "parallel.pool.wait",
    "parallel.pool.poll": "parallel.pool.wait",
    "parallel.shm.share": "parallel.shm",
    "parallel.wire.diff": "parallel.wire",
    "parallel.wire.encode": "parallel.wire",
    "parallel.wire.decode": "parallel.wire",
    "serve.submit": "serve.submit",
    "serve.ledger.record": "serve.ledger",
    "persistence.commit": "persistence.commit",
    "serve.loop": "serve.loop",
    "serve.to_thread": "serve.to_thread",
}

#: the paper's algorithms and the module (layer) that runs each.
_MODULE_OF = {
    "sequential": "parallel.base",
    "synchronous": "parallel.sync_ts",
    "asynchronous": "parallel.async_ts",
    "collaborative": "parallel.collab_ts",
}

#: a run is invalid when the load generator fell this far behind.
MAX_LAG_P99_S = 0.050
#: traced runs fail when layer spans leave more of the window uncovered.
MAX_RESIDUAL_SHARE = 0.10
#: serve: a rate step is "ok" at or under this p90 job latency.
SLO_P90_S = 1.0
#: serve: jobs whose fronts are compared with the sequential oracle.
ORACLE_SAMPLE = 20
#: serve_durable: every this many jobs, one priority job preempts.
PRIORITY_EVERY = 20
#: serve: give up waiting for stragglers after this long.
DRAIN_TIMEOUT_S = 60.0
#: generator seed of each workload's problem instance.  The instance is
#: part of the workload's definition, like a published benchmark
#: instance; ``--seed`` drives everything else (run seeds, job seeds,
#: arrival times, per-job instances).
INSTANCE_SEED = 1


def derive(seed: int, *salt: int) -> int:
    """A 32-bit seed for one input, derived from the run's ``--seed``."""
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Outcome:
    """What one workload process reports."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: human-readable diagnostics printed above the result line.
    notes: list[str] = field(default_factory=list)
    digest: str = ""


@dataclass
class Op:
    """One timed search run."""

    label: str
    module: str
    #: index of the group (cell or mp run) the run belongs to.
    group: int
    start: float
    end: float
    result: object
    searchers: int = 1

    @property
    def wall(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# Span-derived per-layer metrics (shared by all workloads)
# ----------------------------------------------------------------------
def layer_metrics(spans, windows):
    """Per-layer metrics, and each span name's (p50, p95) duration.

    ``windows`` are the intervals during which work was in the system;
    shares are self time over their union, the residual is the part of
    that union no span covers.
    """
    selfs = self_times(spans)
    busy, covered = coverage(spans, windows)
    per_layer: dict[str, float] = {}
    per_module: dict[str, list[float]] = {}
    calls: dict[str, list[float]] = {}
    items: dict[str, list[int]] = {}
    for span in spans:
        layer = _LAYER_OF.get(span.name)
        if layer is not None:
            per_layer[layer] = per_layer.get(layer, 0.0) + selfs[span.sid]
        else:
            acc = per_module.setdefault(span.name, [0.0, 0.0])
            acc[0] += selfs[span.sid]
            acc[1] += span.end - span.start
        calls.setdefault(span.name, []).append(span.end - span.start)
        if span.items is not None:
            items.setdefault(span.name, []).append(span.items)
    m: dict[str, float] = {}
    for layer in set(_LAYER_OF.values()):
        m[f"{layer}.self_share"] = _ratio(per_layer.get(layer, 0.0), busy)
    for module in (*_MODULE_OF.values(), "parallel.mp_backend"):
        own, wall = per_module.get(module, (0.0, 0.0))
        m[f"{module}.self_share"] = _ratio(own, wall)
    m["tabu.search.initialize_p50_s"] = quantile(calls.get("tabu.search.initialize", []), 0.5)
    m["tabu.search.select_p50_s"] = quantile(calls.get("tabu.search.select", []), 0.5)
    sizes = items.get("tabu.neighborhood", [])
    m["tabu.neighborhood.neighbors_per_call"] = _ratio(sum(sizes), len(sizes))
    polls = items.get("parallel.pool.poll", [])
    m["parallel.pool.empty_poll_ratio"] = _ratio(sum(1 for n in polls if n == 0), len(polls))
    m["parallel.pool.events_per_poll"] = _ratio(sum(polls), len(polls))
    m["parallel.pool.polls_per_task"] = _ratio(
        len(polls), len(calls.get("parallel.pool.submit", []))
    )
    m["persistence.commits"] = float(len(calls.get("persistence.commit", [])))
    m["trace.residual_share"] = _ratio(busy - covered, busy)
    per_call = {
        name: (quantile(d, 0.5), quantile(d, 0.95)) for name, d in sorted(calls.items())
    }
    return m, per_call


def _cache_metrics(results) -> dict[str, float]:
    hits = sum(r.cache_stats.hits for r in results)
    misses = sum(r.cache_stats.misses for r in results)
    evals = sum(r.evaluations for r in results)
    return {
        "core.stats_cache.hit_ratio": _ratio(hits, hits + misses),
        "core.stats_cache.scans_per_eval": _ratio(misses, evals),
    }


def _span_notes(per_call: dict[str, tuple[float, float]]) -> list[str]:
    return [
        f"  span {name:<28} p50 {p50 * 1e3:9.3f} ms  p95 {p95 * 1e3:9.3f} ms"
        for name, (p50, p95) in per_call.items()
    ]


# ----------------------------------------------------------------------
# Search workloads: paper_r1_400 and mp_r2_400
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchWorkload:
    name: str
    instance_class: str
    customers: int
    budget: int
    neighborhood: int
    restart_after: int
    processors: int
    #: run the real-process master-worker search instead of the
    #: paper's four simulated-cluster variants.
    real_processes: bool = False

    def build(self):
        return generate_instance(self.instance_class, self.customers, seed=INSTANCE_SEED)

    def group(self, instance, seed: int, k: int):
        """The operations of group ``k``: ``(label, module, run, searchers)``."""
        run_seed = derive(seed, 1, k)
        if self.real_processes:
            params = TSMOParams(
                max_evaluations=self.budget,
                neighborhood_size=self.neighborhood,
                restart_after=self.restart_after,
            )

            def run():
                return run_multiprocessing_tsmo(
                    instance, params, n_workers=self.processors, seed=run_seed,
                    chunks_per_worker=1,
                )

            return [(f"mp/{k}", "parallel.mp_backend", run, 1)]
        config = BenchConfig(
            city_fraction=1.0,
            max_evaluations=self.budget,
            neighborhood_size=self.neighborhood,
            restart_after=self.restart_after,
            collab_patience=self.restart_after,
        )
        cost = CostModel().for_neighborhood(self.neighborhood)
        ops = []
        for algorithm in ALGORITHMS:
            def run(algorithm=algorithm):
                return run_configuration(
                    algorithm, instance, config, self.processors, run_seed, cost
                )

            searchers = self.processors if algorithm == "collaborative" else 1
            ops.append((f"{algorithm}/{k}", _MODULE_OF[algorithm], run, searchers))
        return ops


def _search_pass(wl, instance, seed, groups, recorder=None, seconds=None) -> list[Op]:
    """Run whole groups: exactly ``groups`` of them, or with ``seconds``
    as many as make the pass end closest to that long."""
    ops: list[Op] = []
    started = time.perf_counter()
    k = 0
    while True:
        for label, module, run, searchers in wl.group(instance, seed, k):
            span = recorder.span(module, trace=label) if recorder else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                result = run()
            ops.append(Op(label, module, k, t0, time.perf_counter(), result, searchers))
        k += 1
        if seconds is None:
            if k >= groups:
                return ops
        else:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / k / 2 >= seconds:
                return ops


def _search_checks(wl, instance, ops) -> tuple[list[str], int]:
    """Invariant failures and the number of runs that had any."""
    errors = []
    failed = 0
    for op in ops:
        op_errors = check_result(op.label, op.result, instance, wl.budget, op.searchers)
        errors += op_errors
        failed += bool(op_errors)
    return errors, failed


def run_search(wl: SearchWorkload, seed: int, seconds: float, trace: bool, marks) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    instance = wl.build()
    generate_s = time.perf_counter() - t0
    marks["setup_done"] = time.perf_counter()

    plain = _search_pass(wl, instance, seed, None, seconds=seconds)
    out.attempted += len(plain)
    errors, out.failed = _search_checks(wl, instance, plain)
    n_groups = plain[-1].group + 1
    out.digest = front_digest(front_key(op.result) for op in plain if op.group == 0)
    # Closed loop: each run is due when set-up or the previous run ends.
    lags = [plain[0].start - marks["setup_done"]]
    lags += [b.start - a.end for a, b in zip(plain, plain[1:])]
    out.metrics["vrptw.generate_s"] = generate_s
    out.metrics["loadgen.lag_p99_s"] = quantile(lags, 0.99)
    for op in plain:
        out.notes.append(
            f"  {op.label:<18} {op.wall:8.3f} s  {op.result.evaluations:7d} evals"
            f"  sim_time {op.result.simulated_time}"
        )

    # One operation is one group: a whole cell, or one mp run.
    walls = [sum(op.wall for op in plain if op.group == k) for k in range(n_groups)]
    out.metrics.update(
        evals_per_s=_ratio(sum(op.result.evaluations for op in plain), sum(walls)),
        latency_p50_s=quantile(walls, 0.5),
        latency_p90_s=quantile(walls, 0.9),
    )
    if not trace:
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.errors += errors
        return out

    recorder = SpanRecorder()
    with instrument(recorder):
        traced = _search_pass(wl, instance, seed, n_groups, recorder=recorder)
    out.attempted += len(traced)
    t_errors, t_failed = _search_checks(wl, instance, traced)
    errors += t_errors
    out.failed += t_failed
    for a, b in zip(plain, traced):
        if front_key(a.result) != front_key(b.result):
            errors.append(f"{a.label}: traced front or sim_time differs from untraced")
    write_jsonl(OUT_DIR / f"trace-{wl.name}.jsonl", recorder.spans)
    layer, per_call = layer_metrics(recorder.spans, [(traced[0].start, traced[-1].end)])
    out.metrics.update(layer)
    out.metrics.update(_cache_metrics([op.result for op in traced]))
    out.metrics.update(_transport_metrics([op.result for op in traced]))
    out.metrics["trace.overhead_share"] = (
        _ratio(sum(op.wall for op in traced), sum(op.wall for op in plain)) - 1.0
    )
    # Per-module throughput comes from the untraced pass of this run.
    for module in _MODULE_OF.values():
        mine = [op for op in plain if op.module == module]
        out.metrics[f"{module}.evals_per_s"] = _ratio(
            sum(op.result.evaluations for op in mine), sum(op.wall for op in mine)
        )
    out.notes += _span_notes(per_call)
    pool_p50 = [op.result.extra["pool"]["latency"]["p50"] for op in traced if "pool" in op.result.extra]
    if pool_p50:
        out.notes.append(
            f"  pool.report() task latency p50 {statistics.median(pool_p50) * 1e3:.3f} ms"
        )
    out.errors += errors
    return out


def _transport_metrics(results) -> dict[str, float]:
    batch_bytes = delta = full = iterations = 0
    for r in results:
        transport = r.extra.get("pool", {}).get("transport")
        if transport is None:
            continue
        batch_bytes += transport["wire_batch_bytes"]
        delta += transport["delta_tasks"]
        full += transport["full_tasks"]
        iterations += r.iterations
    return {
        "parallel.wire.bytes_per_iter": _ratio(batch_bytes, iterations),
        "parallel.wire.delta_task_ratio": _ratio(delta, delta + full),
    }


# ----------------------------------------------------------------------
# Serve workloads: serve_ladder and serve_durable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    name: str
    #: (jobs/s, seconds) per rate step; step 0 lasts ``--seconds`` and
    #: is the one the end-to-end latency is measured at.
    steps: tuple[tuple[float, float | None], ...]
    durable: bool

    budget: int = 1000
    neighborhood: int = 50
    n_workers: int = 2
    warmup_rate: float = 2.0
    warmup_s: float = 2.0
    tenants: tuple[tuple[str, float], ...] = (("acme", 3.0), ("globex", 1.0))


@dataclass
class Arrival:
    offset: float
    step: int
    spec: JobSpec


def _params(wl: ServeWorkload) -> TSMOParams:
    return TSMOParams(max_evaluations=wl.budget, neighborhood_size=wl.neighborhood)


def _schedule(wl: ServeWorkload, seed: int, seconds: float) -> list[Arrival]:
    """An absolute open-loop schedule.

    Each step draws its arrivals as a Poisson process conditioned on
    its count (sorted uniform times over the step), so a step always
    offers ``rate * duration`` jobs.  In ``serve_durable`` every
    twentieth job has priority 1 and arrives 0.1 s after a batch of four
    ordinary jobs: the running set (``max_active=4``) is then full, so
    the priority job must preempt one to its checkpoint.  (With a batch
    every tenth job, half the jobs queue behind batches and the median
    latency lands between the two populations, varying 20% by seed.)
    """
    rng = np.random.default_rng(derive(seed, 4))
    params = _params(wl)
    tenants = [t for t, _ in wl.tenants]
    arrivals: list[Arrival] = []
    begin = 0.0
    index = 0
    for step, (rate, length) in enumerate(wl.steps):
        duration = seconds if length is None else length
        count = max(1, round(rate * duration))
        times = begin + np.sort(rng.uniform(0.0, duration, count))
        for t in times:
            priority = 0
            instance = None
            if wl.durable:
                if index % PRIORITY_EVERY == PRIORITY_EVERY - 1:
                    priority = 1
                if index % 2 == 1:
                    instance = generate_instance("C1", 100, seed=derive(seed, 3, index))
            spec = JobSpec(
                job_id=f"j{index}",
                tenant=tenants[index % len(tenants)],
                priority=priority,
                seed=derive(seed, 2, index),
                params=params,
                instance=instance,
            )
            arrivals.append(Arrival(float(t), step, spec))
            index += 1
        begin += duration
    if wl.durable:
        for i in range(PRIORITY_EVERY - 1, len(arrivals), PRIORITY_EVERY):
            batch_at = arrivals[i - 4].offset
            for j in range(i - 3, i):
                arrivals[j].offset = batch_at
            arrivals[i].offset = batch_at + 0.1
        arrivals.sort(key=lambda a: a.offset)
    return arrivals


@dataclass
class Sent:
    arrival: Arrival
    due: float
    lag: float
    job: object | None


async def _open_loop(scheduler, arrivals, prefix: str) -> list[Sent]:
    """Offer every arrival on the absolute schedule and wait for the jobs.

    The generator runs in its own thread, so its lag measures only how
    late it woke; each job is submitted on the scheduler's loop and
    timed from its due time, so a stalled loop shows in job latency.
    """
    loop = asyncio.get_running_loop()
    finished = loop.create_future()
    sent: list[Sent] = []
    base = time.monotonic() + 0.05

    def submit(arrival: Arrival, due: float, lag: float) -> None:
        spec = replace(arrival.spec, job_id=prefix + arrival.spec.job_id)
        try:
            job = scheduler.submit(spec)
        except AdmissionError:
            job = None
        sent.append(Sent(arrival, due, lag, job))

    def generate() -> None:
        for arrival in arrivals:
            due = base + arrival.offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            loop.call_soon_threadsafe(submit, arrival, due, time.monotonic() - due)
        loop.call_soon_threadsafe(finished.set_result, None)

    generator = threading.Thread(target=generate, name="loadgen", daemon=True)
    generator.start()
    try:
        await finished
    finally:
        generator.join()
    waits = [s.job.wait() for s in sent if s.job is not None]
    try:
        await asyncio.wait_for(
            asyncio.gather(*waits, return_exceptions=True), DRAIN_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        pass
    return sent


def _latency(s: Sent) -> float | None:
    job = s.job
    if job is None or job.state != "done":
        return None
    return job.finished_at - s.due


def _late(sent, t: float) -> int:
    """Jobs at time ``t`` that have been in the system for longer than
    the latency limit: a backlog that grows across a step means the
    service is not keeping up (a burst of fresh arrivals is not)."""
    return sum(
        1
        for s in sent
        if s.job is not None
        and s.due <= t - SLO_P90_S
        and (s.job.finished_at is None or s.job.finished_at > t)
    )


def _step_report(wl: ServeWorkload, sent) -> tuple[float, list[str]]:
    """Per-step p90 and backlog; the highest rate up to which every step
    meets the latency limit with nothing refused and no growing backlog."""
    notes = []
    max_ok = 0.0
    passing = True
    for step, (rate, _) in enumerate(wl.steps):
        mine = [s for s in sent if s.arrival.step == step]
        lats = [_latency(s) for s in mine]
        done = [x for x in lats if x is not None]
        refused = len(lats) - len(done)
        backlog_start = _late(sent, min(s.due for s in mine))
        backlog_end = _late(sent, max(s.due for s in mine))
        p90 = quantile(done, 0.9)
        ok = not refused and p90 <= SLO_P90_S and backlog_end <= backlog_start + 4
        passing = passing and ok
        if passing:
            max_ok = rate
        notes.append(
            f"  step {rate:4.0f} jobs/s: n={len(mine)} p50 {quantile(done, 0.5):.3f} s"
            f" p90 {p90:.3f} s refused {refused} late backlog {backlog_start}->{backlog_end}"
            f" {'ok' if ok else 'not ok'}"
        )
    return max_ok, notes


def _serve_checks(wl, instance, sent, prefix: str, *, oracle: bool) -> tuple[list[str], int]:
    """Conservation and per-job invariants, and with ``oracle`` a
    deterministic sample of jobs against the sequential oracle.
    Returns the failures and the number of jobs that had any."""
    errors: list[str] = []
    failed: set[str] = set()
    done = []
    for s in sent:
        name = prefix + s.arrival.spec.job_id
        if s.job is None:
            job_errors = [f"{name}: rejected at admission"]
        elif s.job.state != "done":
            job_errors = [f"{name}: ended in state {s.job.state!r}, not done"]
        else:
            done.append(s)
            own = s.arrival.spec.instance if s.arrival.spec.instance is not None else instance
            job_errors = check_result(name, s.job.result, own, wl.budget, 1)
        if job_errors:
            errors += job_errors
            failed.add(name)
    if oracle and done:
        picks = {round(i * (len(done) - 1) / (ORACLE_SAMPLE - 1)) for i in range(ORACLE_SAMPLE)}
        for i in sorted(picks):
            s = done[i]
            spec = s.arrival.spec
            own = spec.instance if spec.instance is not None else instance
            if front_key(run_sequential_tsmo(own, spec.params, seed=spec.seed)) != front_key(s.job.result):
                name = prefix + spec.job_id
                errors.append(f"{name}: front differs from run_sequential_tsmo")
                failed.add(name)
    return errors, len(failed)


def _pool_counters(scheduler) -> dict:
    report = scheduler.report()
    transport = report["pool"]["transport"]
    return {
        "rejected": report["rejected"],
        "preemptions": report["preemptions"],
        "wire_batch_bytes": transport["wire_batch_bytes"],
        "delta_tasks": transport["delta_tasks"],
        "full_tasks": transport["full_tasks"],
    }


async def _warm_up(scheduler, wl: ServeWorkload, marks, *, full: bool) -> None:
    """Set-up ends when the first job completes on the fresh pool; the
    rest of the warm-up (untimed) runs at ``warmup_rate``."""
    params = _params(wl)
    tenants = [t for t, _ in wl.tenants]

    def submit(i):
        return scheduler.submit(
            JobSpec(job_id=f"warm{i}", tenant=tenants[i % len(tenants)], seed=i, params=params)
        )

    jobs = [submit(0)]
    await jobs[0].wait()
    marks["setup_done"] = time.perf_counter()
    if not full:
        return
    for i in range(1, max(1, round(wl.warmup_rate * wl.warmup_s))):
        await asyncio.sleep(1.0 / wl.warmup_rate)
        jobs.append(submit(i))
    await asyncio.gather(*(j.wait() for j in jobs))


def _done(sent) -> list[Sent]:
    return [s for s in sent if _latency(s) is not None]


def _plain_metrics(wl: ServeWorkload, plain) -> dict[str, float]:
    """Throughput and latency of the step-0 jobs (the steady rate)."""
    step0 = [s for s in _done(plain) if s.arrival.step == 0]
    lats0 = [_latency(s) for s in step0]
    span = max(s.job.finished_at for s in step0) - min(s.due for s in step0) if step0 else 0.0
    return {
        "evals_per_s": _ratio(sum(s.job.result.evaluations for s in step0), span),
        "latency_p50_s": quantile(lats0, 0.5),
        "latency_p90_s": quantile(lats0, 0.9),
    }


def _traced_metrics(wl, plain, traced, recorder, before, after, ledger_growth, offset):
    """Per-layer metrics of a serve traced run.  Span shares come from
    the traced pass; job-level latencies from the untraced one."""
    windows = [
        (s.job.submitted_at + offset, s.job.finished_at + offset) for s in _done(traced)
    ]
    m, per_call = layer_metrics(recorder.spans, windows)
    results = [s.job.result for s in _done(traced)]
    m.update(_cache_metrics(results))
    delta = after["delta_tasks"] - before["delta_tasks"]
    full = after["full_tasks"] - before["full_tasks"]
    step0 = [s for s in _done(plain) if s.arrival.step == 0]
    t_lats0 = [_latency(s) for s in _done(traced) if s.arrival.step == 0]
    m.update(
        {
            "parallel.wire.bytes_per_iter": _ratio(
                after["wire_batch_bytes"] - before["wire_batch_bytes"],
                sum(r.iterations for r in results),
            ),
            "parallel.wire.delta_task_ratio": _ratio(delta, delta + full),
            "serve.rejected": float(after["rejected"] - before["rejected"]),
            "serve.preemptions": float(after["preemptions"] - before["preemptions"]),
            "serve.ledger.bytes": float(ledger_growth),
            "serve.queue_wait_share": _ratio(
                sum(s.job.started_at - s.job.submitted_at for s in step0),
                sum(_latency(s) for s in step0),
            ),
            "serve.max_ok_rate_jps": _step_report(wl, plain)[0],
            "trace.overhead_share": _ratio(
                quantile(t_lats0, 0.5), quantile([_latency(s) for s in step0], 0.5)
            )
            - 1.0,
        }
    )
    return m, per_call


async def _serve_session(wl, seed, seconds, trace, marks, setup_only) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    instance = generate_instance("R1", 100, seed=INSTANCE_SEED)
    arrivals = _schedule(wl, seed, seconds)
    out.metrics["vrptw.generate_s"] = time.perf_counter() - t0
    ckpt_dir = OUT_DIR / f"ckpt-{wl.name}-{os.getpid()}" if wl.durable else None
    if ckpt_dir is not None:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    ledger = JobLedger(ckpt_dir / LEDGER_FILENAME) if ckpt_dir is not None else None
    scheduler = SolveScheduler(
        instance,
        n_workers=wl.n_workers,
        params=ServeParams(max_active=4) if wl.durable else None,
        tenant_weights=dict(wl.tenants),
        checkpoint_dir=ckpt_dir,
        checkpoint_every=250 if wl.durable else None,
    )
    try:
        scheduler.start()
        await _warm_up(scheduler, wl, marks, full=not setup_only)
        if setup_only:
            return out

        plain = await _open_loop(scheduler, arrivals, "u")
        out.attempted += len(plain)
        errors, out.failed = _serve_checks(wl, instance, plain, "u", oracle=True)
        out.digest = front_digest(front_key(s.job.result) for s in _done(plain))
        out.notes += _step_report(wl, plain)[1]
        out.notes.append(
            f"  latency samples at {wl.steps[0][0]:.0f} jobs/s: "
            f"{sum(1 for s in _done(plain) if s.arrival.step == 0)}"
        )
        lags = [s.lag for s in plain]
        out.metrics["loadgen.lag_p99_s"] = quantile(lags, 0.99)
        if out.metrics["loadgen.lag_p99_s"] > MAX_LAG_P99_S:
            errors.append(
                f"invalid run: load generator lag p99 "
                f"{out.metrics['loadgen.lag_p99_s'] * 1e3:.1f} ms > {MAX_LAG_P99_S * 1e3:.0f} ms"
            )
        out.metrics.update(_plain_metrics(wl, plain))
        if trace:
            before = _pool_counters(scheduler)
            ledger_before = ledger.path.stat().st_size if ledger is not None else 0
            recorder = SpanRecorder()
            offset = time.perf_counter() - time.monotonic()
            with instrument(recorder):
                traced = await _open_loop(scheduler, arrivals, "t")
            after = _pool_counters(scheduler)
            ledger_growth = (ledger.path.stat().st_size if ledger is not None else 0) - ledger_before
            out.attempted += len(traced)
            t_errors, t_failed = _serve_checks(wl, instance, traced, "t", oracle=False)
            errors += t_errors
            out.failed += t_failed
            for a, b in zip(plain, traced):
                both_done = _latency(a) is not None and _latency(b) is not None
                if both_done and front_key(a.job.result) != front_key(b.job.result):
                    errors.append(f"{a.arrival.spec.job_id}: traced front differs from untraced")
            write_jsonl(OUT_DIR / f"trace-{wl.name}.jsonl", recorder.spans)
            layer, per_call = _traced_metrics(
                wl, plain, traced, recorder, before, after, ledger_growth, offset
            )
            out.metrics.update(layer)
            out.notes += _span_notes(per_call)
            pool_p50 = scheduler.report()["pool"]["latency"]["p50"]
            out.notes.append(f"  pool.report() task latency p50 {pool_p50 * 1e3:.3f} ms")
            if any(a.spec.priority for a in arrivals) and out.metrics["serve.preemptions"] <= 0:
                errors.append("serve_durable: the traced pass preempted no job")
        out.errors += errors
        return out
    finally:
        await scheduler.close()
        if not setup_only:
            report = scheduler.report()
            if report["failed"] or report["cancelled"]:
                out.errors.append(
                    f"scheduler report: {report['failed']} failed, {report['cancelled']} cancelled"
                )
            if ledger is not None:
                audit = ledger.audit()
                if not audit["conserved"]:
                    out.errors.append(f"ledger audit not conserved: {audit}")
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)


def run_serve(wl: ServeWorkload, seed, seconds, trace, marks, setup_only=False) -> Outcome:
    out = asyncio.run(_serve_session(wl, seed, seconds, trace, marks, setup_only))
    if not trace and not setup_only:
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# Registry and entry points
# ----------------------------------------------------------------------
WORKLOADS = {
    "paper_r1_400": SearchWorkload(
        name="paper_r1_400",
        instance_class="R1",
        customers=400,
        budget=8000,
        neighborhood=200,
        restart_after=8,
        processors=6,
    ),
    "mp_r2_400": SearchWorkload(
        name="mp_r2_400",
        instance_class="R2",
        customers=400,
        budget=20000,
        neighborhood=200,
        restart_after=20,
        processors=2,
        real_processes=True,
    ),
    "serve_ladder": ServeWorkload(
        name="serve_ladder",
        steps=((4.0, None), (8.0, 2.0), (16.0, 1.0)),
        durable=False,
    ),
    "serve_durable": ServeWorkload(
        name="serve_durable",
        steps=((4.0, None),),
        durable=True,
    ),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, marks) -> Outcome:
    wl = WORKLOADS[name]
    if isinstance(wl, SearchWorkload):
        out = run_search(wl, seed, seconds, trace, marks)
    else:
        out = run_serve(wl, seed, seconds, trace, marks)
    if not trace:
        return out
    # A layer the workload never enters reads 0 (no calls, no time).
    out.metrics = {**dict.fromkeys(METRICS, 0.0), **out.metrics}
    residual = out.metrics["trace.residual_share"]
    if residual > MAX_RESIDUAL_SHARE:
        out.errors.append(
            f"trace residual {residual:.3f} exceeds {MAX_RESIDUAL_SHARE}: "
            "layer spans do not account for the run's time"
        )
    return out


def run_setup_only(name: str, seed: int, seconds: float, marks) -> None:
    """Set up exactly as a measured run does, then stop."""
    wl = WORKLOADS[name]
    if isinstance(wl, SearchWorkload):
        wl.build()
        marks["setup_done"] = time.perf_counter()
    else:
        run_serve(wl, seed, seconds, False, marks, setup_only=True)
