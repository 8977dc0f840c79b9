"""Shared helpers for the benchmark suite.

Each ``bench_tableN.py`` regenerates one of the paper's tables at the
configured scale (``REPRO_BENCH_SCALE`` scales it up to the full
protocol), times the regeneration under pytest-benchmark, prints the
paper-style table, and writes it to ``benchmarks/output/`` so the
artifact survives the pytest capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.config import BenchConfig

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def bench_config() -> BenchConfig:
    """The experiment scale for this benchmark session."""
    return BenchConfig.from_env()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def emit(output_dir: Path, name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/output/."""
    print(f"\n{text}")
    (output_dir / f"{name}.txt").write_text(text, encoding="utf-8")


# ----------------------------------------------------------------------
# Hot-path timing ledger (BENCH_micro.json)
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).parent.parent
MICRO_JSON = REPO_ROOT / "BENCH_micro.json"

#: keys of the existing file carried over verbatim on rewrite, so
#: hand-recorded context (e.g. the measured speedup over the previous
#: baseline) survives regeneration.
_PRESERVED_KEYS = ("baseline", "notes")


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_micro.json`` at the repo root after a timed run.

    Triggers only when ``bench_micro.py`` benchmarks actually ran with
    timing enabled (skipped under ``--benchmark-disable``), giving
    future PRs a committed ledger of hot-path timings to diff against.
    The rows that ran replace their namesakes and every other row is
    kept, so a ``-k``-filtered run re-measures only what it selected.
    """
    import json
    import platform

    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or getattr(bench_session, "disabled", True):
        return
    micro = [
        bench
        for bench in bench_session.benchmarks
        if "bench_micro.py" in bench.fullname and bench.stats.rounds
    ]
    if not micro:
        return
    payload = {}
    previous = {}
    if MICRO_JSON.exists():
        try:
            previous = json.loads(MICRO_JSON.read_text(encoding="utf-8"))
            payload.update(
                {k: previous[k] for k in _PRESERVED_KEYS if k in previous}
            )
        except (ValueError, OSError):  # pragma: no cover - corrupt ledger
            pass
    payload["units"] = "seconds"
    payload["environment"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    rows = dict(previous.get("benchmarks", {}))
    for bench in micro:
        row = {
            "min": bench.stats.min,
            "median": bench.stats.median,
            "mean": bench.stats.mean,
            "stddev": bench.stats.stddev,
            "rounds": bench.stats.rounds,
        }
        # Benchmarks may attach side measurements (e.g. the wire-cost
        # byte ledger) via pytest-benchmark's extra_info.
        if bench.extra_info:
            row.update(bench.extra_info)
        rows[bench.name] = row
    payload["benchmarks"] = dict(sorted(rows.items()))
    # Kernel-on vs kernel-off ledger row: both neighborhood-sampling
    # benchmarks run the identical workload, differing only in the
    # REPRO_VECTOR_EVAL knob, so their ratio is the measured speedup of
    # the batch evaluation kernel on this machine.  It is recomputed
    # only when this run measured both; otherwise the old row stays.
    on, off = "test_neighborhood_sampling_50", "test_neighborhood_sampling_50_scalar"
    if "vector_kernel" in previous:
        payload["vector_kernel"] = previous["vector_kernel"]
    if {on, off} <= {bench.name for bench in micro}:
        payload["vector_kernel"] = {
            "kernel_on_median": rows[on]["median"],
            "kernel_off_median": rows[off]["median"],
            "speedup_off_over_on": round(rows[off]["median"] / rows[on]["median"], 3),
        }
    MICRO_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
