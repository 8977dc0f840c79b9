"""Prometheus-style text exposition of a metrics snapshot.

:func:`render_exposition` turns :meth:`MetricsRegistry.snapshot`
output into the text format scrapers (and humans) read: ``# TYPE``
lines, counters/gauges as plain samples, and histograms as cumulative
``_bucket{le="..."}`` series with ``_sum``/``_count``.  Dotted metric
names become underscore-separated (``serve.job_latency_s`` →
``repro_serve_job_latency_s``).

:func:`quantile_from_histogram` estimates quantiles from fixed-bucket
counts by linear interpolation inside the containing bucket — the same
estimate Prometheus's ``histogram_quantile`` makes, and the running
p50/p99 the ``--watch`` view prints.  No external dependency; pure
string assembly.
"""

from __future__ import annotations

import re

__all__ = [
    "quantile_from_histogram",
    "render_exposition",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str) -> str:
    flat = _NAME_RE.sub("_", name.replace(".", "_"))
    return f"{prefix}_{flat}" if prefix else flat


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_exposition(snapshot: dict, *, prefix: str = "repro") -> str:
    """The snapshot as Prometheus text exposition (one trailing newline)."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_fmt(float(bound))}"}} {cumulative}')
        cumulative += hist["counts"][len(hist["bounds"])]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_fmt(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def quantile_from_histogram(
    bounds, counts, q: float
) -> float | None:
    """Estimate the ``q``-quantile (0..1) from fixed-bucket counts.

    Linear interpolation inside the containing bucket, with the first
    bucket anchored at 0 (latencies and sizes are non-negative here).
    A quantile landing in the +inf bucket reports the largest finite
    boundary — an admitted under-estimate, exactly like Prometheus.
    Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        lower = 0.0 if i == 0 else float(bounds[i - 1])
        if i >= len(bounds):
            # +inf bucket: no finite upper edge to interpolate toward.
            return float(bounds[-1]) if bounds else lower
        upper = float(bounds[i])
        if cumulative + count >= rank:
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        cumulative += count
    return float(bounds[-1]) if bounds else None
