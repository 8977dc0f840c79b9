"""The metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per run collects every numeric fact the
search produces — iteration/restart counters, archive-size gauges,
neighborhood-size histograms — under dotted string names
(``search.iterations``, ``cache.hits``, ``pool.crashes``).  The
registry is *process-safe by value*: it never shares mutable state
across processes; workers snapshot their own registries (or raw
counters) and ship the plain-dict :meth:`export_state` back over the
existing result queues, and the master folds them in with
:meth:`merge_state`.  The same export/restore pair rides inside engine
checkpoints, so a crashed-and-resumed run reports cumulative totals,
not just the final leg's.

The disabled path is :class:`NullRegistry` (singleton
:data:`NULL_REGISTRY`): same interface, every method a no-op, and
``enabled`` is ``False`` — hot loops guard their instrumentation with
one attribute check (``if m.enabled:``) so a run without observability
pays essentially nothing (asserted by the overhead microbenchmark in
``benchmarks/bench_micro.py``).

Histograms use *fixed* bucket boundaries chosen at creation (defaults
in :data:`DEFAULT_BUCKETS`): fixed buckets make per-worker histograms
mergeable by plain addition, which adaptive schemes are not.  Wall
time is measured in one place, :class:`~repro.obs.profiler.PhaseProfiler`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import ObsError

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

#: default histogram bucket upper bounds (an implicit +inf bucket is
#: always appended).  Spans both "sizes" (pool/neighborhood counts) and
#: sub-millisecond timings; callers with a better idea pass their own.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
)


@dataclass(slots=True)
class _Histogram:
    """Fixed-boundary histogram: bucket counts + sum + count."""

    bounds: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)  # +inf bucket

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.n += 1


class MetricsRegistry:
    """Named counters, gauges and histograms for one run."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    #: class attribute so the hot-loop guard (``if m.enabled:``) is a
    #: plain attribute lookup with no per-instance storage.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- write side ----------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest observed value."""
        self._gauges[name] = value

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        """Record one sample into the fixed-bucket histogram ``name``.

        The boundaries are fixed on first use; later calls ignore the
        ``buckets`` argument (changing boundaries mid-run would make the
        series unmergeable).
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram(tuple(buckets))
        hist.observe(value)

    # -- read side -----------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    def snapshot(self) -> dict:
        """A plain-dict, JSON-serializable view of everything recorded.

        This is what lands on ``TSMOResult.metrics`` and what the
        ``repro-bench`` profile report renders.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.n,
                }
                for name, h in self._histograms.items()
            },
        }

    # -- persistence / cross-process merging ---------------------------
    def export_state(self) -> dict:
        """Checkpoint payload — identical shape to :meth:`snapshot`."""
        return self.snapshot()

    def restore_state(self, state: dict) -> None:
        """Replace all series with a previously exported state (keys
        other than the three series kinds, such as the ``"timers"`` of
        older checkpoints, are ignored)."""
        self._counters = dict(state.get("counters", {}))
        self._gauges = dict(state.get("gauges", {}))
        self._histograms = {}
        for name, h in state.get("histograms", {}).items():
            hist = _Histogram(tuple(h["bounds"]), counts=list(h["counts"]))
            hist.total = h["sum"]
            hist.n = h["count"]
            self._histograms[name] = hist

    def merge_state(self, state: dict) -> None:
        """Fold another registry's export into this one.

        Counters and histograms add; gauges take the incoming
        value (last writer wins — they are point-in-time readings).
        Histograms with mismatched boundaries raise
        :class:`~repro.errors.ObsError` naming both bucket sets rather
        than silently producing a meaningless sum.
        """
        for name, value in state.get("counters", {}).items():
            self.inc(name, value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name, value)
        for name, h in state.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = _Histogram(tuple(h["bounds"]))
            elif mine.bounds != tuple(h["bounds"]):
                raise ObsError(
                    f"histogram {name!r} has mismatched bucket boundaries: "
                    f"mine={tuple(mine.bounds)!r} vs "
                    f"incoming={tuple(h['bounds'])!r}"
                )
            mine.counts = [a + b for a, b in zip(mine.counts, h["counts"])]
            mine.total += h["sum"]
            mine.n += h["count"]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class NullRegistry:
    """The disabled registry: same interface, every method a no-op.

    ``enabled`` is ``False`` as a *class* attribute, so the hot-loop
    guard ``if m.enabled:`` costs two attribute lookups and a falsy
    branch — the entire price of disabled instrumentation.
    """

    __slots__ = ()

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name, value, buckets=DEFAULT_BUCKETS) -> None:
        return None

    def counter(self, name: str) -> float:
        return 0

    def gauge_value(self, name: str) -> float | None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def export_state(self) -> dict:
        return self.snapshot()

    def restore_state(self, state: dict) -> None:
        return None

    def merge_state(self, state: dict) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NullRegistry()"


#: the shared disabled registry every uninstrumented component points at.
NULL_REGISTRY = NullRegistry()
