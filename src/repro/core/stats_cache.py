"""Cross-iteration memoization of per-route statistics.

The tabu search's current solutions drift slowly: a move touches one or
two routes, every other route survives into the child unchanged, and
the *same* route tuples recur across neighbors of one iteration and
across consecutive iterations (a rejected neighbor's fresh route is
often re-proposed a few iterations later).  :class:`RouteStatsCache`
exploits that by memoizing :func:`repro.core.routes.route_stats` —
documented there as the single hottest function in the library — under
the route tuple itself, with a bounded LRU policy so memory stays flat
over 100k-evaluation runs.

One cache is shared across an entire search (and across all searchers
of a collaborative run on the same instance), which is what makes the
delta-evaluation engine in :meth:`repro.core.evaluation.Evaluator.
evaluate_move` O(changed routes) *amortized O(cache-miss routes)*.

Observability: the cache counts hits, misses, evictions and raw lookup
requests; :meth:`RouteStatsCache.snapshot` freezes them into a
:class:`CacheStats` record that search drivers thread into
``TSMOResult.cache_stats`` and the Figure-1 trace.

Knobs
-----
* ``capacity`` — maximum number of distinct route tuples retained
  (default 65536, ~a few MB of tuples + stats).  ``capacity=0``
  disables retention entirely: every lookup recomputes (and counts as
  a miss), which is the reference behavior for A/B testing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.routes import RouteStats, route_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vrptw.instance import Instance

__all__ = ["CacheStats", "RouteStatsCache"]

_DEFAULT_CAPACITY = 65536

#: placeholder stored by :meth:`RouteStatsCache.lookup_deferred` for a
#: counted miss whose stats the caller computes later (batch kernel).
_PENDING = object()


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time snapshot of :class:`RouteStatsCache` counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served (``hits + misses`` by construction)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Aggregate counters (size/capacity take the max — they are
        gauges, not counters; used to merge per-worker snapshots)."""
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=max(self.size, other.size),
            capacity=max(self.capacity, other.capacity),
        )


class RouteStatsCache:
    """Bounded LRU cache of ``route tuple -> RouteStats`` for one instance.

    Not thread-safe; the search is single-process (the simulated cluster
    multiplexes searchers cooperatively) and the multiprocessing backend
    gives each worker process its own cache.
    """

    __slots__ = ("instance", "capacity", "lookups", "hits", "misses", "evictions", "_data")

    def __init__(self, instance: "Instance", capacity: int = _DEFAULT_CAPACITY) -> None:
        self.instance = instance
        self.capacity = max(0, int(capacity))
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[tuple[int, ...], RouteStats] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def lookup(self, route: tuple[int, ...]) -> RouteStats:
        """Return the stats for ``route``, computing on miss."""
        self.lookups += 1
        data = self._data
        stats = data.get(route)
        if stats is not None:
            self.hits += 1
            data.move_to_end(route)
            return stats
        self.misses += 1
        stats = route_stats(self.instance, route)
        if self.capacity > 0:
            data[route] = stats
            if len(data) > self.capacity:
                data.popitem(last=False)
                self.evictions += 1
        return stats

    def lookup_deferred(self, route: tuple[int, ...]) -> RouteStats | None:
        """Like :meth:`lookup`, but the caller computes misses itself.

        Used by the batch kernel: counters and LRU motion are identical
        to :meth:`lookup` (a miss inserts a placeholder at the LRU tail,
        so eviction pressure matches too), but instead of scanning the
        route here, ``None`` is returned and the caller later provides
        the stats via :meth:`fulfill` — letting it deduplicate and
        vectorize the miss scans.  A pending route looked up again
        before fulfillment counts as a hit (same as the scalar path,
        where the first lookup would already have stored real stats);
        the caller resolves those from its own pending table.
        """
        self.lookups += 1
        data = self._data
        stats = data.get(route)
        if stats is not None:
            self.hits += 1
            data.move_to_end(route)
            return None if stats is _PENDING else stats
        self.misses += 1
        if self.capacity > 0:
            data[route] = _PENDING
            if len(data) > self.capacity:
                data.popitem(last=False)
                self.evictions += 1
        return None

    def fulfill(self, route: tuple[int, ...], stats: RouteStats) -> None:
        """Replace a :meth:`lookup_deferred` placeholder with real stats.

        Assignment to an existing key keeps its LRU position; a
        placeholder that was already evicted is *not* reinserted (its
        miss was counted, matching the scalar path's behavior of not
        retaining what the LRU pushed out).
        """
        data = self._data
        if data.get(route) is _PENDING:
            data[route] = stats

    def seed(self, route: tuple[int, ...], stats: RouteStats) -> None:
        """Insert already-computed stats (e.g. a parent's) without a scan."""
        if self.capacity > 0 and route not in self._data:
            self._data[route] = stats
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries; counters are preserved (they are lifetime totals)."""
        self._data.clear()

    def snapshot(self) -> CacheStats:
        """Freeze the current counters into a :class:`CacheStats`."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            capacity=self.capacity,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RouteStatsCache(size={len(self._data)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
