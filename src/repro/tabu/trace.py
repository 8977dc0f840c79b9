"""Search-trajectory recording (the data behind Figure 1).

Figure 1 of the paper shows "a fictional search trajectory for the
asynchronous TS approaching the pareto-optimal front.  The numbers
denote the iteration at which the solution was created.  Equal numbers
denote solutions belonging to the same neighborhood.  The circles mark
solutions which have been selected as current solutions."

:class:`TrajectoryRecorder` captures exactly those series from a real
run: every evaluated neighbor with its creation iteration, every
selected current solution with the iteration that selected it (which,
for the asynchronous variant, can differ from its creation iteration —
the carryover the figure illustrates), and the archive front over
time.

The recorder is the in-memory form of the Figure-1 arrays.  Traced runs
get the same selections from the engine's own ``move_applied`` events
(which carry the ``created`` iteration); the recorder does not mirror
anything onto the event stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.objectives import ObjectiveVector

__all__ = ["TrajectoryRecorder", "TrajectoryPoint"]


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One recorded event of the search trajectory."""

    created_iteration: int
    selected_iteration: int  # -1 for neighbors never selected
    distance: float
    vehicles: int
    tardiness: float
    restarted: bool = False


@dataclass
class TrajectoryRecorder:
    """Collects trajectory events during a search run.

    ``max_neighbors`` caps the stored neighbor points (selected points
    are always kept) so long runs do not hoard memory.
    """

    max_neighbors: int | None = 100_000
    neighbors: list[TrajectoryPoint] = field(default_factory=list)
    selections: list[TrajectoryPoint] = field(default_factory=list)
    archive_sizes: list[tuple[int, int]] = field(default_factory=list)
    #: cumulative route-stats cache counters per iteration:
    #: ``(iteration, hits, misses, evictions)``.
    cache_timeline: list[tuple[int, int, int, int]] = field(default_factory=list)

    def record_neighbor(self, iteration: int, objectives: ObjectiveVector) -> None:
        """Record one evaluated neighbor."""
        if self.max_neighbors is not None and len(self.neighbors) >= self.max_neighbors:
            return
        self.neighbors.append(
            TrajectoryPoint(
                created_iteration=iteration,
                selected_iteration=-1,
                distance=objectives.distance,
                vehicles=objectives.vehicles,
                tardiness=objectives.tardiness,
            )
        )

    def record_selection(
        self,
        created_iteration: int,
        selected_iteration: int,
        objectives: ObjectiveVector,
        *,
        restarted: bool = False,
    ) -> None:
        """Record a solution chosen as the new current solution."""
        self.selections.append(
            TrajectoryPoint(
                created_iteration=created_iteration,
                selected_iteration=selected_iteration,
                distance=objectives.distance,
                vehicles=objectives.vehicles,
                tardiness=objectives.tardiness,
                restarted=restarted,
            )
        )

    def record_archive_size(self, iteration: int, size: int) -> None:
        """Record the archive occupancy after an iteration."""
        self.archive_sizes.append((iteration, size))

    def record_cache(
        self, iteration: int, hits: int, misses: int, evictions: int
    ) -> None:
        """Record the (cumulative) route-stats cache counters."""
        self.cache_timeline.append((iteration, hits, misses, evictions))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot all recorded series (points are frozen dataclasses,
        so sharing the tuples with the checkpoint payload is safe)."""
        return {
            "max_neighbors": self.max_neighbors,
            "neighbors": list(self.neighbors),
            "selections": list(self.selections),
            "archive_sizes": list(self.archive_sizes),
            "cache_timeline": list(self.cache_timeline),
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the recorder exactly as exported."""
        self.max_neighbors = state["max_neighbors"]
        self.neighbors = list(state["neighbors"])
        self.selections = list(state["selections"])
        self.archive_sizes = list(state["archive_sizes"])
        self.cache_timeline = list(state["cache_timeline"])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def neighbors_array(self) -> np.ndarray:
        """Neighbors as an ``(n, 5)`` array:
        ``[created_iter, selected_iter, f1, f2, f3]``."""
        return _points_to_array(self.neighbors)

    def selections_array(self) -> np.ndarray:
        """Selected currents as an ``(n, 5)`` array (same columns)."""
        return _points_to_array(self.selections)

    def cache_array(self) -> np.ndarray:
        """Cache timeline as an ``(n, 4)`` array:
        ``[iteration, hits, misses, evictions]`` (cumulative)."""
        if not self.cache_timeline:
            return np.zeros((0, 4))
        return np.array(self.cache_timeline, dtype=np.float64)

    @property
    def carryover_count(self) -> int:
        """Selections whose solution was created in an *earlier*
        iteration than the one that selected it — the asynchronous
        behavior Figure 1 illustrates (always 0 for the sequential and
        synchronous variants)."""
        return sum(
            1
            for p in self.selections
            if not p.restarted and p.selected_iteration > p.created_iteration
        )


def _points_to_array(points: list[TrajectoryPoint]) -> np.ndarray:
    if not points:
        return np.zeros((0, 5))
    return np.array(
        [
            (p.created_iteration, p.selected_iteration, p.distance, p.vehicles, p.tardiness)
            for p in points
        ],
        dtype=np.float64,
    )
