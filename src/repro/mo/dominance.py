"""Pareto dominance primitives (minimization convention).

A point ``a`` *dominates* ``b`` when it is no worse in every objective
and strictly better in at least one; ``a`` *weakly dominates* ``b``
when it is no worse in every objective.  All functions take either
:class:`~repro.core.objectives.ObjectiveVector` instances, sequences,
or 2-D numpy arrays of points (one row per point).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "dominates",
    "weakly_dominates",
    "non_dominated_mask",
    "non_dominated_indices",
    "non_dominated_sort",
    "as_points",
]


def as_points(points: Sequence | np.ndarray) -> np.ndarray:
    """Coerce a collection of objective vectors to a 2-D float array."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        return np.asarray(points, dtype=np.float64)
    rows = [
        p.as_array() if hasattr(p, "as_array") else np.asarray(p, dtype=np.float64)
        for p in points
    ]
    if not rows:
        return np.zeros((0, 0))
    return np.vstack(rows)


def dominates(a: Sequence | np.ndarray, b: Sequence | np.ndarray) -> bool:
    """True when ``a`` Pareto-dominates ``b`` (minimization)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def weakly_dominates(a: Sequence | np.ndarray, b: Sequence | np.ndarray) -> bool:
    """True when ``a`` is no worse than ``b`` in every objective."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b))


def non_dominated_mask(points: Sequence | np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of a point set.

    Duplicates of a non-dominated point are all kept (they do not
    dominate each other).  The pairwise comparison is vectorized:
    ``O(n^2 d)`` in numpy, fine for the neighborhood sizes (≤ a few
    hundred) this library works with.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    # dominated[i] == True iff some j dominates i.
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)  # j <= i elementwise
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=2)  # j < i somewhere
    dominated_by = le.T & lt.T  # [i, j]: j dominates i
    return ~dominated_by.any(axis=1)


def non_dominated_indices(points: Sequence | np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows, in input order."""
    return np.flatnonzero(non_dominated_mask(points))


def non_dominated_sort(points: Sequence | np.ndarray) -> list[np.ndarray]:
    """Fast-non-dominated-sort into fronts (NSGA-II style).

    Returns a list of index arrays; front 0 is the Pareto front of the
    input, front 1 the front after removing front 0, and so on.  Used
    by NSGA-II.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n == 0:
        return []
    remaining = np.arange(n)
    fronts: list[np.ndarray] = []
    while remaining.size:
        mask = non_dominated_mask(pts[remaining])
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts
