"""Structural analysis of CVRPTW instances.

The six Solomon/Homberger families differ along axes that explain why
the algorithms behave differently on them — geometry (clustered vs
random), time-window tightness, and how strongly the windows
*sequence* the customers.  This module quantifies those axes so the
generated benchmark set can be validated against the published sets'
structure (tests/test_vrptw_analysis.py) and so users can characterize
their own instances:

* :func:`window_stats` — widths, density and horizon utilization;
* :func:`compatibility_graph` — the directed "temporal compatibility"
  graph (a boolean adjacency matrix) whose edge ``u -> v`` means
  serving ``v`` directly after ``u`` is locally admissible (the
  paper's §II.B criterion); its density is exactly the probability
  that a random operator adjacency passes the screen, i.e. how
  constrained the neighborhood is;
* :func:`clustering_score` — nearest-neighbor statistics separating C
  from R geometries;
* :func:`fleet_lower_bounds` — capacity and temporal lower bounds on
  the vehicle count (context for the f2 columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vrptw.instance import Instance

__all__ = [
    "WindowStats",
    "window_stats",
    "compatibility_graph",
    "compatibility_density",
    "clustering_score",
    "fleet_lower_bounds",
    "describe",
]


@dataclass(frozen=True, slots=True)
class WindowStats:
    """Aggregate time-window statistics of an instance."""

    mean_width: float
    median_width: float
    #: mean window width divided by the horizon (tightness; Solomon
    #: type-1 instances sit around 0.05-0.15, type-2 around 0.2-0.5).
    relative_width: float
    #: fraction of customer pairs whose windows overlap in time.
    overlap_fraction: float
    horizon: float


def window_stats(instance: Instance) -> WindowStats:
    """Compute the window statistics of an instance."""
    ready = instance.ready_time[1:]
    due = instance.due_date[1:]
    widths = due - ready
    n = ready.shape[0]
    if n > 1:
        starts = ready[:, None]
        ends = due[:, None]
        overlap = (starts < ends.T) & (ready[None, :] < due[:, None])
        np.fill_diagonal(overlap, False)
        overlap_fraction = float(overlap.sum() / (n * (n - 1)))
    else:
        overlap_fraction = 0.0
    return WindowStats(
        mean_width=float(widths.mean()),
        median_width=float(np.median(widths)),
        relative_width=float(widths.mean() / instance.horizon),
        overlap_fraction=overlap_fraction,
        horizon=instance.horizon,
    )


def compatibility_graph(instance: Instance) -> np.ndarray:
    """The directed temporal-compatibility graph over customers.

    A boolean ``(n_sites, n_sites)`` adjacency matrix: ``g[u, v]`` iff
    ``a_u + c_u + t(u, v) <= b_v`` — serving ``v`` right after ``u``
    passes the paper's local feasibility screen, computed with the same
    float association as
    :func:`~repro.core.operators.feasibility.edge_admissible`.  The
    diagonal and the depot row and column (site 0) are False.
    """
    depart = instance.ready_time + instance.service_time
    g = depart[:, None] + instance.travel <= instance.due_date[None, :]
    np.fill_diagonal(g, False)
    g[0, :] = False
    g[:, 0] = False
    return g


def compatibility_density(instance: Instance) -> float:
    """Edge density of the temporal-compatibility graph.

    This is the acceptance probability of the local feasibility
    criterion for a uniformly random adjacency — low density is what
    makes tight-window instances hard for intra-route operators (see
    the operator-dormancy discussion in EXPERIMENTS.md).
    """
    n = instance.n_customers
    if n < 2:
        return 1.0
    return int(compatibility_graph(instance).sum()) / (n * (n - 1))


def clustering_score(instance: Instance) -> float:
    """Mean nearest-neighbor distance over mean pairwise distance.

    Clustered geometries score low (~0.05), uniform ones higher
    (~0.15+); the ratio is scale-free so it compares across sizes.
    """
    t = instance.travel[1:, 1:]
    if t.shape[0] < 2:
        return 0.0
    off = t[~np.eye(t.shape[0], dtype=bool)]
    nn = np.where(np.eye(t.shape[0], dtype=bool), np.inf, t).min(axis=1)
    return float(nn.mean() / off.mean())


def fleet_lower_bounds(instance: Instance) -> dict[str, int]:
    """Lower bounds on the number of vehicles.

    * ``capacity``: ``ceil(total demand / m)``;
    * ``temporal``: the maximum number of customers whose service
      windows pairwise *cannot* be chained (a clique of temporal
      incompatibility needs one vehicle each) — approximated greedily
      on the complement of the compatibility graph's symmetrized
      closure, which keeps it cheap and still a valid lower bound.
    """
    capacity_bound = instance.min_vehicles_by_capacity
    g = compatibility_graph(instance)
    # u and v can share a vehicle (in some order) iff u->v or v->u.
    incompatible = ~(g | g.T)[1:, 1:]
    np.fill_diagonal(incompatible, False)
    # Greedy clique on the incompatibility graph (valid lower bound;
    # not necessarily maximum), highest degree first, ties by customer.
    degree = incompatible.sum(axis=1)
    clique: list[int] = []
    for node in np.argsort(-degree, kind="stable").tolist():
        if incompatible[node, clique].all():
            clique.append(node)
    return {"capacity": capacity_bound, "temporal": max(len(clique), 1)}


def describe(instance: Instance) -> str:
    """A human-readable structural summary (used by examples)."""
    ws = window_stats(instance)
    bounds = fleet_lower_bounds(instance)
    return (
        f"{instance.name}: {instance.n_customers} customers, fleet "
        f"{instance.n_vehicles} x {instance.capacity:.0f}\n"
        f"  horizon {ws.horizon:.0f}, windows {ws.mean_width:.0f} wide "
        f"({ws.relative_width * 100:.1f}% of horizon), "
        f"{ws.overlap_fraction * 100:.0f}% of pairs overlap\n"
        f"  temporal compatibility density "
        f"{compatibility_density(instance) * 100:.0f}%, clustering score "
        f"{clustering_score(instance):.3f}\n"
        f"  vehicle lower bounds: capacity {bounds['capacity']}, "
        f"temporal {bounds['temporal']}"
    )
