"""Segment exchange — the (2,1) λ-interchange (optional extension).

The paper's Relocate and Exchange are the (1,0) and (1,1) instances of
Osman's λ-interchange family (§II.B cites exactly those two).  This
module adds the next member, the (2,1) exchange: a pair of consecutive
customers on one route swaps with a single customer on another.  It is
**not** part of the paper's operator set and is excluded from
:func:`~repro.core.operators.registry.default_registry`; the operator
ablation benchmark can add it via a custom registry to measure what a
richer neighborhood would have bought.

The local feasibility criterion applies to all four created
adjacencies (segment enters route B, singleton enters route A), and
both receiving routes must stay within capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.operators.base import Move, Operator, RouteEdits
from repro.core.solution import Solution
from repro.errors import OperatorError

__all__ = ["SegmentExchange", "SegmentExchangeMove"]


@dataclass(frozen=True, slots=True)
class SegmentExchangeMove(Move):
    """Swap ``segment`` (2 consecutive customers of ``route_a`` at
    ``pos_a``) with ``customer`` (``route_b`` at ``pos_b``)."""

    route_a: int
    pos_a: int
    segment: tuple[int, int]
    route_b: int
    pos_b: int
    customer: int

    name = "segx"

    def route_edits(self, solution: Solution) -> RouteEdits:
        ra = solution.routes[self.route_a]
        rb = solution.routes[self.route_b]
        if (
            ra[self.pos_a : self.pos_a + 2] != self.segment
            or rb[self.pos_b] != self.customer
        ):
            raise OperatorError("stale segment-exchange move")
        new_a = ra[: self.pos_a] + (self.customer,) + ra[self.pos_a + 2 :]
        new_b = rb[: self.pos_b] + self.segment + rb[self.pos_b + 1 :]
        return {self.route_a: new_a, self.route_b: new_b}, ()

    @property
    def attribute(self) -> Hashable:
        return ("segx", frozenset((*self.segment, self.customer)))


class SegmentExchange(Operator):
    """Random (2,1) λ-interchange proposals."""

    name = "segx"

    #: per-solution memo of donor route indices (the sampler proposes
    #: dozens of moves against the same current solution).
    _memo_solution: Solution | None = None
    _memo_donors: list[int] = []

    def propose(
        self, solution: Solution, rng: np.random.Generator
    ) -> SegmentExchangeMove | None:
        instance = solution.instance
        if solution.n_routes < 2:
            return None
        routes = solution.routes
        if self._memo_solution is not solution:
            self._memo_solution = solution
            self._memo_donors = [i for i, r in enumerate(routes) if len(r) >= 2]
        donors = self._memo_donors
        if not donors:
            return None
        capacity = instance.capacity
        demand = instance._demand_l
        depart = instance._depart_l
        due = instance._due_l
        travel = instance._travel_rows
        locate = solution.location_table().__getitem__
        loads = solution.route_loads()
        integers = rng.integers
        n_donors = len(donors)
        customer_hi = instance.n_customers + 1
        for _ in range(self.max_attempts):
            # int(): move fields and route tuples hold Python ints, not
            # the np.int64 a Generator returns.
            route_a = donors[int(integers(n_donors))]
            ra = routes[route_a]
            pos_a = int(integers(0, len(ra) - 1))
            segment = ra[pos_a : pos_a + 2]
            customer = int(integers(1, customer_hi))
            route_b, pos_b = locate(customer)
            if route_b == route_a:
                continue
            rb = routes[route_b]
            seg_demand = demand[segment[0]] + demand[segment[1]]
            delta = seg_demand - demand[customer]
            if loads[route_b] + delta > capacity:
                continue
            if loads[route_a] - delta > capacity:
                continue
            # Adjacencies: customer replaces the segment in A, the
            # segment replaces the customer in B (insertion_admissible
            # and segment_insertion_admissible inlined — feasibility.py).
            ia = ra[pos_a - 1] if pos_a > 0 else 0
            ja = ra[pos_a + 2] if pos_a + 2 < len(ra) else 0
            ib = rb[pos_b - 1] if pos_b > 0 else 0
            jb = rb[pos_b + 1] if pos_b + 1 < len(rb) else 0
            s0 = segment[0]
            s1 = segment[1]
            if (
                depart[ia] + travel[ia][customer] <= due[customer]
                and depart[customer] + travel[customer][ja] <= due[ja]
                and depart[ib] + travel[ib][s0] <= due[s0]
                and depart[s1] + travel[s1][jb] <= due[jb]
            ):
                return SegmentExchangeMove(
                    route_a=route_a,
                    pos_a=pos_a,
                    segment=(segment[0], segment[1]),
                    route_b=route_b,
                    pos_b=pos_b,
                    customer=customer,
                )
        return None
