"""Solutions, objectives, evaluation, construction and neighborhood operators.

This subpackage implements section II of the paper: the permutation
representation (§II.A), the three objectives ``f1`` (total travel
distance), ``f2`` (deployed vehicles) and ``f3`` (total tardiness), the
five neighborhood operators with their local feasibility criterion
(§II.B), and the Solomon I1 route-construction heuristic used to seed
the search (§III.B).
"""

from repro.core.construction import I1Params, i1_construct
from repro.core.evaluation import Evaluator, evaluate
from repro.core.objectives import FEASIBILITY_TOLERANCE, ObjectiveVector
from repro.core.routes import RouteSchedule, RouteStats, route_schedule, route_stats
from repro.core.solution import Solution

__all__ = [
    "Evaluator",
    "FEASIBILITY_TOLERANCE",
    "I1Params",
    "ObjectiveVector",
    "RouteSchedule",
    "RouteStats",
    "Solution",
    "evaluate",
    "i1_construct",
    "route_schedule",
    "route_stats",
]
