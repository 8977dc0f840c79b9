"""Neighborhood sampling (paper §III.B, "Neighborhood Generation").

"The Neighborhood Generation draws a number of moves, specified in the
neighborhood size parameter, from the five operators described in
II.B.  For each move to create one of the operators is chosen at
random, with equal probabilities for each."

The same function runs on the sequential searcher, on the simulated
master, and on simulated workers — it is the unit of work the paper
parallelizes.  Each produced :class:`Neighbor` carries the move (for
the tabu attribute) and its objectives; every neighbor costs one unit
of the evaluation budget.

Sampling and evaluation run through the one sampler,
:func:`repro.core.batch_eval.sample_batch`.  For registries whose
operators all provide descriptor emitters (the paper's standard five
do), one uniform block drives all operator wheels at once, candidate
feasibility is screened with array gathers, and the surviving moves'
objectives are assembled in a handful of vectorized operations.  The
``REPRO_VECTOR_EVAL`` knob (on by default) switches only the
*evaluation* side between the kernel and the scalar bit-identity oracle
(:meth:`~repro.core.evaluation.Evaluator.evaluate_move`); the sampled
moves are the same stream either way, and the two settings must
produce bit-identical search trajectories.  A registry holding an
operator without an emitter (e.g. the non-paper ``SegmentExchange``)
draws every slot with scalar ``draw_move`` from the same stream.

The child :class:`Solution` — and for kernel-proposed neighbors even
the move object — materializes lazily, only if the neighbor is
actually selected or archived (roughly 1 of S per iteration).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_eval import sample_batch, vector_eval_enabled
from repro.core.evaluation import Evaluator
from repro.core.objectives import ObjectiveVector
from repro.core.operators.base import Move
from repro.core.operators.registry import OperatorRegistry
from repro.core.solution import Solution
from repro.errors import SearchError

__all__ = ["LazyNeighbor", "Neighbor", "sample_neighborhood"]


class Neighbor:
    """One evaluated neighbor of a current solution.

    Holds the move and the (pre-computed) objectives; the neighbor
    *solution* is materialized on first access by applying the move to
    the parent, so the ~S-1 unselected neighbors of an iteration never
    pay for route-tuple construction.  Constructed either lazily
    (``parent=...``) or eagerly (``solution=...``, e.g. when a worker
    process shipped the routes back).
    """

    __slots__ = ("_move", "objectives", "iteration", "_parent", "_solution")

    def __init__(
        self,
        move: Move,
        objectives: ObjectiveVector,
        iteration: int = 0,
        *,
        parent: Solution | None = None,
        solution: Solution | None = None,
    ) -> None:
        if (parent is None) == (solution is None):
            raise SearchError("Neighbor needs exactly one of parent= or solution=")
        self._move = move
        self.objectives = objectives
        #: iteration at which the neighbor was generated (used by the
        #: asynchronous variant, where stragglers' neighbors join later
        #: selections, and by the Figure-1 trajectory trace).
        self.iteration = iteration
        self._parent = parent
        self._solution = solution

    @property
    def move(self) -> Move:
        """The move that produced this neighbor."""
        return self._move

    @property
    def solution(self) -> Solution:
        """The neighbor solution (applied to the parent on first access)."""
        child = self._solution
        if child is None:
            child = self.move.apply(self._parent)
            self._solution = child
        return child

    @property
    def materialized(self) -> bool:
        """Whether :attr:`solution` has been built yet."""
        return self._solution is not None

    def __repr__(self) -> str:
        state = "materialized" if self._solution is not None else "lazy"
        name = self._move.name if self._move is not None else "<deferred>"
        return (
            f"{type(self).__name__}({name!r}, objectives={self.objectives!r}, "
            f"iteration={self.iteration}, {state})"
        )


class LazyNeighbor(Neighbor):
    """A neighbor whose move is rebuilt from its descriptor on demand.

    The batch kernel scores a whole neighborhood without constructing
    move objects; only the (typically single) neighbor that wins
    selection or enters the archive ever touches :attr:`move`.  The
    maker is a zero-argument callable capturing the descriptor row and
    the parent summary; the built move is cached on first access.
    """

    __slots__ = ("_maker",)

    def __init__(
        self,
        maker,
        objectives: ObjectiveVector,
        iteration: int = 0,
        *,
        parent: Solution,
    ) -> None:
        super().__init__(None, objectives, iteration, parent=parent)
        self._maker = maker

    @property
    def move(self) -> Move:
        mv = self._move
        if mv is None:
            mv = self._maker()
            self._move = mv
        return mv


def sample_neighborhood(
    solution: Solution,
    size: int,
    registry: OperatorRegistry,
    rng: np.random.Generator,
    evaluator: Evaluator,
    *,
    iteration: int = 0,
    profiler=None,
) -> list[Neighbor]:
    """Generate and evaluate up to ``size`` neighbors of ``solution``.

    The list can be shorter than ``size`` only when the registry's
    retry cap is exhausted (a pathologically locked solution); callers
    treat a short list exactly like a full one.

    ``profiler`` (a :class:`~repro.obs.profiler.PhaseProfiler` in
    wall-clock units) receives the *generate* (move proposal) and
    *evaluate* phases; timing never changes the draws or evaluations,
    so the produced neighborhood is bit-for-bit the same.
    """
    neighbors: list[Neighbor] = []
    if size <= 0:
        return neighbors
    result = sample_batch(
        solution,
        size,
        registry,
        rng,
        evaluator,
        vector=vector_eval_enabled(),
        timed=profiler is not None,
    )
    for objectives, move, maker in result.entries:
        if maker is not None:
            neighbors.append(LazyNeighbor(maker, objectives, iteration, parent=solution))
        else:
            neighbors.append(Neighbor(move, objectives, iteration, parent=solution))
    if profiler is not None:
        profiler.add("generate", result.gen_seconds)
        profiler.add("evaluate", result.eval_seconds)
    return neighbors
