"""Vectorized batch neighborhood sampling and evaluation (the kernel).

The paper's unit of parallel work — draw a neighborhood of random
moves, score each one (§III.B) — is the dominant cost of every driver
even after delta evaluation: per move the sampler pays a numpy scalar
dispatch per random draw and the evaluator a Python loop over route
edits.  This module replaces both loops with array programs over a
compact summary of the parent solution:

* **descriptor emitters** — each operator's ``propose_batch`` maps a
  block of uniform doubles to ``(fields, valid)``: an ``(m, 4)``
  integer descriptor array (operator-specific layout, see the operator
  modules) plus the local-feasibility mask, evaluated with gathers over
  :class:`ParentArrays` instead of per-candidate Python;
* **batched evaluation** — the kernel builds each accepted move's
  edited route tuples, serves their :class:`~repro.core.routes.
  RouteStats` through the shared :class:`~repro.core.stats_cache.
  RouteStatsCache` (misses re-scanned in one vectorized sweep by
  :func:`batch_route_stats`), and assembles all objective vectors at
  once by scattering the per-route deltas into a ``(n_routes+1, S)``
  matrix and left-folding its rows — the same float-association as
  ``Solution.objectives``, so every objective is *bit-identical* to the
  scalar path;
* **bit-identity oracle** — the scalar :meth:`~repro.core.evaluation.
  Evaluator.evaluate_move` path stays available behind the
  ``REPRO_VECTOR_EVAL`` knob (on by default).  Move *sampling* is the
  same batched algorithm either way, so the knob toggles only who
  computes the objectives; trajectories must match bit-for-bit.

:func:`sample_batch` is the one neighborhood sampler: the sequential
searcher, the simulated drivers, pool workers and serve jobs all call
it.  Fallback rules (all deterministic functions of the parent, never
of the knob):

* a registry containing any operator without a descriptor emitter
  (e.g. the non-paper ``SegmentExchange``) is not batch-supported —
  every slot goes to the scalar tail below, on both knob settings;
* an operator whose ``batch_ready(pre)`` is false for this parent
  (say, 2-opt* on a single-route solution) is skipped without
  consuming RNG, exactly like its scalar ``propose`` returning
  ``None`` before the first draw;
* slots still unfilled after :data:`_ROUNDS` oversampling rounds fall
  back to scalar ``registry.draw_move`` in slot order (counted in the
  ``eval.scalar_fallbacks`` metric), and a ``None`` from its retry cap
  truncates the neighborhood at that slot.

Known counter caveat: the kernel performs its cache lookups grouped by
operator kind rather than in slot order.  The multiset of looked-up
routes is identical to the scalar order, so hit/miss totals only ever
diverge when the cache is actively evicting.  No search decision and
no simulated clock reads the cache counters, so trajectories are
unaffected.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.objectives import ObjectiveVector
from repro.core.operators.exchange import Exchange, ExchangeMove
from repro.core.operators.or_opt import SEGMENT_LENGTH, OrOpt, OrOptMove
from repro.core.operators.relocate import Relocate, RelocateMove
from repro.core.operators.two_opt import TwoOpt, TwoOptMove
from repro.core.operators.two_opt_star import TwoOptStar, TwoOptStarMove
from repro.core.routes import RouteStats, route_stats

__all__ = [
    "BatchResult",
    "ParentArrays",
    "batch_route_stats",
    "batch_supported",
    "sample_batch",
    "vector_eval_enabled",
]

#: operator-wheel spins per slot — every candidate redraws its kind,
#: exactly the scalar path's "redraw on failure" semantics, with all
#: retries materialized up front so each operator's emitter runs
#: exactly once per neighborhood (per-call numpy dispatch is the
#: kernel's cost floor, so the retry structure must not multiply it).
#: Even on tight-window instances where two of the five operators
#: accept ~1% of their draws the mean per-candidate failure rate is
#: ~0.75, so ~3% of slots exhaust all 12 candidates — a handful of
#: scalar-tail draws per 50-slot neighborhood, cheap next to doubling
#: every emitter's row count with more rounds.
_ROUNDS = 12

#: below this many cache misses the scalar rescan loop beats the
#: vectorized sweep's setup cost.
_RESCAN_MIN = 12

#: ``eval.batch_size`` histogram buckets (same shape as the search-layer
#: batch-size histograms).
_BATCH_BUCKETS = (0, 5, 10, 25, 50, 100, 250, 500)

_ENV_KNOB = "REPRO_VECTOR_EVAL"


def vector_eval_enabled() -> bool:
    """The ``REPRO_VECTOR_EVAL`` knob (on unless explicitly disabled)."""
    return os.environ.get(_ENV_KNOB, "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


# ----------------------------------------------------------------------
# Parent/instance summaries
# ----------------------------------------------------------------------
class _InstanceArrays:
    """Instance-level vectors the kernel gathers from (built once)."""

    __slots__ = (
        "ready",
        "due",
        "service",
        "demand",
        "depart",
        "travel_flat",
        "n_sites",
        "depot_ok",
        "batch_scan_ok",
    )

    def __init__(self, instance) -> None:
        self.ready = instance.ready_time
        self.due = instance.due_date
        self.service = instance.service_time
        self.demand = instance.demand
        #: earliest possible departure from each site (ready + service),
        #: the left side of the local feasibility criterion.
        self.depart = self.ready + self.service
        self.travel_flat = instance.travel.ravel()
        self.n_sites = instance.n_sites
        #: per-site feasibility of a fresh depot->c->depot route.
        self.depot_ok = (self.depart[0] + instance.travel[0] <= self.due) & (
            self.depart + instance.travel[:, 0] <= self.due[0]
        )
        #: the uniform-step rescan below folds the final depot leg with
        #: the customer-step recipe, which is exact only when the depot
        #: has no ready/service/demand of its own (true for every
        #: generator instance; guarded anyway).
        self.batch_scan_ok = (
            float(self.ready[0]) == 0.0
            and float(self.service[0]) == 0.0
            and float(self.demand[0]) == 0.0
        )


class ParentArrays:
    """Array summary of one parent solution for descriptor emitters.

    ``Rz`` is the padded route matrix: row r holds route ``r`` with a
    leading depot column and trailing zero padding, so predecessor /
    successor / boundary lookups are single gathers that naturally
    return the depot at route ends.  ``route_of``/``pos_of`` are
    site-indexed (position 0-based within the route), ``prefload[r, c]``
    is the demand of the first ``c`` customers of route ``r``, and
    ``dist_r``/``tard_r`` are the parent's per-route statistics (the
    baseline the kernel's scatter-and-fold assembly edits).
    """

    __slots__ = (
        "solution",
        "routes",
        "n_routes",
        "n_customers",
        "capacity",
        "new_route_ok",
        "Rz",
        "Rz_width",
        "L",
        "route_of",
        "pos_of",
        "route_of_l",
        "pos_of_l",
        "loads",
        "prefload",
        "dist_r",
        "tard_r",
        "eligible2",
        "eligible3",
        "depart",
        "due",
        "demand",
        "travel_flat",
        "n_sites",
        "depot_ok",
    )

    def __init__(self, solution, arrays: _InstanceArrays) -> None:
        instance = solution.instance
        routes = solution.routes
        n = len(routes)
        self.solution = solution
        self.routes = routes
        self.n_routes = n
        self.n_customers = instance.n_customers
        self.capacity = instance.capacity
        self.new_route_ok = solution.vehicle_slack > 0
        L = np.fromiter((len(r) for r in routes), dtype=np.int64, count=n)
        width = (int(L.max()) if n else 0) + 2
        Rz = np.zeros((n, width), dtype=np.int64)
        for i, r in enumerate(routes):
            Rz[i, 1 : 1 + len(r)] = r
        self.Rz = Rz
        self.Rz_width = width
        self.L = L
        ns = arrays.n_sites
        route_of = np.zeros(ns, dtype=np.int64)
        pos_of = np.zeros(ns, dtype=np.int64)
        rows, cols = np.nonzero(Rz)
        customers = Rz[rows, cols]
        route_of[customers] = rows
        pos_of[customers] = cols - 1
        self.route_of = route_of
        self.pos_of = pos_of
        self.route_of_l = route_of.tolist()
        self.pos_of_l = pos_of.tolist()
        self.loads = np.array(solution.route_loads(), dtype=np.float64)
        dm = np.where(Rz > 0, arrays.demand[Rz], 0.0)
        self.prefload = np.cumsum(dm, axis=1)
        if solution._objectives is None:
            solution.objectives  # noqa: B018 - warms every per-route stat
        stats = solution._stats
        self.dist_r = np.fromiter((st.distance for st in stats), dtype=np.float64, count=n)
        self.tard_r = np.fromiter((st.tardiness for st in stats), dtype=np.float64, count=n)
        self.eligible2 = np.nonzero(L >= 2)[0]
        self.eligible3 = np.nonzero(L >= SEGMENT_LENGTH + 1)[0]
        self.depart = arrays.depart
        self.due = arrays.due
        self.demand = arrays.demand
        self.travel_flat = arrays.travel_flat
        self.n_sites = ns
        self.depot_ok = arrays.depot_ok


class _KernelState:
    """Per-evaluator kernel cache: instance arrays + last parent summary.

    Lives on ``Evaluator._kernel`` (not on the solution) so checkpoint
    pickles of solutions stay byte-identical with and without the
    kernel having run.
    """

    __slots__ = ("instance", "arrays", "_parent", "_pre")

    def __init__(self, instance) -> None:
        self.instance = instance
        self.arrays = _InstanceArrays(instance)
        self._parent = None
        self._pre: ParentArrays | None = None

    def parent_arrays(self, solution) -> ParentArrays:
        if solution is not self._parent:
            self._pre = ParentArrays(solution, self.arrays)
            self._parent = solution
        return self._pre


def _kernel_state(evaluator) -> _KernelState:
    state = evaluator._kernel
    if state is None or state.instance is not evaluator.instance:
        state = _KernelState(evaluator.instance)
        evaluator._kernel = state
    return state


def batch_supported(registry) -> bool:
    """Whether every operator in ``registry`` has a descriptor emitter.

    Registries mixing in non-batch operators (or subclasses that
    override ``propose``) draw every slot through the scalar tail of
    :func:`sample_batch` on both knob settings, so the bit-identity
    guarantee is preserved trivially.  The answer is memoized on the
    registry.
    """
    flag = getattr(registry, "_batch_supported", None)
    if flag is None:
        flag = all(
            type(op) in _MOVE_BUILDERS and getattr(op, "batch_words", 0) > 0
            for op in registry.operators
        )
        registry._batch_supported = flag
    return flag


# ----------------------------------------------------------------------
# Vectorized multi-route rescan (cache-miss sweep)
# ----------------------------------------------------------------------
def batch_route_stats(instance, routes) -> list[RouteStats]:
    """:func:`~repro.core.routes.route_stats` for many routes at once.

    Runs the arrival-time recursion elementwise over a padded route
    matrix — one numpy step per route position instead of one Python
    loop per route.  Every arithmetic step is the same IEEE double
    operation in the same order as the scalar recursion, so the
    returned stats are bit-identical.  Instances whose depot carries
    ready/service/demand of its own (none of ours do) fall back to the
    scalar loop, because the uniform step would then mis-handle the
    final depot leg.
    """
    k = len(routes)
    if k == 0:
        return []
    ready = instance.ready_time
    service = instance.service_time
    demand = instance.demand
    if not (
        float(ready[0]) == 0.0
        and float(service[0]) == 0.0
        and float(demand[0]) == 0.0
    ):
        return [route_stats(instance, r) for r in routes]
    L = np.fromiter((len(r) for r in routes), dtype=np.int64, count=k)
    width = int(L.max()) + 2
    M = np.zeros((k, width), dtype=np.int64)
    for i, r in enumerate(routes):
        M[i, 1 : 1 + len(r)] = r
    travel = instance.travel.ravel()
    ns = instance.n_sites
    due = instance.due_date
    dist = np.zeros(k)
    clock = np.zeros(k)
    tard = np.zeros(k)
    load = np.zeros(k)
    steps = L + 1  # customers plus the return-to-depot leg
    for p in range(1, width):
        active = steps >= p
        if not active.any():
            break
        prev = M[:, p - 1]
        site = M[:, p]
        leg = travel[prev * ns + site]
        ndist = dist + leg
        nclock = clock + leg
        late = nclock - due[site]
        ntard = np.where(late > 0.0, tard + late, tard)
        # Wait for the window to open, then serve.  At the final step
        # ``site`` is the depot: ready/service are 0.0 there, so the
        # maximum and the add reproduce the scalar path's bare arrival.
        nclock = np.maximum(nclock, ready[site])
        nclock = nclock + service[site]
        nload = load + demand[site]
        dist = np.where(active, ndist, dist)
        clock = np.where(active, nclock, clock)
        tard = np.where(active, ntard, tard)
        load = np.where(active, nload, load)
    return [
        RouteStats(distance=d, load=ld, tardiness=t, completion=c)
        for d, ld, t, c in zip(dist.tolist(), load.tolist(), tard.tolist(), clock.tolist())
    ]


# ----------------------------------------------------------------------
# Batched sampling (shared by both knob settings)
# ----------------------------------------------------------------------
def _propose_all(size, registry, rng, pre):
    """Fill up to ``size`` slots with vector-proposed descriptors.

    The §III.B wheel is materialized up front: one uniform block draws
    :data:`_ROUNDS` operator kinds per slot, then *each kind's emitter
    runs exactly once* over all its (slot, round) candidates.  A slot
    is won by its earliest feasible candidate.  Returns ``(kinds,
    fields, unfilled)``; ``kinds[s] == -1`` marks slots for the scalar
    fallback.
    """
    operators = registry.operators
    n_ops = len(operators)
    ready = [op.batch_ready(pre) for op in operators]
    if not any(ready):
        # Nothing can propose on this parent (e.g. an empty solution):
        # identical to every scalar propose bailing before its first
        # draw, so no RNG is consumed here either.
        return (
            np.full(size, -1, dtype=np.int64),
            np.zeros((size, 4), dtype=np.int64),
            np.arange(size, dtype=np.int64),
        )
    n_pairs = size * _ROUNDS
    u = rng.random(n_pairs)
    if registry._uniform:
        wheel = (u * n_ops).astype(np.int64)
        np.minimum(wheel, n_ops - 1, out=wheel)
    else:
        wheel = np.searchsorted(
            np.asarray(registry._cumulative), u, side="right"
        )
        np.minimum(wheel, n_ops - 1, out=wheel)
    # Candidate p = slot * _ROUNDS + round, so slot-major order makes
    # the earliest round the smallest candidate index.
    pair_valid = np.zeros(n_pairs, dtype=bool)
    pair_fields = np.zeros((n_pairs, 4), dtype=np.int64)
    for k in range(n_ops):
        if not ready[k]:
            continue
        sel = np.nonzero(wheel == k)[0]
        m = sel.size
        if m == 0:
            continue
        op = operators[k]
        words = op.batch_words
        U = rng.random(m * words)
        f, valid = op.propose_batch(pre, U.reshape(m, words))
        winners = sel[valid]
        pair_valid[winners] = True
        pair_fields[winners] = f[valid]
    per_slot = pair_valid.reshape(size, _ROUNDS)
    has = per_slot.any(axis=1)
    round_won = per_slot.argmax(axis=1)
    flat = np.arange(size, dtype=np.int64) * _ROUNDS + round_won
    kinds = np.where(has, wheel[flat], -1)
    fields = pair_fields[flat]  # unfilled slots carry zeros, never read
    return kinds, fields, np.nonzero(~has)[0]


def _scalar_tail(solution, registry, rng, unfilled):
    """Scalar ``draw_move`` for the slots vector proposal left unfilled.

    Draws in slot order from the same stream; a ``None`` (retry cap
    exhausted) truncates the neighborhood at that slot.
    """
    tail = {}
    draw = registry.draw_move
    for s in unfilled.tolist():
        move = draw(solution, rng)
        if move is None:
            return tail, s
        tail[s] = move
    return tail, None


# ----------------------------------------------------------------------
# Move materialization from descriptors
# ----------------------------------------------------------------------
def _move_relocate(pre, f):
    customer, dst, dst_pos, src = f
    return RelocateMove(
        customer=customer,
        src_route=src,
        src_pos=pre.pos_of_l[customer],
        dst_route=dst,
        dst_pos=dst_pos,
    )


def _move_exchange(pre, f):
    a, b = f[0], f[1]
    return ExchangeMove(
        customer_a=a,
        route_a=pre.route_of_l[a],
        pos_a=pre.pos_of_l[a],
        customer_b=b,
        route_b=pre.route_of_l[b],
        pos_b=pre.pos_of_l[b],
    )


def _move_two_opt(pre, f):
    r, start, end = f[0], f[1], f[2]
    route = pre.routes[r]
    return TwoOptMove(
        route_index=r,
        start=start,
        end=end,
        segment_first=route[start],
        segment_last=route[end],
    )


def _move_two_opt_star(pre, f):
    ra_i, cut_a, rb_i, cut_b = f
    ra = pre.routes[ra_i]
    rb = pre.routes[rb_i]
    tail_a = ra[cut_a - 1] if cut_a > 0 else 0
    head_b = rb[cut_b] if cut_b < len(rb) else 0
    tail_b = rb[cut_b - 1] if cut_b > 0 else 0
    head_a = ra[cut_a] if cut_a < len(ra) else 0
    boundary = frozenset(c for c in (tail_a, head_b, tail_b, head_a) if c != 0)
    return TwoOptStarMove(
        route_a=ra_i, cut_a=cut_a, route_b=rb_i, cut_b=cut_b, boundary=boundary
    )


def _move_or_opt(pre, f):
    r, start, insert_at = f[0], f[1], f[2]
    route = pre.routes[r]
    return OrOptMove(
        route_index=r,
        start=start,
        insert_at=insert_at,
        segment=route[start : start + SEGMENT_LENGTH],
    )


_MOVE_BUILDERS = {
    Relocate: _move_relocate,
    Exchange: _move_exchange,
    TwoOpt: _move_two_opt,
    TwoOptStar: _move_two_opt_star,
    OrOpt: _move_or_opt,
}


class _LazyMove:
    """Deferred move materialization for unselected neighbors.

    Most of a neighborhood is never selected or archived; building the
    move object (tuple slices, a dataclass) is pure overhead for those.
    The callable rebuilds the exact move from its descriptor on demand.
    """

    __slots__ = ("_builder", "_pre", "_fields")

    def __init__(self, builder, pre, fields) -> None:
        self._builder = builder
        self._pre = pre
        self._fields = fields

    def __call__(self):
        return self._builder(self._pre, self._fields)


# ----------------------------------------------------------------------
# Edit builders: descriptor -> edited route tuples (+ cache lookups)
# ----------------------------------------------------------------------
#
# Each builder walks its kind's accepted descriptors, builds the child
# route tuples, and reports them in ascending child-route order through
# the callbacks — ``look`` (an edited or added route needing stats),
# ``kill`` (a deleted route: contributes 0.0 and no cache traffic,
# matching the scalar path's ``continue``).  Returns the kind's
# ``routes_touched`` contribution (len(replacements) + len(added), as
# the scalar metrics count it).


def _edits_relocate(pre, rows, cols, look, kill, open_new):
    routes = pre.routes
    pos_l = pre.pos_of_l
    for col, row in zip(cols, rows):
        customer, dst, dst_pos, src = row
        sp = pos_l[customer]
        src_route = routes[src]
        new_src = src_route[:sp] + src_route[sp + 1 :]
        if dst < 0:
            if new_src:
                look(src, col, new_src)
            else:
                kill(src, col)
            open_new(col, (customer,))
        elif src < dst:
            if new_src:
                look(src, col, new_src)
            else:
                kill(src, col)
            dst_route = routes[dst]
            look(dst, col, dst_route[:dst_pos] + (customer,) + dst_route[dst_pos:])
        else:
            dst_route = routes[dst]
            look(dst, col, dst_route[:dst_pos] + (customer,) + dst_route[dst_pos:])
            if new_src:
                look(src, col, new_src)
            else:
                kill(src, col)
    return 2 * len(cols)


def _edits_exchange(pre, rows, cols, look, kill, open_new):
    routes = pre.routes
    rof = pre.route_of_l
    pof = pre.pos_of_l
    for col, row in zip(cols, rows):
        a = row[0]
        b = row[1]
        ra = rof[a]
        pa = pof[a]
        rb = rof[b]
        pb = pof[b]
        ta = routes[ra]
        tb = routes[rb]
        new_a = ta[:pa] + (b,) + ta[pa + 1 :]
        new_b = tb[:pb] + (a,) + tb[pb + 1 :]
        if ra < rb:
            look(ra, col, new_a)
            look(rb, col, new_b)
        else:
            look(rb, col, new_b)
            look(ra, col, new_a)
    return 2 * len(cols)


def _edits_two_opt(pre, rows, cols, look, kill, open_new):
    routes = pre.routes
    for col, row in zip(cols, rows):
        r = row[0]
        start = row[1]
        end = row[2]
        route = routes[r]
        look(r, col, route[:start] + route[start : end + 1][::-1] + route[end + 1 :])
    return len(cols)


def _edits_two_opt_star(pre, rows, cols, look, kill, open_new):
    routes = pre.routes
    for col, row in zip(cols, rows):
        ra_i, cut_a, rb_i, cut_b = row
        ra = routes[ra_i]
        rb = routes[rb_i]
        new_a = ra[:cut_a] + rb[cut_b:]
        new_b = rb[:cut_b] + ra[cut_a:]
        if ra_i < rb_i:
            pairs = ((ra_i, new_a), (rb_i, new_b))
        else:
            pairs = ((rb_i, new_b), (ra_i, new_a))
        for idx, tup in pairs:
            if tup:
                look(idx, col, tup)
            else:
                kill(idx, col)
    return 2 * len(cols)


def _edits_or_opt(pre, rows, cols, look, kill, open_new):
    routes = pre.routes
    for col, row in zip(cols, rows):
        r = row[0]
        start = row[1]
        insert_at = row[2]
        route = routes[r]
        remainder = route[:start] + route[start + SEGMENT_LENGTH :]
        look(r, col, remainder[:insert_at] + route[start : start + SEGMENT_LENGTH] + remainder[insert_at:])
    return len(cols)


_EDIT_BUILDERS = {
    Relocate: _edits_relocate,
    Exchange: _edits_exchange,
    TwoOpt: _edits_two_opt,
    TwoOptStar: _edits_two_opt_star,
    OrOpt: _edits_or_opt,
}


# ----------------------------------------------------------------------
# Batched evaluation + scatter-and-fold assembly
# ----------------------------------------------------------------------
def _evaluate_vector(evaluator, pre, kinds, fields, vslots, registry):
    """Objectives for all vector-proposed slots in a few array ops.

    Returns ``(distance, tardiness, vehicles, routes_touched)`` arrays
    aligned with ``vslots``.  Bit-identity argument: the child's
    objective fold is ``sum over child routes in order``; here every
    parent route contributes its parent value unless scattered over
    (edited -> cached stats, deleted -> 0.0, which is additively inert
    since all partial sums are >= +0.0), and a virtual last row carries
    routes opened by relocate-to-new — exactly the child route order.
    The fold runs as an explicit row loop because numpy's pairwise
    ``sum`` would change the float association.
    """
    cache = evaluator.stats_cache
    lookup_deferred = cache.lookup_deferred
    n = pre.n_routes
    rr: list[int] = []
    cc: list[int] = []
    vd: list[float] = []
    vt: list[float] = []
    prr: list[int] = []
    pcc: list[int] = []
    pii: list[int] = []
    pend_map: dict = {}
    pend_routes: list = []
    del_cols: list[int] = []
    add_cols: list[int] = []

    def look(row, col, tup):
        st = lookup_deferred(tup)
        if st is None:
            idx = pend_map.get(tup)
            if idx is None:
                idx = len(pend_routes)
                pend_map[tup] = idx
                pend_routes.append(tup)
            prr.append(row)
            pcc.append(col)
            pii.append(idx)
        else:
            rr.append(row)
            cc.append(col)
            vd.append(st.distance)
            vt.append(st.tardiness)

    def kill(row, col):
        rr.append(row)
        cc.append(col)
        vd.append(0.0)
        vt.append(0.0)
        del_cols.append(col)

    def open_new(col, tup):
        look(n, col, tup)
        add_cols.append(col)

    kinds_v = kinds[vslots]
    routes_touched = 0
    operators = registry.operators
    for k in np.unique(kinds_v).tolist():
        idx = np.nonzero(kinds_v == k)[0]
        builder = _EDIT_BUILDERS[type(operators[k])]
        rows = fields[vslots[idx]].tolist()
        routes_touched += builder(pre, rows, idx.tolist(), look, kill, open_new)

    if pend_routes:
        instance = evaluator.instance
        if len(pend_routes) >= _RESCAN_MIN:
            computed = batch_route_stats(instance, pend_routes)
        else:
            computed = [route_stats(instance, r) for r in pend_routes]
        fulfill = cache.fulfill
        for tup, st in zip(pend_routes, computed):
            fulfill(tup, st)
        pend_d = np.fromiter((st.distance for st in computed), dtype=np.float64)
        pend_t = np.fromiter((st.tardiness for st in computed), dtype=np.float64)

    S = len(vslots)
    Md = np.empty((n + 1, S))
    Md[:n] = pre.dist_r[:, None]
    Md[n] = 0.0
    Mt = np.empty((n + 1, S))
    Mt[:n] = pre.tard_r[:, None]
    Mt[n] = 0.0
    if rr:
        ri = np.asarray(rr)
        ci = np.asarray(cc)
        Md[ri, ci] = vd
        Mt[ri, ci] = vt
    if prr:
        ri = np.asarray(prr)
        ci = np.asarray(pcc)
        ii = np.asarray(pii)
        Md[ri, ci] = pend_d[ii]
        Mt[ri, ci] = pend_t[ii]
    # The fold must be the left-to-right association of the scalar path.
    # ``np.add.reduce`` over axis 0 of a C-order matrix with >1 column
    # is a strided (sequential) reduction — numpy's pairwise summation
    # only applies along the contiguous axis — so it IS that left fold;
    # the explicit loop covers the single-column / very-tall cases where
    # the reduction could become contiguous and re-associate.
    if S > 1 and n < 100:
        distance = np.add.reduce(Md, axis=0)
        tardiness = np.add.reduce(Mt, axis=0)
    else:
        distance = Md[0].copy()
        tardiness = Mt[0].copy()
        for r in range(1, n + 1):
            distance += Md[r]
            tardiness += Mt[r]
    vehicles = np.full(S, n, dtype=np.int64)
    for col in del_cols:
        vehicles[col] -= 1
    for col in add_cols:
        vehicles[col] += 1
    return distance, tardiness, vehicles, routes_touched


# ----------------------------------------------------------------------
# Public entry: one neighborhood, sampled and evaluated
# ----------------------------------------------------------------------
class BatchResult:
    """One sampled neighborhood: per-slot entries plus phase timings.

    ``entries[s]`` is ``(objectives, move, maker)`` — exactly one of
    ``move``/``maker`` is set; a maker is a zero-argument callable
    producing the move (see :class:`_LazyMove`).
    """

    __slots__ = ("entries", "gen_seconds", "eval_seconds")

    def __init__(self, entries, gen_seconds, eval_seconds) -> None:
        self.entries = entries
        self.gen_seconds = gen_seconds
        self.eval_seconds = eval_seconds


def sample_batch(
    solution,
    size,
    registry,
    rng,
    evaluator,
    *,
    vector=True,
    eager_moves=False,
    timed=False,
) -> BatchResult:
    """Sample and evaluate one neighborhood — the only sampler there is.

    Sampling (the RNG-consuming part) is identical for both values of
    ``vector``; the flag picks the evaluation path — the vectorized
    kernel or the scalar bit-identity oracle
    (:meth:`~repro.core.evaluation.Evaluator.evaluate_move`).  Slots
    that fell back to scalar ``draw_move`` are scalar-evaluated on both
    paths; a registry that is not :func:`batch_supported` takes every
    slot that way.  ``rng`` must be the plain
    :class:`numpy.random.Generator` whose stream defines the trajectory.
    """
    supported = batch_supported(registry)
    clock = time.perf_counter
    t0 = clock() if timed else 0.0
    if supported:
        pre = _kernel_state(evaluator).parent_arrays(solution)
        kinds, fields, unfilled = _propose_all(size, registry, rng, pre)
    else:
        kinds = np.full(size, -1, dtype=np.int64)
        unfilled = np.arange(size, dtype=np.int64)
    tail, cut = _scalar_tail(solution, registry, rng, unfilled)
    t1 = clock() if timed else 0.0

    limit = size if cut is None else cut
    vslots = np.nonzero(kinds[:limit] >= 0)[0]
    entries: list = [None] * limit
    metrics = evaluator.metrics
    if supported:
        builders = [_MOVE_BUILDERS[type(op)] for op in registry.operators]
    evaluate_move = evaluator.evaluate_move

    if vector:
        if len(vslots):
            distance, tardiness, vehicles, routes_touched = _evaluate_vector(
                evaluator, pre, kinds, fields, vslots, registry
            )
            evaluator.count += len(vslots)
            kl = kinds[vslots].tolist()
            fl = fields[vslots].tolist()
            dl = distance.tolist()
            tl = tardiness.tolist()
            vl = vehicles.tolist()
            if eager_moves:
                for j, s in enumerate(vslots.tolist()):
                    obj = ObjectiveVector(
                        distance=dl[j], vehicles=vl[j], tardiness=tl[j]
                    )
                    entries[s] = (obj, builders[kl[j]](pre, fl[j]), None)
            else:
                for j, s in enumerate(vslots.tolist()):
                    obj = ObjectiveVector(
                        distance=dl[j], vehicles=vl[j], tardiness=tl[j]
                    )
                    entries[s] = (obj, None, _LazyMove(builders[kl[j]], pre, fl[j]))
        for s, move in tail.items():
            entries[s] = (evaluate_move(solution, move), move, None)
        if metrics.enabled:
            if len(vslots):
                metrics.inc("evaluate.moves", len(vslots))
                metrics.inc("evaluate.routes_touched", routes_touched)
            if supported:
                metrics.inc("eval.vector_calls")
                metrics.observe("eval.batch_size", len(vslots), buckets=_BATCH_BUCKETS)
    else:
        # Oracle path: same slots, same moves, evaluated one by one in
        # slot order through the scalar delta engine.
        kinds_l = kinds.tolist()
        for s in range(limit):
            move = tail.get(s)
            if move is None:
                move = builders[kinds_l[s]](pre, fields[s].tolist())
            entries[s] = (evaluate_move(solution, move), move, None)
    if metrics.enabled and tail:
        metrics.inc("eval.scalar_fallbacks", len(tail))
    gen_seconds = (t1 - t0) if timed else 0.0
    eval_seconds = (clock() - t1) if timed else 0.0
    return BatchResult(entries, gen_seconds, eval_seconds)
