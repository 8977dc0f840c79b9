"""Collaborative multisearch TSMO (paper §III.E).

"The third approach is asynchronous and is placed in the realm of
multisearch parallel algorithms.  The parameters of the algorithm for
each, but the first, are disturbed by a random variable derived from a
normal distribution with mean 0 and a standard deviation that is the
quarter of the parameter to be disturbed.  The algorithms then work in
a similar way to the sequential algorithm, but after an initial phase
they communicate improving solutions that they found along the pareto
front."

Protocol per searcher:

* run a full sequential TSMO with its own (perturbed) parameters,
  memories and evaluation budget;
* *initial phase*: from the start until the searcher's archive has not
  accepted a new solution for ``restart_after`` iterations — "the
  algorithm has found an initial set of good solutions, and has
  finally made a number of non-improving moves";
* afterwards, every archive-improving solution is sent to exactly one
  other searcher, chosen by the head of a per-searcher random
  *communication list* that rotates after each send ("to keep the
  communication overhead small and to prevent all processes from
  searching the same region");
* incoming solutions are offered to the receiver's ``M_nondom`` —
  restarts can then jump into regions discovered by peers.

There is no work sharing: "essentially it performs a sequential
algorithm with communication between the processors", so the simulated
runtime *exceeds* the sequential baseline by the communication and
message-handling overhead (growing with the number of searchers) —
the paper's negative speedups — while the exchanged elites and the
parameter diversity buy the better fronts and markedly lower vehicle
counts.

The reported archive merges the searchers' fronts into one archive of
the configured capacity, and the reported evaluations are the total
across searchers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.stats_cache import RouteStatsCache
from repro.errors import SimulationError
from repro.core.objectives import ObjectiveVector
from repro.mo.archive import ParetoArchive
from repro.obs import NULL_OBS
from repro.parallel.base import sequential_step, simulation_context
from repro.parallel.costmodel import CostModel
from repro.parallel.des import Mailbox
from repro.parallel.messages import SolutionMessage
from repro.rng import RngFactory
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult, decode_routes, encode_solution
from repro.tabu.trace import TrajectoryRecorder
from repro.vrptw.instance import Instance

__all__ = ["CollabParams", "EliteExchange", "run_collaborative_tsmo"]


def _encode_message(msg: SolutionMessage) -> tuple:
    return (msg.sender, encode_solution(msg.solution), tuple(msg.objectives))


def _decode_message(instance: Instance, data: tuple) -> SolutionMessage:
    sender, routes, objectives = data
    return SolutionMessage(
        sender=sender,
        solution=decode_routes(instance, routes),
        objectives=ObjectiveVector(*objectives),
    )


class _CollabBarrier:
    """Checkpoint coordinator for the collaborative searchers.

    Unlike the master–worker variants, no single process ever owns the
    global state, so snapshots use a barrier: when round ``k`` is due
    (a searcher's own evaluation count reaches ``k * every``), each
    live searcher pauses at its loop top.
    The *last* arriver — possibly a searcher that just finished its
    budget — becomes the leader: it captures the global state
    synchronously (every engine, comm lists, inbox buffers, in-flight
    messages, cluster streams, the simulated clock), commits the
    checkpoint, and releases the waiters in rank order through
    per-rank mailboxes.  The stored spawn order (leader first, then
    waiters in release order) lets the resuming run reproduce the
    exact event interleaving after the barrier.

    As with the asynchronous drain, the barrier is an extra
    synchronization: the checkpoint cadence is part of the protocol
    (crash+resume under a policy matches an uninterrupted run under
    the *same* policy).
    """

    def __init__(self, env, policy, n_searchers, total_count, capture):
        self.env = env
        self.policy = policy
        self.n = n_searchers
        self.total_count = total_count  # () -> total evaluations
        self.capture = capture  # (leader, live_order) -> state dict
        self.k = 1
        self.arrived: set[int] = set()
        self.finished_ranks: set[int] = set()
        self.boxes = [Mailbox(env, f"ckpt-barrier-{r}") for r in range(n_searchers)]

    def due(self, rank: int, own_count: int) -> bool:
        # An interrupt never moves the barrier off its scheduled
        # rounds (that would change the protocol and break
        # bit-identical resume); the scheduled commit raises
        # SearchInterrupted instead.  Only without a cadence does an
        # interrupt trigger an immediate round.
        every = self.policy.every
        if every is not None:
            return own_count >= self.k * every
        return self.policy.interrupt.is_set()

    def maybe_crash(self) -> None:
        self.policy.maybe_crash(self.total_count())

    def arrive(self, rank: int):
        """Pause at the barrier (``yield from`` this at the loop top)."""
        self.arrived.add(rank)
        if self.arrived | self.finished_ranks == set(range(self.n)):
            self._complete(leader=rank, leader_live=True)
            return
        yield self.boxes[rank].get()

    def finished(self, rank: int) -> None:
        """A searcher exhausted its budget; stop waiting for it."""
        self.finished_ranks.add(rank)
        if (
            self.arrived
            and self.arrived | self.finished_ranks == set(range(self.n))
        ):
            self._complete(leader=rank, leader_live=False)

    def _complete(self, leader: int, leader_live: bool) -> None:
        waiting = sorted(self.arrived - {leader})
        live_order = ([leader] if leader_live else []) + waiting
        self.arrived.clear()
        state = self.capture(leader, live_order)
        if self.policy.every is not None and live_order:
            slowest = min(state["counts"][r] for r in live_order)
            self.k = slowest // self.policy.every + 1
        # Store the *post-advance* round index: a resumed run must wait
        # for round k+1, not replay round k (an extra barrier round
        # would perturb same-time event ordering and the clock).
        state["barrier_k"] = self.k
        # commit may raise SearchInterrupted: waiters stay parked and
        # the exception unwinds env.run() — exactly the wanted exit.
        try:
            self.policy.commit(self.total_count(), state, kind="collaborative")
        finally:
            if not self.policy.interrupt.is_set():
                for r in waiting:
                    self.boxes[r].put(True)


class EliteExchange:
    """One searcher's side of the §III.E elite exchange.

    Until the searcher's archive has gone ``patience`` iterations
    without accepting a solution (the *initial phase*), nothing is
    sent.  Afterwards every archive-improving current goes to the head
    of the searcher's communication list, which then rotates.  Received
    elites are offered to ``M_nondom``, where restarts can pick them up.
    ``patience=None`` uses the engine's ``restart_after``.

    The collaborative searchers and the hybrid's island masters both
    use it; the phase flag, the list and the counters are public so the
    collaborative checkpoint can capture and restore them.
    """

    def __init__(
        self,
        cluster,
        engine: TSMOEngine,
        rank: int,
        comm: list[int],
        patience: int | None = None,
        *,
        obs=NULL_OBS,
        span: str | None = None,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.rank = rank
        self.comm = comm
        self.patience = engine.params.restart_after if patience is None else patience
        self.obs = obs
        self.span = span
        self.initial_phase = True
        self.last_improvement = 0
        self.sends = 0
        self.receives = 0

    def receive(self, msg: SolutionMessage):
        """Handle one foreign elite (``yield from`` it)."""
        env = self.cluster.env
        t0 = env.now
        yield self.cluster.receive_overhead(self.rank, 1, streamed=False)
        if self.obs.profiler.enabled:
            self.obs.profiler.add("communicate", env.now - t0)
        if self.obs.tracer.enabled:
            self.obs.tracer.emit(
                "comm_recv", span=self.span, peer=msg.sender, kind="elite"
            )
        self.receives += 1
        self.engine.memories.nondom.try_add(msg.solution, msg.objectives)

    def after_selection(self, version_before: int) -> None:
        """Advance the phase; send the current solution if it improved
        the archive (``version_before`` is the archive version before
        the selection)."""
        engine = self.engine
        improved = engine.memories.archive.version != version_before
        if improved:
            self.last_improvement = engine.iteration
        if self.initial_phase:
            if engine.iteration - self.last_improvement >= self.patience:
                self.initial_phase = False
        elif improved and self.comm:
            dst = self.comm.pop(0)
            self.comm.append(dst)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.emit("comm_send", span=self.span, peer=dst, kind="elite")
            current = engine.current
            elite = SolutionMessage(self.rank, current, current.objectives)
            self.cluster.send(self.rank, dst, elite, n_items=1)
            self.sends += 1


@dataclass(frozen=True, slots=True)
class CollabParams:
    """Knobs specific to the collaborative variant."""

    #: perturb parameters of searchers 1..P-1 (searcher 0 keeps the
    #: baseline parameters, as in the paper).
    perturb: bool = True
    #: iterations without an archive improvement that end the initial
    #: phase.  ``None`` follows the paper and reuses each searcher's
    #: ``restart_after``; benchmark runs with shrunken budgets set it
    #: proportionally smaller so the communication phase is actually
    #: reached.
    initial_phase_patience: int | None = None

    def __post_init__(self) -> None:
        if self.initial_phase_patience is not None and self.initial_phase_patience < 0:
            raise SimulationError("initial_phase_patience must be >= 0")


def run_collaborative_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_processors: int = 3,
    seed: int | np.random.SeedSequence | None = None,
    cost_model: CostModel | None = None,
    collab_params: CollabParams | None = None,
    *,
    registry: OperatorRegistry | None = None,
    trace: TrajectoryRecorder | None = None,
    checkpoint=None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Run the collaborative multisearch TSMO on the simulated cluster.

    ``trace``, when given, records searcher 0's trajectory.

    Checkpointing uses the :class:`_CollabBarrier` protocol: snapshots
    capture every searcher plus the rotated communication lists,
    undelivered inter-searcher messages (buffered and in transit) and
    the simulated clock; crash injection triggers on the *total*
    evaluation count across searchers.
    """
    params = params or TSMOParams()
    cparams = collab_params or CollabParams()
    if n_processors < 2:
        raise SimulationError("multisearch needs >= 2 searchers")
    obs.set_unit("simulated")
    registry = registry or default_registry()
    factory = RngFactory(seed)
    searcher_rngs = factory.generators(n_processors)
    commlist_rng = factory.generator()
    cluster_seed = factory.seed_sequence()
    env, cluster, _ = simulation_context(n_processors, cost_model, cluster_seed, 0)
    cost = cluster.cost

    # One route-stats cache shared across all searchers: on a shared-
    # memory machine the memo is common infrastructure, and the
    # searchers roam overlapping regions of the same instance, so
    # cross-searcher hits are real.
    shared_cache = RouteStatsCache(instance)
    engines: list[TSMOEngine] = []
    for rank in range(n_processors):
        rng = searcher_rngs[rank]
        local_params = params
        if cparams.perturb and rank > 0:
            local_params = params.perturbed(rng)
        engines.append(
            TSMOEngine(
                instance,
                local_params,
                rng,
                evaluator=Evaluator(
                    instance, params.max_evaluations, stats_cache=shared_cache
                ),
                registry=registry,
                trace=trace if rank == 0 else None,
                # All searchers share one bundle; restore_state replaces
                # (rather than merges), so the n-fold restore at a
                # resumed barrier is idempotent.
                obs=obs,
            )
        )

    # Per-searcher random communication list over the other searchers.
    exchanges: list[EliteExchange] = []
    for rank in range(n_processors):
        others = [r for r in range(n_processors) if r != rank]
        exchanges.append(
            EliteExchange(
                cluster,
                engines[rank],
                rank,
                list(commlist_rng.permutation(others)),
                cparams.initial_phase_patience,
                obs=obs,
                span=f"searcher-{rank}",
            )
        )
    finish_times = [0.0] * n_processors

    resumed = (
        checkpoint.load_resume_state(kind="collaborative")
        if checkpoint is not None
        else None
    )

    def capture(leader: int, live_order: list[int]) -> dict:
        return {
            "engines": [engine.snapshot() for engine in engines],
            "counts": [engine.evaluator.count for engine in engines],
            "comm_lists": [list(x.comm) for x in exchanges],
            "initial_phase": [x.initial_phase for x in exchanges],
            "last_improvement": [x.last_improvement for x in exchanges],
            "finish_times": list(finish_times),
            "sends": [x.sends for x in exchanges],
            "receives": [x.receives for x in exchanges],
            "finished": sorted(barrier.finished_ranks),
            "live_order": live_order,
            "barrier_k": barrier.k,
            "inboxes": [
                [_encode_message(m) for m in cluster.inbox(r)._buffer]
                for r in range(n_processors)
            ],
            "pending": [
                (remaining, dst, _encode_message(payload))
                for remaining, dst, payload in cluster.pending_deliveries()
            ],
            "cluster": cluster.export_state(),
            "env_now": env.now,
        }

    barrier = (
        _CollabBarrier(
            env,
            checkpoint,
            n_processors,
            lambda: sum(engine.evaluator.count for engine in engines),
            capture,
        )
        if checkpoint is not None
        else None
    )

    if resumed is not None:
        if len(resumed["engines"]) != n_processors:
            raise SimulationError(
                f"snapshot has {len(resumed['engines'])} searchers, "
                f"run asked for {n_processors}"
            )
        for engine, state in zip(engines, resumed["engines"]):
            engine.restore(state)
        for rank, x in enumerate(exchanges):
            x.comm[:] = list(resumed["comm_lists"][rank])
            x.initial_phase = resumed["initial_phase"][rank]
            x.last_improvement = resumed["last_improvement"][rank]
            x.sends = resumed["sends"][rank]
            x.receives = resumed["receives"][rank]
        finish_times[:] = resumed["finish_times"]
        cluster.restore_state(resumed["cluster"])
        env.now = resumed["env_now"]
        for rank, buffered in enumerate(resumed["inboxes"]):
            for data in buffered:
                cluster.inbox(rank)._buffer.append(_decode_message(instance, data))
        cluster.restore_deliveries(
            [
                (remaining, dst, _decode_message(instance, data))
                for remaining, dst, data in resumed["pending"]
            ]
        )
        barrier.k = resumed["barrier_k"]
        barrier.finished_ranks = set(resumed["finished"])
        checkpoint.note_resumed(sum(engine.evaluator.count for engine in engines))

    def searcher(rank: int):
        engine = engines[rank]
        exchange = exchanges[rank]
        inbox = cluster.inbox(rank)
        if resumed is None:
            yield cluster.compute(rank, cost.init_cost(instance.n_customers))
            engine.initialize()
        # A resumed searcher restarts exactly where the barrier paused
        # it: past the arrival check (the snapshot's round is done) but
        # before the crash/done checks, like the original post-release.
        skip_arrival = resumed is not None
        while True:
            if barrier is not None:
                if not skip_arrival and barrier.due(rank, engine.evaluator.count):
                    yield from barrier.arrive(rank)
                barrier.maybe_crash()
            skip_arrival = False
            if engine.done:
                break
            # Drain foreign elites into the medium-term memory.
            while (msg := inbox.get_nowait()) is not None:
                yield from exchange.receive(msg)
            version_before = engine.memories.archive.version
            yield from sequential_step(cluster, rank, engine, obs.profiler)
            exchange.after_selection(version_before)
        # The finish time must be on record BEFORE the barrier learns
        # this searcher is done — finished() may complete a pending
        # round and snapshot finish_times right away.
        finish_times[rank] = env.now
        if barrier is not None:
            barrier.finished(rank)

    if resumed is None:
        for rank in range(n_processors):
            env.process(searcher(rank), name=f"searcher-{rank}")
    else:
        # Leader first, then the released waiters in rank order — the
        # spawn order reproduces the post-barrier event interleaving of
        # the original run.  Finished searchers are not respawned.
        for rank in resumed["live_order"]:
            env.process(searcher(rank), name=f"searcher-{rank}")

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start

    # Merge the searchers' fronts into one bounded archive, so quality
    # columns and coverage compare like against like (same capacity as
    # the other variants' archives).
    merged: ParetoArchive = ParetoArchive(params.archive_capacity)
    for engine in engines:
        for entry in engine.memories.archive.entries:
            merged.try_add(entry.item, entry.objectives)

    metrics = profile = None
    if obs.enabled:
        m = obs.metrics
        m.gauge("cache.hits", shared_cache.hits)
        m.gauge("cache.misses", shared_cache.misses)
        m.gauge("cache.evictions", shared_cache.evictions)
        m.gauge("cache.size", len(shared_cache))
        m.gauge("comm.messages_sent", cluster.messages_sent)
        m.gauge("collab.exchanges", sum(x.sends for x in exchanges))
        metrics = m.snapshot()
        profile = obs.profiler.summary()
    result = TSMOResult(
        instance_name=instance.name,
        algorithm="collaborative",
        params=params,
        archive=list(merged.entries),
        iterations=sum(e.iteration for e in engines),
        evaluations=sum(e.evaluator.count for e in engines),
        restarts=sum(e.restarts for e in engines),
        wall_time=wall,
        simulated_time=max(finish_times),
        processors=n_processors,
        trace=trace,
        cache_stats=shared_cache.snapshot(),
        metrics=metrics,
        profile=profile,
    )
    result.extra["messages_sent"] = cluster.messages_sent
    result.extra["exchanges"] = sum(x.sends for x in exchanges)
    # Send/receive conservation: every sent elite is either drained by
    # its receiver (a receive) or still sits in an inbox when the
    # receiver's budget ran out first (undelivered).  Both sides are
    # exported so the invariant is checkable:
    #     sum(sends) == sum(receives) + undelivered_solutions
    result.extra["per_searcher_sends"] = [x.sends for x in exchanges]
    result.extra["per_searcher_receives"] = [x.receives for x in exchanges]
    result.extra["undelivered_solutions"] = sum(
        len(cluster.inbox(rank)) for rank in range(n_processors)
    )
    result.extra["per_searcher_evaluations"] = [e.evaluator.count for e in engines]
    result.extra["per_searcher_finish"] = list(finish_times)
    return result
