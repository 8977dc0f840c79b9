"""Algorithm 1 — the sequential TSMO — and its reusable engine.

The engine splits one TSMO iteration into the two halves the paper
parallelizes across:

* :meth:`TSMOEngine.generate_neighborhood` — draw and evaluate
  ``neighborhood_size`` moves (lines 6–7 of Algorithm 1); this is what
  the synchronous/asynchronous masters farm out to workers;
* :meth:`TSMOEngine.select_and_update` — select one non-dominated,
  non-tabu neighbor as the new current solution, fall back to a restart
  from memory when selection fails or the archive has stagnated, and
  update the three memories (lines 8–16).

The sequential algorithm is then literally ``while not done:
select_and_update(generate_neighborhood())``, and every parallel
variant reuses ``select_and_update`` unchanged, which is what makes the
synchronous variant behaviorally equivalent to the sequential one (the
paper's §III.C invariant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator
from repro.core.objectives import ObjectiveVector
from repro.core.operators.registry import OperatorRegistry, default_registry
from repro.core.solution import Solution
from repro.core.stats_cache import CacheStats
from repro.errors import CheckpointError, SearchError
from repro.mo.archive import ArchiveEntry
from repro.mo.dominance import non_dominated_mask
from repro.obs import NULL_OBS
from repro.persistence.atomic import atomic_write_bytes
from repro.rng import as_generator, get_generator_state, set_generator_state
from repro.tabu.memories import Memories
from repro.tabu.neighborhood import Neighbor, sample_neighborhood
from repro.tabu.params import TSMOParams
from repro.tabu.trace import TrajectoryRecorder
from repro.vrptw.instance import Instance

__all__ = [
    "TSMOEngine",
    "TSMOResult",
    "decode_routes",
    "encode_solution",
    "run_sequential_tsmo",
]

#: version of :meth:`TSMOEngine.snapshot`'s payload layout.
ENGINE_SNAPSHOT_VERSION = 1


def encode_solution(solution: Solution) -> tuple[tuple[int, ...], ...]:
    """A solution as bare route tuples — picklable, instance-free.

    Snapshots never pickle :class:`Solution` objects: they drag the
    whole :class:`Instance` (distance matrices included) into every
    checkpoint and would re-anchor restored solutions to a *copy* of
    the instance instead of the live one.
    """
    return tuple(tuple(int(c) for c in route) for route in solution.routes)


def decode_routes(
    instance: Instance, routes: tuple[tuple[int, ...], ...]
) -> Solution:
    """Re-anchor encoded routes to the live instance.

    Objectives are recomputed lazily on first access; the computation
    is a pure function of the route tuples, so the restored solution's
    objective triple is bit-identical to the one that was archived.
    """
    return Solution(instance, tuple(tuple(route) for route in routes))


@dataclass
class TSMOResult:
    """Outcome of one TSMO run (any variant).

    ``archive`` is the final Pareto archive content; the reporting
    helpers implement the paper's filter — "only those solutions were
    considered that did not violate the time-window and capacity
    constraints".
    """

    instance_name: str
    algorithm: str
    params: TSMOParams
    archive: list[ArchiveEntry[Solution]]
    iterations: int
    evaluations: int
    restarts: int
    wall_time: float
    #: simulated cluster time in cost-model units (None for plain
    #: sequential runs executed outside the simulated cluster).
    simulated_time: float | None = None
    #: number of (simulated) processors used.
    processors: int = 1
    trace: TrajectoryRecorder | None = None
    #: route-stats cache counters at the end of the run (the delta
    #: evaluation observability surface; ``None`` when the variant never
    #: ran the delta path, e.g. results built from storage).
    cache_stats: CacheStats | None = None
    #: metrics-registry snapshot (counters/gauges/histograms)
    #: for instrumented runs; ``None`` when observability was disabled.
    metrics: dict | None = None
    #: per-phase profiler summary (``{"unit": ..., "phases": ...}``)
    #: for instrumented runs; ``None`` when observability was disabled.
    profile: dict | None = None
    extra: dict = field(default_factory=dict)

    def front(self) -> np.ndarray:
        """All archive objective vectors as an ``(n, 3)`` array."""
        if not self.archive:
            return np.zeros((0, 3))
        return np.vstack([e.objectives.as_array() for e in self.archive])

    def feasible_front(self) -> np.ndarray:
        """Objective vectors of time-window-feasible archive members."""
        rows = [e.objectives.as_array() for e in self.archive if e.objectives.feasible]
        if not rows:
            return np.zeros((0, 3))
        return np.vstack(rows)

    def best_feasible(self) -> tuple[float, float] | None:
        """Per-objective minima over the feasible front:
        ``(min distance, min vehicles)`` — the paper's first two table
        columns.  ``None`` when no feasible solution was found."""
        front = self.feasible_front()
        if front.shape[0] == 0:
            return None
        return float(front[:, 0].min()), float(front[:, 1].min())

    # ------------------------------------------------------------------
    # Persistence (paper-scale runs take hours; keep their results)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Pickle this result (archive solutions included) to ``path``.

        The write is atomic (tmp + fsync + rename), so a crash mid-save
        leaves the previous file intact instead of a torn pickle.  The
        trace can be large; it is kept — drop it beforehand
        (``result.trace = None``) when only the front matters.
        """
        import pickle

        atomic_write_bytes(path, pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    @staticmethod
    def load(path) -> "TSMOResult":
        """Load a result previously stored with :meth:`save`.

        Truncated or corrupt files raise :class:`~repro.errors.
        SearchError` naming the path instead of leaking raw pickle
        errors.  Only unpickle files you created yourself — pickle
        executes arbitrary code from untrusted data.
        """
        import pickle
        from pathlib import Path

        try:
            result = pickle.loads(Path(path).read_bytes())
        except (EOFError, pickle.UnpicklingError, AttributeError, IndexError) as exc:
            raise SearchError(
                f"{path} is not a readable TSMOResult pickle "
                f"(truncated or corrupt): {exc}"
            ) from exc
        if not isinstance(result, TSMOResult):
            raise SearchError(f"{path} does not contain a TSMOResult")
        return result


class TSMOEngine:
    """Shared iteration core of all TSMO variants."""

    def __init__(
        self,
        instance: Instance,
        params: TSMOParams,
        rng: int | np.random.Generator | None,
        evaluator: Evaluator | None = None,
        registry: OperatorRegistry | None = None,
        trace: TrajectoryRecorder | None = None,
        obs=NULL_OBS,
    ) -> None:
        self.instance = instance
        self.params = params
        self.rng = as_generator(rng)
        self.evaluator = evaluator or Evaluator(instance, params.max_evaluations)
        self.registry = registry or default_registry()
        self.trace = trace
        # Instrumentation only observes — it never touches the RNG or
        # control flow, so trajectories are identical with or without it.
        self.obs = obs
        if obs.enabled:
            self.evaluator.metrics = obs.metrics
        self.memories = Memories(params)
        self.current: Solution | None = None
        self.iteration = 0
        self.restarts = 0
        self._no_improvement = False
        self._last_archive_version = 0
        self._last_change_iteration = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, initial: Solution | None = None) -> Solution:
        """Construct (or adopt) the initial solution and seed the memories."""
        if initial is None:
            initial = i1_construct(self.instance, rng=self.rng)
        objectives = self.evaluator.evaluate(initial)
        if self.params.hard_time_windows and not objectives.feasible:
            raise SearchError(
                "hard-time-window mode needs a feasible initial solution "
                f"(got tardiness {objectives.tardiness:.2f}); enlarge the "
                "fleet or relax to soft windows"
            )
        self.current = initial
        self.memories.archive.try_add(initial, objectives)
        self.memories.nondom.try_add(initial, objectives)
        self._last_archive_version = self.memories.archive.version
        self._last_change_iteration = 0
        if self.trace is not None:
            self.trace.record_selection(0, 0, objectives, restarted=False)
        return initial

    @property
    def done(self) -> bool:
        """True once the evaluation budget is exhausted."""
        return self.evaluator.exhausted

    # ------------------------------------------------------------------
    # The two halves of an iteration
    # ------------------------------------------------------------------
    def generate_neighborhood(self, size: int | None = None) -> list[Neighbor]:
        """Sample and evaluate a neighborhood of the current solution."""
        if self.current is None:
            raise SearchError("engine not initialized; call initialize() first")
        obs = self.obs
        # Wall-clock phase splitting only makes sense for real-time
        # drivers; simulated drivers derive their phases from the cost
        # model instead (see parallel/base.py).
        profiler = (
            obs.profiler
            if obs.enabled and obs.profiler.unit == "seconds"
            else None
        )
        return sample_neighborhood(
            self.current,
            size if size is not None else self.params.neighborhood_size,
            self.registry,
            self.rng,
            self.evaluator,
            iteration=self.iteration + 1,
            profiler=profiler,
        )

    def select_and_update(self, neighbors: list[Neighbor]) -> Solution:
        """Lines 8–16 of Algorithm 1 over an (arbitrary) neighbor batch.

        The batch may be a full neighborhood (sequential/synchronous), a
        partial one plus stragglers from earlier iterations
        (asynchronous), or a normal neighborhood while foreign solutions
        have meanwhile entered ``M_nondom`` (collaborative) — the logic
        is identical.
        """
        if self.current is None:
            raise SearchError("engine not initialized; call initialize() first")
        self.iteration += 1
        iteration = self.iteration
        if self.trace is not None:
            for n in neighbors:
                self.trace.record_neighbor(n.iteration, n.objectives)

        selected = self._select(neighbors)
        restarted = False
        if selected is None or self._no_improvement:
            self._no_improvement = False
            self.current = self.memories.restart_candidate(self.rng)
            self.restarts += 1
            restarted = True
        else:
            self.memories.tabulist.push(selected.move.attribute)
            self.current = selected.solution

        # UpdateMemories(s, N): chosen current into the archive, other
        # non-dominated neighbors into the medium-term memory.
        hard = self.params.hard_time_windows
        self.memories.archive.try_add(self.current, self.current.objectives)
        if neighbors:
            mask = non_dominated_mask([n.objectives for n in neighbors])
            for keep, n in zip(mask, neighbors):
                if keep and (selected is None or n is not selected):
                    if hard and not n.objectives.feasible:
                        continue
                    self.memories.nondom.try_add(n.solution, n.objectives)

        # isUnchanged(M_archive): stagnation arms the restart flag for
        # the *next* iteration, exactly as lines 14–16 order it.
        archive_changed = self.memories.archive.version != self._last_archive_version
        if archive_changed:
            self._last_archive_version = self.memories.archive.version
            self._last_change_iteration = iteration
        elif iteration - self._last_change_iteration >= self.params.restart_after:
            self._no_improvement = True
            self._last_change_iteration = iteration

        # The iteration whose neighborhood produced the new current: the
        # Figure-1 carryover marker when it predates this iteration.
        created = 0 if restarted else (selected.iteration if selected else 0)
        if self.trace is not None:
            self.trace.record_selection(
                created, iteration, self.current.objectives, restarted=restarted
            )
            self.trace.record_archive_size(iteration, len(self.memories.archive))
            cache = self.evaluator.stats_cache
            self.trace.record_cache(iteration, cache.hits, cache.misses, cache.evictions)
        obs = self.obs
        if obs.enabled:
            self._record_iteration(obs, neighbors, restarted, archive_changed, created)
        return self.current

    def _record_iteration(
        self, obs, neighbors, restarted: bool, archive_changed: bool, created: int
    ) -> None:
        """Emit the per-iteration events/metrics (instrumented runs only).

        Runs strictly after all search state is updated, so nothing
        here can influence the trajectory.
        """
        archive_size = len(self.memories.archive)
        metrics = obs.metrics
        metrics.inc("search.iterations")
        if restarted:
            metrics.inc("search.restarts")
        metrics.gauge("search.archive_size", archive_size)
        metrics.observe(
            "search.batch_size",
            len(neighbors),
            buckets=(0, 5, 10, 25, 50, 100, 250, 500),
        )
        tracer = obs.tracer
        if tracer.enabled:
            objectives = self.current.objectives
            tracer.emit(
                "iteration",
                iteration=self.iteration,
                evaluations=self.evaluator.count,
                archive_size=archive_size,
            )
            tracer.emit(
                "move_applied",
                iteration=self.iteration,
                objectives=[
                    objectives.distance,
                    objectives.vehicles,
                    objectives.tardiness,
                ],
                created=created,
                restarted=restarted,
            )
            if archive_changed:
                tracer.emit(
                    "archive_update",
                    iteration=self.iteration,
                    archive_size=archive_size,
                )

    def _select(self, neighbors: list[Neighbor]) -> Neighbor | None:
        """Pick one non-dominated, non-tabu neighbor uniformly at random.

        In hard-time-window mode, tardy neighbors are screened out
        before the dominance filter (they are infeasible by §II's hard
        definition, not merely penalized).
        """
        if self.params.hard_time_windows:
            neighbors = [n for n in neighbors if n.objectives.feasible]
        if not neighbors:
            return None
        mask = non_dominated_mask([n.objectives for n in neighbors])
        tabulist = self.memories.tabulist
        aspiration = self.params.aspiration
        candidates = []
        for keep, n in zip(mask, neighbors):
            if not keep:
                continue
            if n.move.attribute in tabulist:
                # Aspiration by objective: a tabu move is admitted when
                # its solution would still improve the Pareto archive.
                if not (aspiration and self.memories.archive.would_accept(n.objectives)):
                    continue
            candidates.append(n)
        if not candidates:
            return None
        return candidates[int(self.rng.integers(len(candidates)))]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture everything needed to continue this search bit-identically.

        Valid at any iteration boundary (between ``select_and_update``
        calls): the current solution and all three memories as encoded
        route tuples, all counters, the stagnation bookkeeping, the
        exact RNG bit-state (PCG64 state dict including the half-word
        carry), and the trajectory recorder.  The route-stats cache is
        deliberately NOT captured — it is a pure performance memo whose
        contents never influence results, so a resumed run simply
        starts cold (its hit/miss counters are the one documented
        bit-identity exclusion besides wall time).
        """
        if self.current is None:
            raise SearchError("cannot snapshot an uninitialized engine")
        obs = self.obs
        if obs.tracer.enabled:
            obs.tracer.emit("checkpoint", kind="engine", iteration=self.iteration)
        return {
            "v": ENGINE_SNAPSHOT_VERSION,
            "instance": self.instance.name,
            "current": encode_solution(self.current),
            "iteration": self.iteration,
            "restarts": self.restarts,
            "evaluations": self.evaluator.count,
            "no_improvement": self._no_improvement,
            "last_archive_version": self._last_archive_version,
            "last_change_iteration": self._last_change_iteration,
            "rng": get_generator_state(self.rng),
            "memories": self.memories.export_state(encode_solution),
            "trace": self.trace.export_state() if self.trace is not None else None,
            # Cumulative observability series ride along so resumed runs
            # report whole-run totals; readers use .get() — older
            # version-1 snapshots without the key restore fine.
            "obs": obs.export_state() if obs.enabled else None,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`, re-anchored to the live instance."""
        if state.get("v") != ENGINE_SNAPSHOT_VERSION:
            raise CheckpointError(
                f"engine snapshot version {state.get('v')!r} is not supported "
                f"(expected {ENGINE_SNAPSHOT_VERSION})"
            )
        if state["instance"] != self.instance.name:
            raise CheckpointError(
                f"snapshot belongs to instance {state['instance']!r}, "
                f"but the engine runs {self.instance.name!r}"
            )
        decode = lambda routes: decode_routes(self.instance, routes)  # noqa: E731
        self.current = decode(state["current"])
        self.iteration = state["iteration"]
        self.restarts = state["restarts"]
        self.evaluator.count = state["evaluations"]
        self._no_improvement = state["no_improvement"]
        self._last_archive_version = state["last_archive_version"]
        self._last_change_iteration = state["last_change_iteration"]
        set_generator_state(self.rng, state["rng"])
        self.memories.restore_state(state["memories"], decode)
        if state["trace"] is not None:
            if self.trace is None:
                self.trace = TrajectoryRecorder()
            self.trace.restore_state(state["trace"])
        obs_state = state.get("obs")
        if obs_state and self.obs.enabled:
            self.obs.restore_state(obs_state)

    # ------------------------------------------------------------------
    # Sequential driver
    # ------------------------------------------------------------------
    def step(self) -> Solution:
        """One full sequential iteration."""
        return self.select_and_update(self.generate_neighborhood())

    def result(
        self,
        algorithm: str = "sequential",
        *,
        wall_time: float = 0.0,
        simulated_time: float | None = None,
        processors: int = 1,
    ) -> TSMOResult:
        """Snapshot the engine state into a :class:`TSMOResult`."""
        obs = self.obs
        metrics = profile = None
        if obs.enabled:
            # Fold the route-stats cache counters into the registry so
            # one snapshot carries the full observability surface
            # (gauges: idempotent if result() is called twice).
            cache = self.evaluator.stats_cache
            m = obs.metrics
            m.gauge("cache.hits", cache.hits)
            m.gauge("cache.misses", cache.misses)
            m.gauge("cache.evictions", cache.evictions)
            m.gauge("cache.size", len(cache))
            metrics = m.snapshot()
            profile = obs.profiler.summary()
        return TSMOResult(
            instance_name=self.instance.name,
            algorithm=algorithm,
            params=self.params,
            archive=list(self.memories.archive.entries),
            iterations=self.iteration,
            evaluations=self.evaluator.count,
            restarts=self.restarts,
            wall_time=wall_time,
            simulated_time=simulated_time,
            processors=processors,
            trace=self.trace,
            cache_stats=self.evaluator.stats_cache.snapshot(),
            metrics=metrics,
            profile=profile,
        )


def run_sequential_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    seed: int | np.random.Generator | None = None,
    *,
    registry: OperatorRegistry | None = None,
    trace: TrajectoryRecorder | None = None,
    initial: Solution | None = None,
    checkpoint=None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Run the sequential TSMO (Algorithm 1) to budget exhaustion.

    With a :class:`~repro.persistence.CheckpointPolicy` the loop
    snapshots at iteration boundaries (a consistent cut: the RNG and
    all memories are quiescent there) and, when the policy resumes,
    continues from the stored snapshot instead of constructing an
    initial solution.  Checkpointing is fully transparent for this
    driver — the result is bit-identical with or without it.
    """
    params = params or TSMOParams()
    obs.set_unit("seconds")
    engine = TSMOEngine(
        instance, params, seed, registry=registry, trace=trace, obs=obs
    )
    start = time.perf_counter()
    resumed = (
        checkpoint.load_resume_state(kind="sequential")
        if checkpoint is not None
        else None
    )
    if resumed is not None:
        engine.restore(resumed)
        checkpoint.note_resumed(engine.evaluator.count)
    else:
        engine.initialize(initial)
    profiler = obs.profiler
    while True:
        # The policy block runs BEFORE the done-check so a threshold
        # that coincides with budget exhaustion still snapshots, and a
        # resumed run replays the same number of iterations.
        if checkpoint is not None:
            count = engine.evaluator.count
            checkpoint.tick(count, engine.snapshot, kind="sequential")
        if engine.done:
            break
        # generate/evaluate phases are split inside sample_neighborhood.
        neighbors = engine.generate_neighborhood()
        with profiler.time("select"):
            engine.select_and_update(neighbors)
    wall = time.perf_counter() - start
    return engine.result("sequential", wall_time=wall)


def _objectives_of(neighbors: list[Neighbor]) -> list[ObjectiveVector]:
    """Convenience for tests."""
    return [n.objectives for n in neighbors]
