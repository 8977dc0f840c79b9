"""Algorithm 2, the asynchronous decision function (paper §III.D).

One :class:`~repro.parallel.async_ts.DecisionFunction` decides for the
simulated asynchronous master, every hybrid island and the real-process
asynchronous driver.  It checks ``c2`` incrementally, over the pool
entries added since its last call; the property test below holds it to
a full numpy rescan of the pool.  The driver tests check that each
master emits exactly one ``decision_fired`` event per selection.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import ObjectiveVector
from repro.mo.dominance import dominates
from repro.obs import Obs
from repro.parallel.async_ts import DecisionFunction, run_asynchronous_tsmo
from repro.parallel.hybrid_ts import HybridParams, run_hybrid_tsmo
from repro.parallel.mp_backend import MpAsyncParams, run_multiprocessing_async_tsmo
from repro.parallel.pool import PoolParams
from repro.tabu.params import TSMOParams

CONDITIONS = ("c1", "c2", "c3", "c4")

# Few distinct values per objective, so ties (equal floats, equal
# vehicle counts) are common.
objectives = st.builds(
    ObjectiveVector,
    st.sampled_from([10.0, 10.5, 11.0, 12.25]),
    st.integers(min_value=2, max_value=4),
    st.sampled_from([0.0, 0.0, 1.5, 3.0]),
)
steps = st.lists(
    st.tuples(
        st.lists(objectives, max_size=4),  # arrivals since the last call
        st.booleans(),  # a worker is idle
        st.booleans(),  # the wait timed out
        st.booleans(),  # the budget is exhausted
        objectives,  # the next current, if this call selects
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(current=objectives, steps=steps)
def test_incremental_c2_equals_full_rescan(current, steps):
    decide = DecisionFunction()
    pool = []
    for arrivals, idle, timed_out, exhausted, next_current in steps:
        pool.extend(SimpleNamespace(objectives=obj) for obj in arrivals)
        fired = decide(
            pool, current, 1, idle=idle, timed_out=timed_out, exhausted=exhausted
        )
        c2 = any(
            dominates(n.objectives.as_array(), current.as_array()) for n in pool
        )
        hits = (idle, c2, timed_out, exhausted)
        expected = tuple(name for name, hit in zip(CONDITIONS, hits) if hit)
        if not pool and not exhausted:
            expected = ()
        assert fired == expected
        if fired:
            # The master selects: the pool empties and the current moves.
            pool.clear()
            current = next_current


def test_empty_pool_waits_unless_exhausted():
    decide = DecisionFunction()
    current = ObjectiveVector(10.0, 3, 0.0)
    assert decide([], current, 1, idle=True, timed_out=True, exhausted=False) == ()
    assert decide([], current, 1, idle=True, timed_out=False, exhausted=True) == (
        "c1",
        "c4",
    )


# ----------------------------------------------------------------------
# decision_fired from real runs
# ----------------------------------------------------------------------
PARAMS = TSMOParams(max_evaluations=600, neighborhood_size=30, restart_after=6)


def selections_per_span(events) -> dict:
    """Check the ``decision_fired`` stream; return selections per span.

    Per master (span): one event per selection, numbered 1, 2, ...;
    every reason a non-empty set of Algorithm 2's conditions; at most
    one ``pool=0`` event, last, fired by ``c4``.
    """
    by_span = defaultdict(list)
    for event in events:
        by_span[event["span"]].append(event)
    counts = {}
    for span, stream in by_span.items():
        for event in stream:
            reason = event["reason"].split(",")
            assert reason and len(set(reason)) == len(reason)
            assert set(reason) <= set(CONDITIONS)
        selections = [e for e in stream if e["pool"] > 0]
        assert [e["iteration"] for e in selections] == list(
            range(1, len(selections) + 1)
        )
        empty = [e for e in stream if e["pool"] == 0]
        assert len(empty) <= 1
        if empty:
            assert stream[-1] is empty[0]
            assert "c4" in empty[0]["reason"].split(",")
        counts[span] = len(selections)
    return counts


def test_async_driver_fires_once_per_selection(small_instance):
    obs = Obs(ring_size=100_000)
    result = run_asynchronous_tsmo(small_instance, PARAMS, 3, seed=5, obs=obs)
    counts = selections_per_span(obs.tracer.events("decision_fired"))
    assert len(counts) == 1
    assert sum(counts.values()) == result.iterations


def test_hybrid_islands_fire_once_per_selection(small_instance):
    obs = Obs(ring_size=100_000)
    result = run_hybrid_tsmo(
        small_instance,
        PARAMS,
        HybridParams(n_islands=2, procs_per_island=3, initial_phase_patience=2),
        seed=5,
        obs=obs,
    )
    counts = selections_per_span(obs.tracer.events("decision_fired"))
    assert set(counts) == {"island-0", "island-1"}
    assert sum(counts.values()) == result.iterations


def test_multiprocessing_async_fires_once_per_selection(small_instance):
    obs = Obs(ring_size=100_000)
    result = run_multiprocessing_async_tsmo(
        small_instance,
        TSMOParams(max_evaluations=300, neighborhood_size=20, restart_after=6),
        n_workers=2,
        seed=5,
        async_params=MpAsyncParams(batch_size=5, max_wait=0.1),
        pool_params=PoolParams(
            heartbeat_interval=0.05,
            heartbeat_timeout=10.0,
            task_deadline=10.0,
            backoff_base=0.01,
        ),
        obs=obs,
    )
    counts = selections_per_span(obs.tracer.events("decision_fired"))
    assert len(counts) == 1
    assert sum(counts.values()) == result.iterations
