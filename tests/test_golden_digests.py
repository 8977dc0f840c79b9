"""Golden digests: seeded search trajectories pinned across commits.

Every other bit-identity test compares two code paths of one commit
(lockstep against sequential, knob on against knob off).  A change to
code both sides share — selection, I1, the neighborhood sampler —
moves both sides together and leaves those oracles green.  The digests
below are literal values, so such a change fails here instead.

The matrix:

* ``i1_construct`` routes on R1, R2, C1 and RC2 at 100 and 400
  customers, several seeds;
* the sequential, synchronous, asynchronous and collaborative drivers
  on the simulated cluster at 100 customers, S=50 (front, simulated
  time and evaluation counts), and the hybrid at its defaults and as
  two unperturbed 3-processor islands;
* sequential runs with the six-operator registry (the paper's five plus
  the non-paper segment exchange), whose sampler draws every move
  through the scalar ``draw_move`` path;
* one lockstep ``run_multiprocessing_tsmo(n_workers=1)`` run and one
  lockstep serve job (a worker process continues the master's stream).

numpy promises no ``Generator`` stream stability across versions; the
digests were taken with numpy 2.4.6, the version CI pins.  A change
that moves a digest on purpose says which one and why.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro.core.construction import i1_construct
from repro.core.operators import Exchange, OrOpt, Relocate, TwoOpt, TwoOptStar
from repro.core.operators.registry import OperatorRegistry
from repro.core.operators.segment_exchange import SegmentExchange
from repro.parallel.async_ts import run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.collab_ts import run_collaborative_tsmo
from repro.parallel.hybrid_ts import HybridParams, run_hybrid_tsmo
from repro.parallel.mp_backend import run_multiprocessing_tsmo
from repro.parallel.pool import PoolParams
from repro.parallel.sync_ts import run_synchronous_tsmo
from repro.serve import JobSpec, SolveScheduler
from repro.tabu.params import TSMOParams
from repro.tabu.search import run_sequential_tsmo
from repro.vrptw.generator import generate_instance


def digest(value) -> str:
    """First 16 hex digits of the SHA-256 of ``repr(value)``.

    ``repr`` of a float round-trips exactly, so the digest moves on any
    bit of any objective.
    """
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_key(result) -> tuple:
    """Everything a seeded run must reproduce: the archive's routes and
    objectives, the counters, and the simulated clock (``None`` for
    real-process runs, whose clock is wall time)."""
    return (
        [entry.item.routes for entry in result.archive],
        result.front().tolist(),
        result.evaluations,
        result.iterations,
        result.restarts,
        result.simulated_time,
    )


# ----------------------------------------------------------------------
# I1 construction
# ----------------------------------------------------------------------
#: (class, customers) -> digest of the I1 routes for each seed in
#: ``I1_SEEDS[customers]``; instances use ``seed=customers + 1``.
I1_SEEDS = {100: (1, 2, 3), 400: (1, 2)}
I1_DIGESTS = {
    ("R1", 100): "38fdab39407fdc87",
    ("R1", 400): "f4eccad572073bda",
    ("R2", 100): "b149b907e51d5238",
    ("R2", 400): "5f3a8c20c1fa874d",
    ("C1", 100): "6eb05f7b427b7f9f",
    ("C1", 400): "d00ff41e9ca5dd5b",
    ("RC2", 100): "0a5bacffcdeb316d",
    ("RC2", 400): "efdd18eed1957de5",
}


@pytest.mark.parametrize("cls,n", sorted(I1_DIGESTS), ids=str)
def test_i1_routes(cls, n):
    instance = generate_instance(cls, n, seed=n + 1)
    routes = [i1_construct(instance, rng=seed).routes for seed in I1_SEEDS[n]]
    assert digest(routes) == I1_DIGESTS[(cls, n)]


# ----------------------------------------------------------------------
# Drivers on the simulated cluster
# ----------------------------------------------------------------------
DES_PARAMS = TSMOParams(max_evaluations=2000, neighborhood_size=50, restart_after=8)
DES_DRIVERS = {
    "sequential": lambda inst: run_sequential_simulated(inst, DES_PARAMS, seed=3),
    "sync": lambda inst: run_synchronous_tsmo(inst, DES_PARAMS, 3, seed=3),
    "async": lambda inst: run_asynchronous_tsmo(inst, DES_PARAMS, 3, seed=3),
    "collab": lambda inst: run_collaborative_tsmo(inst, DES_PARAMS, 3, seed=3),
    "hybrid": lambda inst: run_hybrid_tsmo(inst, DES_PARAMS, seed=3),
    "hybrid-2x3": lambda inst: run_hybrid_tsmo(
        inst,
        DES_PARAMS,
        HybridParams(
            n_islands=2, procs_per_island=3, perturb=False, initial_phase_patience=0
        ),
        seed=11,
    ),
}
DES_DIGESTS = {
    "sequential": "124126a651e17cf1",
    "sync": "6565ac2629e30a72",
    "async": "d62af8f2474ca1e5",
    "collab": "cbeecb0ee7e8708c",
    "hybrid": "a7c4e8034ddb7977",
    "hybrid-2x3": "04f844332fd50a0c",
}


@pytest.fixture(scope="module")
def r1_100():
    return generate_instance("R1", 100, seed=101)


@pytest.mark.parametrize("driver", sorted(DES_DIGESTS))
def test_des_driver(driver, r1_100):
    assert digest(run_key(DES_DRIVERS[driver](r1_100))) == DES_DIGESTS[driver]


# ----------------------------------------------------------------------
# Six-operator registry (scalar draw_move sampling)
# ----------------------------------------------------------------------
SIX_PARAMS = TSMOParams(max_evaluations=3000, neighborhood_size=40, restart_after=8)
SIX_DIGESTS = {
    "R1": "e90db1efcb2cf950",
    "C1": "c54b36d462c9414a",
    "RC2": "e688829c4fe6c719",
}


@pytest.mark.parametrize("cls", sorted(SIX_DIGESTS))
def test_six_operator_sequential(cls):
    instance = generate_instance(cls, 60, seed=61)
    registry = OperatorRegistry(
        [Relocate(), Exchange(), TwoOpt(), TwoOptStar(), OrOpt(), SegmentExchange()]
    )
    result = run_sequential_tsmo(instance, SIX_PARAMS, seed=5, registry=registry)
    assert digest(run_key(result)) == SIX_DIGESTS[cls]


# ----------------------------------------------------------------------
# Lockstep real-process runs
# ----------------------------------------------------------------------
LOCKSTEP_PARAMS = TSMOParams(max_evaluations=600, neighborhood_size=30, restart_after=6)
FAST_POOL = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)
LOCKSTEP_DIGEST = "bf29a98594fc539b"


@pytest.fixture(scope="module")
def r2_40():
    return generate_instance("R2", 40, seed=41)


def test_lockstep_multiprocessing(r2_40):
    result = run_multiprocessing_tsmo(
        r2_40, LOCKSTEP_PARAMS, n_workers=1, seed=9, pool_params=FAST_POOL
    )
    # Every neighborhood ran in the worker (a degraded pool would run
    # them master-side and hide a broken RNG hand-back).
    assert result.extra["pool"]["tasks_completed"] == result.iterations
    assert digest(run_key(result)) == LOCKSTEP_DIGEST


def test_lockstep_serve_job(r2_40):
    async def scenario():
        async with SolveScheduler(r2_40, n_workers=1, pool_params=FAST_POOL) as scheduler:
            job = scheduler.submit(JobSpec(job_id="golden", seed=9, params=LOCKSTEP_PARAMS))
            return await job.wait()

    # A lockstep job walks the same trajectory as the lockstep driver.
    assert digest(run_key(asyncio.run(scenario()))) == LOCKSTEP_DIGEST
