"""Parallel TSMO variants and the simulated-cluster substrate.

The paper ran on an SGI Origin 3800 with 128 processors; this
environment has two cores and a GIL, so (per DESIGN.md) the parallel
*protocols* execute for real inside a deterministic discrete-event
simulation while durations come from a calibrated cost model:

* :mod:`repro.parallel.des` — the event kernel (processes as
  generators, mailboxes, timeouts);
* :mod:`repro.parallel.cluster` — virtual processors with speed
  jitter, stochastic stalls and a message cost model;
* :mod:`repro.parallel.sync_ts` — the synchronous master–worker TSMO
  (§III.C);
* :mod:`repro.parallel.async_ts` — the asynchronous master–worker TSMO
  with the four-condition decision function (§III.D, Algorithm 2);
* :mod:`repro.parallel.collab_ts` — the collaborative multisearch TSMO
  with the rotating communication list (§III.E);
* :mod:`repro.parallel.pool` — the persistent fault-tolerant worker
  pool for real OS processes (heartbeats, deadlines, bounded retry
  with deterministic re-seeding, respawn, graceful degradation);
* :mod:`repro.parallel.mp_backend` — the synchronous and asynchronous
  master/worker protocols on actual OS processes, built on the pool
  (not used by the benchmark tables);
* :mod:`repro.parallel.hybrid_ts` — the §V future-work hybrid: islands
  built from the asynchronous master and the collaborative elite
  exchange.
"""

from repro.parallel.async_ts import AsyncParams, run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.cluster import SimCluster
from repro.parallel.collab_ts import CollabParams, run_collaborative_tsmo
from repro.parallel.costmodel import CostModel
from repro.parallel.des import Environment, Mailbox
from repro.parallel.hybrid_ts import HybridParams, run_hybrid_tsmo
from repro.parallel.mp_backend import (
    MpAsyncParams,
    run_multiprocessing_async_tsmo,
    run_multiprocessing_tsmo,
)
from repro.parallel.pool import FaultPlan, PoolParams, WorkerPool
from repro.parallel.shm import (
    SharedInstance,
    SharedInstanceRef,
    SharedInstanceStore,
    instance_fingerprint,
    share_instance,
)
from repro.parallel.sync_ts import run_synchronous_tsmo

__all__ = [
    "AsyncParams",
    "CollabParams",
    "CostModel",
    "Environment",
    "FaultPlan",
    "HybridParams",
    "Mailbox",
    "MpAsyncParams",
    "PoolParams",
    "SharedInstance",
    "SharedInstanceRef",
    "SharedInstanceStore",
    "SimCluster",
    "WorkerPool",
    "instance_fingerprint",
    "run_asynchronous_tsmo",
    "run_collaborative_tsmo",
    "run_hybrid_tsmo",
    "run_multiprocessing_async_tsmo",
    "run_multiprocessing_tsmo",
    "run_sequential_simulated",
    "run_synchronous_tsmo",
    "share_instance",
]
