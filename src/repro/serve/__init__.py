"""Multi-tenant solve service: many concurrent TSMO jobs, one pool.

The service turns the repository's single-run drivers into a
long-lived *solver daemon* for one problem instance:
:class:`SolveScheduler` owns a shared
:class:`~repro.parallel.pool.WorkerPool` and time-slices any number of
concurrent :class:`JobSpec` requests onto it at iteration granularity,
with bounded admission (overload is rejected, never dropped), weighted
deficit-round-robin fairness between tenants, per-job checkpointing
through the standard snapshot format, and job-scoped observability.
:mod:`repro.serve.traffic` drives it with a reproducible open-loop
workload, bounded by job count, by duration or by both;
``python -m repro.serve`` runs that as a load test and smoke test.

The service also carries a live telemetry plane: every scheduler owns
an :class:`~repro.obs.stream.EventBus`, so clients can
:meth:`~SolveScheduler.tail` a job's events while it runs (or
:meth:`~SolveScheduler.tail_all` everything, including periodic
``metrics_snapshot`` readings), worker events join their job's trace
via the span-propagation envelope (``python -m repro.obs.spans``
reconstructs per-job trees), and a duration-bounded
:func:`run_traffic` holds a fixed arrival rate to measure exact,
warmup-trimmed steady-state latency quantiles
(``python -m repro.serve --soak``, watchable live with ``--watch``).

The service is fault tolerant end to end: a durable job ledger
(:class:`JobLedger`) makes the scheduler supervised — a restart over
the same checkpoint directory re-admits every unfinished job — jobs
carry per-attempt retry/deadline budgets that resume from the latest
checkpoint, priority arrivals preempt running jobs to their
checkpoints, and :mod:`repro.serve.chaos` replays all of it under
deterministic fault schedules (``python -m repro.serve --chaos``).

The service is multi-tenant in *data* as well as scheduling: a
:class:`JobSpec` may carry its own problem instance, which rides the
shared-memory transport through the scheduler's refcounted
:class:`~repro.parallel.shm.SharedInstanceStore` (one segment per
distinct instance, unlinked when the last referencing job reaches a
terminal state), and every job is pinned to its instance by a content
fingerprint recorded in the ledger and in checkpoints — resuming a
job against the wrong instance fails loudly with
:class:`~repro.errors.WrongInstanceError` instead of silently
producing fronts for the wrong problem.  The telemetry plane reaches
beyond the process too: ``tail_port=`` serves the event bus over TCP
(:mod:`repro.obs.tailserv`), and ``python -m repro.serve --watch
--connect HOST:PORT`` is the remote client.
"""

from repro.serve.chaos import ChaosReport, ServeFaultPlan, run_chaos_soak, tear_checkpoint
from repro.serve.job import DRIVERS, Job, JobSpec, JobState
from repro.serve.ledger import JobLedger
from repro.serve.scheduler import DeficitRoundRobin, ServeParams, SolveScheduler
from repro.serve.traffic import TrafficConfig, TrafficReport, run_traffic, write_report

__all__ = [
    "ChaosReport",
    "DRIVERS",
    "DeficitRoundRobin",
    "Job",
    "JobLedger",
    "JobSpec",
    "JobState",
    "ServeFaultPlan",
    "ServeParams",
    "SolveScheduler",
    "TrafficConfig",
    "TrafficReport",
    "run_chaos_soak",
    "run_traffic",
    "tear_checkpoint",
    "write_report",
]
