"""Unified observability: metrics, structured events, phase profiling.

This package is the one instrumentation layer for the whole repro.
Three orthogonal pieces, each with a null-object fast path so disabled
instrumentation costs one attribute check:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms, mergeable across processes and serialized
  through checkpoints;
* :class:`~repro.obs.events.EventTracer` — typed events into a bounded
  ring plus an optional append-only JSONL sink
  (:class:`~repro.obs.events.JsonlEventSink`), validated by
  ``python -m repro.obs.validate``;
* :class:`~repro.obs.profiler.PhaseProfiler` — per-iteration
  generate/evaluate/select/communicate/wait decomposition in either
  wall-clock or simulated units.

:class:`Obs` bundles the three (plus the sink) so drivers take a
single ``obs`` argument; :data:`NULL_OBS` is the all-disabled bundle
and the default everywhere.  :func:`Obs.from_env` builds an enabled
bundle when ``REPRO_TRACE_DIR`` (trace to that directory) or
``REPRO_OBS`` (in-memory only) is set — environment variables are
inherited by spawn workers, which is how the pool knows to collect
events without any new plumbing through task messages.

The cardinal design rule: instrumentation observes, it never steers.
No observability code touches an RNG or changes control flow, so an
instrumented run's search trajectory is bit-identical to an
uninstrumented one (guarded by tests/test_obs.py per driver).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.obs.events import (
    ENVELOPE_KEYS,
    EVENT_SCHEMA,
    EVENT_TYPES,
    EventTracer,
    JsonlEventSink,
    NULL_TRACER,
    NullTracer,
    new_run_id,
)
from repro.obs.expo import quantile_from_histogram, render_exposition
from repro.obs.profiler import (
    NULL_PROFILER,
    NullProfiler,
    PHASES,
    PhaseProfiler,
    format_profile_table,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.stream import (
    EventBus,
    Subscription,
    TERMINAL_JOB_STATES,
    is_terminal_job_event,
    job_event_predicate,
)
from repro.obs.tailserv import TailServer, tail_client
from repro.obs.timeutil import parse_timestamp, utc_timestamp

__all__ = [
    "DEFAULT_BUCKETS",
    "ENVELOPE_KEYS",
    "ENV_OBS",
    "ENV_TRACE_DIR",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "EventBus",
    "EventTracer",
    "JsonlEventSink",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullObs",
    "NullProfiler",
    "NullRegistry",
    "NullTracer",
    "Obs",
    "PHASES",
    "PhaseProfiler",
    "Subscription",
    "TERMINAL_JOB_STATES",
    "TailServer",
    "format_profile_table",
    "is_terminal_job_event",
    "job_event_predicate",
    "new_run_id",
    "parse_timestamp",
    "quantile_from_histogram",
    "render_exposition",
    "tail_client",
    "utc_timestamp",
]

#: set to a directory path to trace every instrumented run to JSONL.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

#: set truthy ("1") to enable in-memory instrumentation without a sink.
ENV_OBS = "REPRO_OBS"


class Obs:
    """One bundle of registry + tracer + profiler for a single run."""

    __slots__ = ("metrics", "tracer", "profiler", "sink", "run_id")

    enabled = True

    def __init__(
        self,
        *,
        run_id: str | None = None,
        span: str = "main",
        unit: str = "seconds",
        trace_dir: str | os.PathLike | None = None,
        ring_size: int = 4096,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.sink = None
        if trace_dir is not None:
            directory = Path(trace_dir)
            directory.mkdir(parents=True, exist_ok=True)
            self.sink = JsonlEventSink(
                directory / f"trace-{self.run_id}.jsonl", self.run_id
            )
        self.metrics = MetricsRegistry()
        self.tracer = EventTracer(
            self.run_id, span=span, ring_size=ring_size, sink=self.sink
        )
        self.profiler = PhaseProfiler(unit)

    @classmethod
    def from_env(
        cls, *, span: str = "main", unit: str = "seconds"
    ) -> "Obs | NullObs":
        """An enabled bundle if the environment asks for one, else
        :data:`NULL_OBS`.  This is the hook the bench runner, the
        examples and spawn pool workers all use."""
        trace_dir = os.environ.get(ENV_TRACE_DIR)
        if trace_dir:
            return cls(span=span, unit=unit, trace_dir=trace_dir)
        if os.environ.get(ENV_OBS, "").strip() not in ("", "0"):
            return cls(span=span, unit=unit)
        return NULL_OBS

    def set_unit(self, unit: str) -> None:
        """Point the profiler at the driver's clock (drivers call this
        before their first iteration; the profiler must be empty or
        already in that unit)."""
        if self.profiler.unit != unit:
            self.profiler = PhaseProfiler(unit)

    # -- checkpoint integration ---------------------------------------
    def export_state(self) -> dict:
        """The bundle's cumulative state, as stored in engine snapshots."""
        return {
            "metrics": self.metrics.export_state(),
            "tracer": self.tracer.export_state(),
            "profiler": self.profiler.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Replace all cumulative series with a checkpointed state, so a
        resumed run reports totals over the whole logical run."""
        self.metrics.restore_state(state.get("metrics", {}))
        self.tracer.restore_state(state.get("tracer", {}))
        profiler_state = state.get("profiler")
        if profiler_state:
            self.profiler = PhaseProfiler(
                profiler_state.get("unit", self.profiler.unit)
            )
            self.profiler.restore_state(profiler_state)

    def close(self) -> None:
        """Flush and close the JSONL sink, if any."""
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Obs":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        sink = self.sink.path if self.sink is not None else None
        return f"Obs(run={self.run_id!r}, sink={sink!r})"


class NullObs:
    """The all-disabled bundle: every component is its null object."""

    __slots__ = ()

    enabled = False
    run_id = ""
    metrics = NULL_REGISTRY
    tracer = NULL_TRACER
    profiler = NULL_PROFILER
    sink = None

    def set_unit(self, unit: str) -> None:
        return None

    def export_state(self) -> dict:
        return {}

    def restore_state(self, state: dict) -> None:
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullObs":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NullObs()"


#: the shared disabled bundle — the default ``obs`` argument everywhere.
NULL_OBS = NullObs()
