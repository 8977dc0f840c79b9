"""Structured event tracing: typed events, bounded ring, JSONL sink.

Every interesting thing a search does — an iteration completing, a
move being applied, the async decision function firing, a pool worker
finishing a task, a checkpoint landing — becomes one *typed event*: a
flat JSON-serializable dict with a fixed envelope

``{"type": ..., "seq": ..., "run": ..., "span": ...}``

plus per-type payload fields (see :data:`EVENT_SCHEMA`).  ``run`` is a
per-run id so traces from different runs can share a directory;
``span`` names the emitting execution context (``"main"``, ``"rank-3"``,
``"searcher-2"``, ``"worker-1"``) so pool-worker events can be
correlated with master iterations across process boundaries: workers
trace into their own :class:`EventTracer` (same ``run`` id, their own
span), ship the event dicts back over the existing result queue, and
the master folds them in with :meth:`EventTracer.ingest`.

Events land in a bounded in-memory ring (cheap, always queryable via
:meth:`EventTracer.events`) and, when a sink is attached, in an
append-only JSONL file.  :class:`JsonlEventSink` follows the same
durability discipline as ``persistence/atomic.py``'s ``append_line`` —
one write per complete line, flush immediately, ``fsync``
periodically and on close — implemented inline on a long-lived handle
because opening the file per event would dominate the cost of tracing.
A torn final line (crash mid-append) is detected and skipped by the
validator, exactly like the run-manifest reader.

The disabled path is :data:`NULL_TRACER`: ``enabled`` is ``False`` and
every method is a no-op, so uninstrumented code pays one attribute
check.
"""

from __future__ import annotations

import json
import os
import uuid

from collections import deque

from repro.obs.timeutil import utc_timestamp

__all__ = [
    "ENVELOPE_KEYS",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "EventTracer",
    "JsonlEventSink",
    "NULL_TRACER",
    "NullTracer",
    "new_run_id",
]

#: keys every traced event carries, in emission order.
ENVELOPE_KEYS = ("type", "seq", "run", "span")

#: required payload fields per event type (beyond the envelope).  The
#: sink's first line is a ``meta`` record describing the trace itself;
#: it is not emittable through :meth:`EventTracer.emit`.
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "iteration": ("iteration", "evaluations", "archive_size"),
    "move_applied": ("iteration", "objectives", "created"),
    "archive_update": ("iteration", "archive_size"),
    "decision_fired": ("iteration", "reason"),
    "worker_task": ("worker", "task_id", "neighbors"),
    "comm_send": ("peer", "kind"),
    "comm_recv": ("peer", "kind"),
    "checkpoint": ("kind", "iteration"),
    # Solve-service job lifecycle: one ``job_state`` per transition
    # (queued/running/done/cancelled/failed/rejected), ``job_progress``
    # per completed job iteration.  Each job emits under its own span
    # (``job-<id>``), so one trace file multiplexes many tenants.
    "job_state": ("job", "state"),
    "job_progress": ("job", "iteration", "evaluations"),
    # Fault-tolerance lifecycle: ``job_retry`` when an attempt failed
    # and the job re-queued (resuming from its latest checkpoint),
    # ``job_preempted`` when a higher-priority arrival suspended it,
    # ``job_checkpoint_corrupt`` when a resume snapshot failed its
    # integrity check and the job restarted fresh, ``job_recovered``
    # when a restarted scheduler re-admitted it from the job ledger.
    "job_retry": ("job", "attempt", "cause"),
    "job_preempted": ("job", "evaluations"),
    "job_checkpoint_corrupt": ("job", "error"),
    "job_recovered": ("job", "state"),
    # ``job_wrong_instance`` when a job's recorded instance fingerprint
    # disagreed with the instance available at resume/recovery — the
    # job fails loudly instead of solving the wrong problem.
    "job_wrong_instance": ("job", "error"),
    # Live telemetry: a periodic point-in-time metrics reading emitted
    # by the serve scheduler's pump (jobs in flight, queue depth, pool
    # backlog, counter deltas, latency histogram state) so watchers and
    # soak harnesses can sample steady state without stopping the run.
    "metrics_snapshot": ("snapshot",),
    "meta": ("run", "format", "written_at"),
}

# Events may additionally carry two *optional* envelope fields for
# cross-process span propagation: ``trace`` names the logical trace the
# event belongs to (the serve layer uses the job id) and ``parent``
# names the parent span within that trace.  They are optional because
# standalone drivers have no trace to join; the validator tolerates
# extra fields by design, and ``repro.obs.spans`` reconstructs per-job
# span trees from them.

#: the emittable event types (everything except the sink's meta line).
EVENT_TYPES = frozenset(EVENT_SCHEMA) - {"meta"}

#: bumped when the envelope or a type's required fields change.
TRACE_FORMAT_VERSION = 1


def new_run_id() -> str:
    """A short unique id tying all of one run's events together."""
    return uuid.uuid4().hex[:12]


def _coerce_scalar(obj):
    """JSON fallback for numpy scalars (``np.int64`` peer ranks etc.).

    Event payloads flow out of numpy-backed code; rather than require
    every emit site to cast, the sink accepts anything exposing
    ``item()`` and serializes the equivalent Python scalar.
    """
    item = getattr(obj, "item", None)
    if item is not None:
        return item()
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable"
    )


class JsonlEventSink:
    """Append-only JSONL file of events, durably written.

    The first line is a ``meta`` record (trace format version, run id,
    ISO-8601 UTC ``written_at``); every subsequent line is one event.
    Writes are one complete line each, flushed immediately; ``fsync``
    runs every ``fsync_every`` lines and on :meth:`close`, bounding
    loss on a crash to the last few events plus at most one torn line.
    """

    __slots__ = ("path", "_handle", "_fsync_every", "_since_sync")

    def __init__(self, path, run_id: str, *, fsync_every: int = 64) -> None:
        self.path = os.fspath(path)
        self._fsync_every = max(1, int(fsync_every))
        self._since_sync = 0
        self._handle = open(self.path, "a", encoding="utf-8")
        self.write(
            {
                "type": "meta",
                "run": run_id,
                "format": TRACE_FORMAT_VERSION,
                "written_at": utc_timestamp(),
            }
        )

    def write(self, event: dict) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.write(
            json.dumps(event, separators=(",", ":"), default=_coerce_scalar)
            + "\n"
        )
        handle.flush()
        self._since_sync += 1
        if self._since_sync >= self._fsync_every:
            os.fsync(handle.fileno())
            self._since_sync = 0

    def close(self) -> None:
        handle = self._handle
        if handle is None:
            return
        self._handle = None
        handle.flush()
        try:
            os.fsync(handle.fileno())
        finally:
            handle.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EventTracer:
    """Typed events into a bounded ring and an optional JSONL sink."""

    __slots__ = ("run_id", "span", "ring", "sink", "_seq", "_listeners")

    enabled = True

    def __init__(
        self,
        run_id: str | None = None,
        *,
        span: str = "main",
        ring_size: int = 4096,
        sink: JsonlEventSink | None = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.span = span
        self.ring: deque = deque(maxlen=ring_size)
        self.sink = sink
        self._seq = 0
        self._listeners: list = []

    def add_listener(self, fn) -> None:
        """Call ``fn(event)`` for every event recorded by this tracer.

        Listeners fire synchronously after the ring/sink writes, for
        both locally emitted and ingested events, and may run on
        whatever thread the emit happens on.  A listener that raises is
        dropped silently — streaming is observation, and a broken
        subscriber must never take the search down with it.
        """
        self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def _notify(self, event: dict) -> None:
        for fn in list(self._listeners):
            try:
                fn(event)
            except Exception:
                self.remove_listener(fn)

    def emit(self, type_: str, *, span: str | None = None, **fields) -> dict:
        """Record one event; returns the event dict.

        Unknown types raise ``ValueError`` — the whole point of *typed*
        events is that a typo cannot silently produce an unvalidatable
        trace.
        """
        if type_ not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type_!r}")
        self._seq += 1
        event = {
            "type": type_,
            "seq": self._seq,
            "run": self.run_id,
            "span": span if span is not None else self.span,
        }
        event.update(fields)
        self.ring.append(event)
        if self.sink is not None:
            self.sink.write(event)
        if self._listeners:
            self._notify(event)
        return event

    def ingest(self, events) -> None:
        """Fold events traced in another process into this tracer.

        Each event keeps its payload and span but gets this tracer's
        sequence numbering (the worker-local ``seq`` is preserved as
        ``wseq``), so the master's ring and sink stay monotonic.
        """
        for event in events:
            self._seq += 1
            merged = dict(event)
            if "seq" in merged:
                merged["wseq"] = merged["seq"]
            merged["seq"] = self._seq
            merged["run"] = self.run_id
            self.ring.append(merged)
            if self.sink is not None:
                self.sink.write(merged)
            if self._listeners:
                self._notify(merged)

    def events(self, type_: str | None = None) -> list[dict]:
        """Current ring contents (optionally one type), oldest first."""
        if type_ is None:
            return list(self.ring)
        return [e for e in self.ring if e["type"] == type_]

    def drain(self) -> list[dict]:
        """Pop and return everything in the ring (worker-side batching)."""
        out = list(self.ring)
        self.ring.clear()
        return out

    # -- checkpoint support -------------------------------------------
    # Only the sequence counter rides in snapshots: ring contents are
    # ephemeral by design and the sink file itself survives the crash.
    def export_state(self) -> dict:
        return {"seq": self._seq}

    def restore_state(self, state: dict) -> None:
        self._seq = int(state.get("seq", 0))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EventTracer(run={self.run_id!r}, span={self.span!r}, "
            f"seq={self._seq}, ring={len(self.ring)})"
        )


class NullTracer:
    """The disabled tracer: same interface, no storage, no validation."""

    __slots__ = ()

    enabled = False
    run_id = ""
    span = "main"
    sink = None

    def emit(self, type_: str, *, span: str | None = None, **fields) -> dict:
        return {}

    def ingest(self, events) -> None:
        return None

    def add_listener(self, fn) -> None:
        return None

    def remove_listener(self, fn) -> None:
        return None

    def events(self, type_: str | None = None) -> list[dict]:
        return []

    def drain(self) -> list[dict]:
        return []

    def export_state(self) -> dict:
        return {"seq": 0}

    def restore_state(self, state: dict) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NullTracer()"


#: the shared disabled tracer every uninstrumented component points at.
NULL_TRACER = NullTracer()
