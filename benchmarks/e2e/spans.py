"""In-memory spans around the layers' public entry points.

A traced pass installs class- and module-level timing wrappers from
benchmark code (nothing under ``src/`` knows about them) and removes
them afterwards.  Each call of a wrapped function records one span:
layer name, start, end, the enclosing span on the same thread, and a
trace id (the run or job the work belongs to).  Spans stay in memory
and are written as JSON lines when the benchmark ends.

Self time is a span's duration minus the part covered by its direct
children; children of one span run on the same thread one after the
other, so their durations add without overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "Span",
    "SpanRecorder",
    "coverage",
    "instrument",
    "self_times",
    "write_jsonl",
]


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    trace: str
    thread: int
    start: float
    end: float = 0.0
    #: length of a list or dict result (neighbors, batch events, ...).
    items: int | None = None


class SpanRecorder:
    """Collects spans from any thread (the serve pump polls from one)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: str | None = None, *, push: bool = True) -> Span:
        """Open a span under the thread's innermost open span.

        ``push=False`` opens a root span that is not the parent of later
        spans on this thread (for a span that outlives an ``await``).
        """
        stack = self._stack()
        parent = stack[-1] if stack and push else None
        if trace is None:
            trace = parent.trace if parent is not None else "run"
        span = Span(
            sid=next(self._ids),
            parent=parent.sid if parent is not None else None,
            name=name,
            trace=str(trace),
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        if push:
            stack.append(span)
        return span

    def end(self, span: Span, *, pop: bool = True) -> None:
        span.end = time.perf_counter()
        if pop:
            self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        span = self.begin(name, trace)
        try:
            yield span
        finally:
            self.end(span)


#: (module, attribute path, layer, trace-id extractor).  The extractor
#: sees the call's ``(args, kwargs)``; ``None`` inherits the trace of
#: the enclosing span.
_TARGETS = (
    ("repro.tabu.search", "TSMOEngine.initialize", "tabu.search.initialize", None),
    ("repro.tabu.search", "TSMOEngine.generate_neighborhood", "tabu.neighborhood", None),
    ("repro.parallel.sync_ts", "sample_neighborhood", "tabu.neighborhood", None),
    ("repro.tabu.search", "TSMOEngine.select_and_update", "tabu.search.select", None),
    ("repro.parallel.pool", "WorkerPool.__init__", "parallel.pool.start", None),
    ("repro.parallel.pool", "WorkerPool.close", "parallel.pool.close", None),
    (
        "repro.parallel.pool",
        "WorkerPool.submit",
        "parallel.pool.submit",
        lambda args, kwargs: kwargs.get("tag"),
    ),
    ("repro.parallel.pool", "WorkerPool.gather", "parallel.pool.gather", None),
    ("repro.parallel.pool", "WorkerPool.poll", "parallel.pool.poll", None),
    ("repro.parallel.pool", "share_instance", "parallel.shm.share", None),
    ("repro.parallel.shm", "share_instance", "parallel.shm.share", None),
    ("repro.parallel.pool", "diff_routes", "parallel.wire.diff", None),
    ("repro.parallel.wire", "WireRoutes.encode", "parallel.wire.encode", None),
    ("repro.parallel.wire", "WireBatch.decode", "parallel.wire.decode", None),
    (
        "repro.serve.scheduler",
        "SolveScheduler.submit",
        "serve.submit",
        lambda args, kwargs: args[1].job_id,
    ),
    (
        "repro.serve.ledger",
        "JobLedger.record",
        "serve.ledger.record",
        lambda args, kwargs: args[2],
    ),
    ("repro.persistence.checkpoint", "CheckpointPolicy.commit", "persistence.commit", None),
    # The solve service's pump runs on an asyncio loop and polls the pool
    # through a worker thread; these two account for the loop's own work
    # (bookkeeping, neighbor rebuilds, job start) and for the thread hops.
    ("asyncio.events", "Handle._run", "serve.loop", None),
    ("asyncio", "to_thread", "serve.to_thread", None),
)


def _timed(recorder: SpanRecorder, func, layer: str, trace_of):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.begin(layer, trace_of(args, kwargs) if trace_of is not None else None)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(span)
        if isinstance(result, (list, dict)):
            span.items = len(result)
        return result

    return wrapper


def _timed_to_thread(recorder: SpanRecorder, to_thread, layer: str):
    """``asyncio.to_thread`` with a span from the hand-off to the return.

    The span spans an ``await``, so it is not pushed on the loop
    thread's stack; instead it becomes the parent of the spans the
    function records on the worker thread, and its self time is the
    hand-off to and from that thread.
    """

    @functools.wraps(to_thread)
    async def wrapper(func, /, *args, **kwargs):
        span = recorder.begin(layer, push=False)

        def run(*a, **k):
            stack = recorder._stack()
            stack.append(span)
            try:
                return func(*a, **k)
            finally:
                stack.pop()

        try:
            return await to_thread(run, *args, **kwargs)
        finally:
            recorder.end(span, pop=False)

    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every target for the duration of the ``with`` block."""
    patched = []
    try:
        for module_name, path, layer, trace_of in _TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_timed(recorder, raw.__func__, layer, trace_of))
            elif inspect.iscoroutinefunction(raw):
                wrapped = _timed_to_thread(recorder, raw, layer)
            else:
                wrapped = _timed(recorder, raw, layer, trace_of)
            setattr(owner, attr, wrapped)
            patched.append((owner, attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + (span.end - span.start)
    return {s.sid: (s.end - s.start) - covered.get(s.sid, 0.0) for s in spans}


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def coverage(spans: list[Span], windows) -> tuple[float, float]:
    """``(busy, covered)``: the length of the union of ``windows`` and
    the part of it that lies inside at least one span on any thread."""
    busy = _union(windows)
    covered = _union((s.start, s.end) for s in spans)
    inside = sum(
        max(0.0, min(b, hi) - max(a, lo)) for a, b in busy for lo, hi in covered
    )
    return sum(b - a for a, b in busy), inside


def write_jsonl(path: Path, spans: list[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
