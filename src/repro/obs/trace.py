"""Distributed request tracing for the ClickINC control plane.

A *trace* is the span tree of one submission: queue wait → wave → compile
→ commit (or cross-shard 2PC prepare/commit).  The :class:`TraceContext`
(two small strings) is attached to the ``DeployRequest`` itself, so it
follows the request through the asyncio admission queue, waves and executor
hops without any task-local state.

Timestamps are wall-clock (``time.time``); durations are measured with
``perf_counter``.
Completed traces live in a bounded ring and export as Chrome trace-event
JSON (load the dict from ``GET /v1/traces/<id>`` in ``chrome://tracing``
or Perfetto).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from uuid import uuid4

__all__ = [
    "TraceContext",
    "SpanRecord",
    "Tracer",
    "get_tracer",
]

_SPAN_SEQ = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_SPAN_SEQ):x}"


def _proc_name() -> str:
    return f"pid-{os.getpid()}"


@dataclass(frozen=True)
class TraceContext:
    """The propagated part of a trace: rides on ``DeployRequest.trace``.

    Frozen and tiny; never carries the span tree itself.
    """

    trace_id: str
    span_id: str

    def child(self) -> "TraceContext":
        return TraceContext(self.trace_id, _new_span_id())


@dataclass
class SpanRecord:
    """One completed span."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_s: float          # wall clock (time.time)
    duration_s: float
    proc: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "proc": self.proc,
            "attrs": self.attrs,
        }


class _LiveTrace:
    __slots__ = ("trace_id", "name", "root_span_id", "start_wall",
                 "start_perf", "attrs", "spans")

    def __init__(self, trace_id: str, name: str, root_span_id: str,
                 attrs: Dict[str, object]) -> None:
        self.trace_id = trace_id
        self.name = name
        self.root_span_id = root_span_id
        self.start_wall = time.time()
        self.start_perf = time.perf_counter()
        self.attrs = attrs
        self.spans: List[SpanRecord] = []


class Tracer:
    """Owns live traces and a bounded ring of completed ones.

    All methods accept ``ctx=None`` and no-op, so instrumented code never
    branches on whether tracing is on — an untraced request simply
    carries no context.
    """

    def __init__(self, *, enabled: bool = True, capacity: int = 256) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self._lock = threading.Lock()
        self._active: Dict[str, _LiveTrace] = {}
        self._ring: List[Dict[str, object]] = []
        # spans that arrived after their trace finished are folded into
        # the ring entry when possible, counted here otherwise
        self.dropped_spans = 0

    # ------------------------------------------------------------------ #
    # trace lifecycle
    # ------------------------------------------------------------------ #
    def start_trace(self, name: str, **attrs: object) -> Optional[TraceContext]:
        if not self.enabled:
            return None
        ctx = TraceContext(uuid4().hex[:16], _new_span_id())
        with self._lock:
            self._active[ctx.trace_id] = _LiveTrace(
                ctx.trace_id, name, ctx.span_id, dict(attrs))
        return ctx

    def finish(self, ctx: Optional[TraceContext], status: str = "ok",
               **attrs: object) -> Optional[Dict[str, object]]:
        """Close the root span and move the trace into the ring."""
        if ctx is None:
            return None
        with self._lock:
            live = self._active.pop(ctx.trace_id, None)
            if live is None:
                return None
            duration = time.perf_counter() - live.start_perf
            live.attrs.update(attrs)
            live.spans.append(SpanRecord(
                trace_id=live.trace_id, span_id=live.root_span_id,
                parent_id=None, name=live.name, start_s=live.start_wall,
                duration_s=duration, proc=_proc_name(), attrs=dict(live.attrs)))
            done = {
                "trace_id": live.trace_id,
                "name": live.name,
                "status": status,
                "start_s": round(live.start_wall, 6),
                "duration_s": round(duration, 6),
                "attrs": live.attrs,
                "spans": live.spans,
            }
            self._ring.append(done)
            if len(self._ring) > self.capacity:
                del self._ring[: len(self._ring) - self.capacity]
            return done

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #
    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            live = self._active.get(record.trace_id)
            if live is not None:
                live.spans.append(record)
                return
            for done in reversed(self._ring):
                if done["trace_id"] == record.trace_id:
                    done["spans"].append(record)  # type: ignore[union-attr]
                    return
            self.dropped_spans += 1

    @contextmanager
    def span(self, ctx: Optional[TraceContext], name: str, **attrs: object):
        """A timed child span of *ctx*; yields the child context."""
        if ctx is None or not self.enabled:
            yield None
            return
        child = ctx.child()
        start_wall = time.time()
        start = time.perf_counter()
        try:
            yield child
        finally:
            self._record(SpanRecord(
                trace_id=child.trace_id, span_id=child.span_id,
                parent_id=ctx.span_id, name=name, start_s=start_wall,
                duration_s=time.perf_counter() - start, proc=_proc_name(),
                attrs=dict(attrs)))

    def emit(self, ctx: Optional[TraceContext], name: str, duration_s: float,
             end_s: Optional[float] = None,
             **attrs: object) -> Optional[TraceContext]:
        """Record an already-measured span ending at *end_s* (default now).

        Used where the start of the interval predates the code that can
        see the trace — e.g. queue wait measured from an enqueue
        timestamp.  Returns the new span's context so callers can parent
        further spans under it.
        """
        if ctx is None or not self.enabled:
            return None
        end = time.time() if end_s is None else end_s
        child = ctx.child()
        self._record(SpanRecord(
            trace_id=child.trace_id, span_id=child.span_id,
            parent_id=ctx.span_id, name=name, start_s=end - duration_s,
            duration_s=duration_s, proc=_proc_name(), attrs=dict(attrs)))
        return child

    # ------------------------------------------------------------------ #
    # inspection / export
    # ------------------------------------------------------------------ #
    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            for done in reversed(self._ring):
                if done["trace_id"] == trace_id:
                    return done
        return None

    def completed(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._ring)

    def summaries(self) -> List[Dict[str, object]]:
        """Newest-first digest of the completed-trace ring."""
        out = []
        for done in reversed(self.completed()):
            out.append({
                "trace_id": done["trace_id"],
                "name": done["name"],
                "status": done["status"],
                "start_s": done["start_s"],
                "duration_s": done["duration_s"],
                "spans": len(done["spans"]),  # type: ignore[arg-type]
                "attrs": done["attrs"],
            })
        return out

    def to_chrome(self, trace_id: str) -> Optional[Dict[str, object]]:
        """A completed trace as a Chrome trace-event JSON dict."""
        done = self.get(trace_id)
        if done is None:
            return None
        spans: List[SpanRecord] = list(done["spans"])  # type: ignore[arg-type]
        pids: Dict[str, int] = {}
        events: List[Dict[str, object]] = []
        for span in spans:
            pid = pids.setdefault(span.proc or "unknown", len(pids) + 1)
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": pid,
                "tid": pid,
                "cat": "clickinc",
                "args": dict(span.attrs,
                             span_id=span.span_id,
                             parent_id=span.parent_id),
            })
        for proc, pid in pids.items():
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                "args": {"name": proc},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": done["trace_id"],
                "name": done["name"],
                "status": done["status"],
            },
        }


_DEFAULT = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _DEFAULT
