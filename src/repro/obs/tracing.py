"""Lightweight query tracing: spans with monotonic timings and nesting.

A :class:`Trace` is one operation's span tree — for FliX, one query or one
index build.  The owning component opens a trace, opens child spans around
the interesting phases (``trace.span("pee.probe", meta_id=3)``), and calls
:meth:`Trace.finish` when done; the :class:`Tracer` keeps a small ring
buffer of finished traces, the newest of which backs
``Flix.trace_last_query()``.

Design notes:

* Timings come from ``time.perf_counter`` (monotonic, sub-microsecond),
  so span durations are meaningful even across system clock adjustments;
  there are deliberately **no wall-clock timestamps** in a span.
* The parent of a new span is the innermost span *of the same trace* that
  is still open — the trace carries its own stack instead of a
  thread-local one, so two streamed queries consumed alternately on one
  thread (a supported pattern, see ``tests/core/test_query_stats.py``)
  can never adopt each other's spans.
* A child that is already finished when it is recorded — the evaluator's
  per-entry ``pee.probe`` / ``pee.link_hop`` — goes through
  :meth:`Trace.leaf`: one tuple append, no :class:`Span`, no stack push.
  :attr:`Trace.spans` turns pending leaves into :class:`Span` objects on
  its first read, with the ids, parents, depths and order ``span()``
  would have given them, so an unread trace (the tracer keeps 16; most
  are never looked at) never pays for span objects.
* A disabled tracer hands out a shared null trace whose ``span()`` is a
  no-op context manager; hot paths additionally skip tracing entirely by
  checking ``Observability.enabled`` first.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

#: serialises the first read of any trace's pending leaves (reads are rare
#: and short, so one lock for all traces costs no per-trace allocation)
_MATERIALIZE_LOCK = threading.Lock()


class Span:
    """One timed, named unit of work inside a trace."""

    __slots__ = ("name", "span_id", "parent_id", "depth", "meta", "started", "ended")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        meta: Dict[str, object],
        started: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        #: free-form annotations; callers may add keys while the span is open
        self.meta = meta
        #: ``perf_counter`` readings — offsets, not wall-clock timestamps
        self.started = started
        self.ended: Optional[float] = None

    @property
    def duration_seconds(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "duration_seconds": self.duration_seconds,
            "meta": dict(self.meta),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration_seconds:.6f}s, meta={self.meta})"
        )


class _SpanHandle:
    """Context manager opening/closing one child span.

    Hand-rolled rather than ``@contextmanager``, which costs several times
    more per span; per-entry hot paths use :meth:`Trace.leaf` instead.
    """

    __slots__ = ("_trace", "_name", "_meta", "_span")

    def __init__(self, trace: "Trace", name: str, meta: Dict[str, object]) -> None:
        self._trace = trace
        self._name = name
        self._meta = meta
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        trace = self._trace
        parent = trace._stack[-1]
        span = Span(
            self._name,
            len(trace._entries),
            parent.span_id,
            parent.depth + 1,
            self._meta,
            time.perf_counter(),
        )
        trace._entries.append(span)
        trace._stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if span is not None:
            span.ended = time.perf_counter()
            self._trace._stack.remove(span)
        return False


class Trace:
    """One operation's spans, in start order (the root span first)."""

    def __init__(self, tracer: Optional["Tracer"], name: str, meta: Dict[str, object]) -> None:
        self._tracer = tracer
        started = time.perf_counter()
        root = Span(name, 0, None, 0, meta, started)
        self._root = root
        #: spans and pending leaf records, in start order; a position is
        #: its entry's span id
        self._entries: List[object] = [root]
        #: leading entries known to hold no pending leaf
        self._built = 1
        self._stack: List[Span] = [root]
        self._finished = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **meta: object) -> _SpanHandle:
        """Open a child span of the innermost open span of *this* trace."""
        return _SpanHandle(self, name, meta)

    def leaf(
        self,
        name: str,
        keys: Sequence[str],
        started: float,
        ended: float,
        values: Tuple,
    ) -> None:
        """Record an already finished child of the innermost open span.

        ``started`` / ``ended`` are the caller's ``perf_counter`` readings
        around the work; the span's meta is ``zip(keys, values)``, so a
        ``values`` tuple shorter than ``keys`` (work that raised before
        its last annotation) drops the trailing keys.  Nothing may be
        recorded on this trace between ``started`` and the call, which
        keeps entries in start order.  The :class:`Span` is built when
        :attr:`spans` is first read.
        """
        self._entries.append((name, keys, values, started, ended, self._stack[-1]))

    def finish(self) -> "Trace":
        """Close the root (and any still-open spans) and publish the trace."""
        if self._finished:
            return self
        self._finished = True
        now = time.perf_counter()
        for span in self._stack:
            if span.ended is None:
                span.ended = now
        self._stack = [self._root]
        if self._tracer is not None:
            self._tracer._record(self)
        return self

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every span in start order; pending leaves become spans once."""
        entries = self._entries
        if self._built != len(entries):
            with _MATERIALIZE_LOCK:
                end = len(entries)
                for position in range(self._built, end):
                    entry = entries[position]
                    if type(entry) is tuple:
                        name, keys, values, started, ended, parent = entry
                        span = Span(
                            name, position, parent.span_id, parent.depth + 1,
                            dict(zip(keys, values)), started,
                        )
                        span.ended = ended
                        entries[position] = span
                self._built = end
        return entries  # type: ignore[return-value]

    @property
    def root(self) -> Span:
        return self._root

    @property
    def name(self) -> str:
        return self._root.name

    @property
    def duration_seconds(self) -> float:
        return self._root.duration_seconds

    def find(self, name: str) -> List[Span]:
        """Every span with the given name, in start order."""
        return [span for span in self.spans if span.name == name]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "spans": [span.to_dict() for span in self.spans],
        }

    def render(self) -> str:
        """An indented ASCII tree of the spans with durations and meta."""
        lines = []
        for span in self.spans:
            meta = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(span.meta.items()))
                if span.meta
                else ""
            )
            lines.append(
                f"{'  ' * span.depth}{span.name} "
                f"{span.duration_seconds * 1000:.3f}ms{meta}"
            )
        return "\n".join(lines)


class _NullSpanHandle:
    """Do-nothing span context; hands back the null trace's root span."""

    __slots__ = ("_root",)

    def __init__(self, root: Span) -> None:
        self._root = root

    def __enter__(self) -> Span:
        return self._root

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullTrace(Trace):
    """Shared do-nothing trace handed out by a disabled tracer."""

    def __init__(self) -> None:
        super().__init__(None, "null", {})
        self._null_span = _NullSpanHandle(self.root)

    def span(self, name: str, **meta: object) -> "_NullSpanHandle":
        return self._null_span  # meta writes land on a throwaway dict

    def leaf(self, name, keys, started, ended, values) -> None:
        return None

    def finish(self) -> "Trace":
        return self


NULL_TRACE = _NullTrace()


class Tracer:
    """Hands out traces and keeps a ring buffer of finished ones."""

    def __init__(self, enabled: bool = True, keep: int = 16) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.enabled = enabled
        self._traces: Deque[Trace] = deque(maxlen=keep)
        self._lock = threading.Lock()

    def trace(self, name: str, **meta: object) -> Trace:
        """Start a new trace (the shared null trace when disabled)."""
        if not self.enabled:
            return NULL_TRACE
        return Trace(self, name, dict(meta))

    def _record(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def last_trace(self, name: Optional[str] = None) -> Optional[Trace]:
        """The most recently finished trace (optionally of a given name)."""
        with self._lock:
            if name is None:
                return self._traces[-1] if self._traces else None
            for trace in reversed(self._traces):
                if trace.name == name:
                    return trace
            return None

    def traces(self) -> List[Trace]:
        """Finished traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


#: shared disabled tracer for callers that want an explicit null sink
NULL_TRACER = Tracer(enabled=False)
