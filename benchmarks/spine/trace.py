"""The bench spine's own span recorder and the proxies that feed it.

Spans are recorded from benchmark files only, around the calls into each
layer's public surface: the client call, a delegating coordinator handed
to ``FrontDoor``, ``ShardClient`` subclasses handed to the
``ShardCoordinator`` constructor, an evaluator proxy set through the
public ``flix.pee`` setter, and a WAL proxy set through ``attach_wal``.

The traced run has one client, so at most one request is in flight: every
span recorded while it runs — on whichever thread — belongs to it and
carries the client's sequence number as request id.  Parents are assigned
afterwards by time containment.  A layer's self time is its span minus
the part its children cover, so the self times of one request sum to its
client span by construction.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.shard.coordinator import ShardClient


class Span(NamedTuple):
    name: str
    start: float
    end: float
    request_id: int


class Recorder:
    """In-memory span sink; ``request_id`` is set by the client before
    each call and stamped on every span recorded until the next one."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.request_id = -1

    def add(self, name: str, start: float, end: float) -> None:
        if self.enabled:
            self.spans.append(Span(name, start, end, self.request_id))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, start, perf_counter())


# ----------------------------------------------------------------------
# folding: parents by containment, self time = span minus children
# ----------------------------------------------------------------------
class FoldedSpan(NamedTuple):
    name: str
    start: float
    end: float
    request_id: int
    parent: int  # index into the folded list; -1 for a request's root
    self_seconds: float


def fold(spans: List[Span]) -> List[FoldedSpan]:
    """Assign each span its parent (the innermost span of the same
    request containing it) and its self time."""
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i].request_id, spans[i].start, -spans[i].end),
    )
    parent = [-1] * len(spans)
    child_seconds = [0.0] * len(spans)
    stack: List[int] = []
    for index in order:
        span = spans[index]
        while stack and not (
            spans[stack[-1]].request_id == span.request_id
            and spans[stack[-1]].end >= span.end
        ):
            stack.pop()
        if stack:
            parent[index] = stack[-1]
            child_seconds[stack[-1]] += span.end - span.start
        stack.append(index)
    return [
        FoldedSpan(
            span.name, span.start, span.end, span.request_id, parent[i],
            (span.end - span.start) - child_seconds[i],
        )
        for i, span in enumerate(spans)
    ]


def self_times_by_request(
    folded: List[FoldedSpan],
) -> Dict[int, Dict[str, float]]:
    """``{request id: {span name: summed self seconds}}``; the values of
    one request sum to its root span's duration."""
    table: Dict[int, Dict[str, float]] = {}
    for span in folded:
        row = table.setdefault(span.request_id, {})
        row[span.name] = row.get(span.name, 0.0) + span.self_seconds
    return table


def root_durations(folded: List[FoldedSpan]) -> Dict[int, float]:
    """``{request id: client span seconds}`` (the span without a parent)."""
    return {
        span.request_id: span.end - span.start
        for span in folded
        if span.parent == -1
    }


def write_spans(folded: List[FoldedSpan], path) -> None:
    """One JSON object per line: name, start, end, parent, request id."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(folded):
            handle.write(json.dumps({
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "request_id": span.request_id,
                "self": span.self_seconds,
            }) + "\n")


# ----------------------------------------------------------------------
# proxies
# ----------------------------------------------------------------------
class _TracedStream:
    """A ``QueryStream`` stand-in whose span ends when the stream is
    exhausted or closed — the generator does its work on consumption."""

    def __init__(self, inner, recorder: Recorder, start: float) -> None:
        self._inner = inner
        self._recorder = recorder
        self._start = start
        self._finished = False
        self.stats = inner.stats

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._recorder.add("core.pee", self._start, perf_counter())

    def __iter__(self):
        try:
            yield from self._inner
        finally:
            self._finish()

    def close(self) -> None:
        self._inner.close()
        self._finish()


class TracedEvaluator:
    """Delegating evaluator proxy (set via ``flix.pee = ...``) that spans
    every search the Figure-4 loop runs."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _stream(self, method: str, args, kwargs) -> _TracedStream:
        start = perf_counter()
        return _TracedStream(
            getattr(self._inner, method)(*args, **kwargs),
            self._recorder, start,
        )

    def find_descendants(self, *args, **kwargs):
        return self._stream("find_descendants", args, kwargs)

    def find_ancestors(self, *args, **kwargs):
        return self._stream("find_ancestors", args, kwargs)

    def evaluate_type_query(self, *args, **kwargs):
        return self._stream("evaluate_type_query", args, kwargs)

    def connection_test(self, *args, **kwargs):
        with self._recorder.span("core.pee"):
            return self._inner.connection_test(*args, **kwargs)

    def connection_test_bidirectional(self, *args, **kwargs):
        with self._recorder.span("core.pee"):
            return self._inner.connection_test_bidirectional(*args, **kwargs)


class TracedCoordinator:
    """Delegating ``ShardCoordinator`` handed to ``FrontDoor``; keeps the
    responses it served while recording, so the front door's codec can be
    timed on them afterwards."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.responses: list = []

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def query(self, request, budget=None):
        with self._recorder.span("shard.coordinator"):
            response = self._inner.query(request, budget)
        if self._recorder.enabled:
            self.responses.append(response)
        return response


class TracedShardClient(ShardClient):
    """``ShardClient`` whose round trips are spanned by verb; keeps a
    reference to each reply so framing cost and size can be measured on
    real payloads after the pass (never inside a span)."""

    def __init__(self, *args, recorder: Recorder, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._recorder = recorder
        self.replies: List[tuple] = []

    def call(self, verb: str, payload: dict):
        start = perf_counter()
        try:
            reply = super().call(verb, payload)
        finally:
            self._recorder.add("rpc." + verb, start, perf_counter())
        if self._recorder.enabled:
            self.replies.append(reply)
        return reply


class TracedWal:
    """Delegating ``WriteAheadLog`` set through ``flix.attach_wal``."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def append(self, verb, generation, payload):
        with self._recorder.span("wal.append"):
            return self._inner.append(verb, generation, payload)


class FsyncCounter:
    """Counts ``os.fsync`` calls made while active (traced run only)."""

    def __init__(self) -> None:
        self.count = 0
        self._original: Optional[object] = None

    def __enter__(self) -> "FsyncCounter":
        self._original = os.fsync

        def counting_fsync(fd):
            self.count += 1
            return self._original(fd)

        os.fsync = counting_fsync
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._original
