"""Unit tests for spans, traces, and the tracer ring buffer."""

import os
import sys
import threading

from repro.obs.tracing import NULL_TRACE, NULL_TRACER, Trace, Tracer

import pytest

KEYS = ("meta_id", "matches")


def _leafy_trace(leaves: int) -> Trace:
    """A finished trace of ``leaves`` leaf records, a nested span between
    two of them, and one leaf inside that span."""
    trace = Tracer().trace("pee.query")
    for i in range(leaves):
        trace.leaf("pee.probe", KEYS, float(i), float(i) + 0.5, (i, i % 7))
        if i == leaves // 2:
            with trace.span("nested", k=1):
                trace.leaf("inner", KEYS, 0.0, 0.0, (i,))
    return trace.finish()


class TestLeaves:
    def test_leaves_read_like_spans(self):
        tracer = Tracer()
        trace = tracer.trace("pee.query")
        trace.leaf("pee.probe", KEYS, 1.0, 3.0, (4, 2))
        with trace.span("pee.plan", kind="x") as nested:
            trace.leaf("inner", KEYS, 5.0, 6.0, (9,))
        trace.leaf("pee.link_hop", ("meta_id", "hops"), 7.0, 7.25, (4, 1))
        trace.finish()

        root, probe, plan, inner, hop = trace.spans
        assert [s.span_id for s in trace.spans] == [0, 1, 2, 3, 4]
        assert plan is nested
        assert (probe.parent_id, probe.depth) == (0, 1)
        assert (inner.parent_id, inner.depth) == (plan.span_id, 2)
        assert (hop.parent_id, hop.depth) == (0, 1)
        assert probe.meta == {"meta_id": 4, "matches": 2}
        assert inner.meta == {"meta_id": 9}  # short values drop trailing keys
        assert probe.duration_seconds == 2.0 and hop.duration_seconds == 0.25
        assert "    inner" in trace.render()

    def test_null_trace_ignores_leaves(self):
        NULL_TRACE.leaf("pee.probe", KEYS, 0.0, 1.0, (1, 2))
        assert len(NULL_TRACE.spans) == 1

    def test_concurrent_first_reads_build_each_leaf_once(self):
        trace = _leafy_trace(3000)
        readers = 2 * (os.cpu_count() or 1) + 4
        barrier = threading.Barrier(readers)
        seen = [None] * readers
        errors = []

        def read(slot: int) -> None:
            try:
                barrier.wait(timeout=10)
                how = slot % 3
                if how == 0:
                    spans = trace.spans
                elif how == 1:
                    trace.find("pee.probe")
                    spans = trace.spans
                else:
                    trace.render()
                    spans = trace.spans
                seen[slot] = list(spans)  # holds every object it saw
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(slot,))
                for slot in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        spans = trace.spans
        assert len(spans) == 1 + 3000 + 2
        for view in seen:  # one object per leaf, whoever read first
            assert len(view) == len(spans)
            assert all(a is b for a, b in zip(view, spans))
        assert [s.span_id for s in spans] == list(range(len(spans)))
        assert len(trace.find("pee.probe")) == 3000


class TestTrace:
    def test_nesting_and_parents(self):
        tracer = Tracer()
        trace = tracer.trace("pee.query", axis="descendants")
        with trace.span("pee.probe", meta_id=0):
            with trace.span("pee.link_hop"):
                pass
        with trace.span("pee.probe", meta_id=1):
            pass
        trace.finish()

        names = [s.name for s in trace.spans]
        assert names == ["pee.query", "pee.probe", "pee.link_hop", "pee.probe"]
        root, probe0, hop, probe1 = trace.spans
        assert root.parent_id is None and root.depth == 0
        assert probe0.parent_id == root.span_id and probe0.depth == 1
        assert hop.parent_id == probe0.span_id and hop.depth == 2
        assert probe1.parent_id == root.span_id and probe1.depth == 1

    def test_durations_monotonic_and_closed(self):
        tracer = Tracer()
        trace = tracer.trace("op")
        with trace.span("child"):
            pass
        trace.finish()
        assert trace.duration_seconds >= 0.0
        for span in trace.spans:
            assert span.ended is not None
            assert span.duration_seconds >= 0.0
        # the root covers its children
        assert trace.duration_seconds >= trace.spans[1].duration_seconds

    def test_find_and_render(self):
        tracer = Tracer()
        trace = tracer.trace("pee.query")
        with trace.span("pee.probe", meta_id=3):
            pass
        trace.finish()
        assert len(trace.find("pee.probe")) == 1
        text = trace.render()
        assert "pee.query" in text
        assert "  pee.probe" in text  # indented one level
        assert "meta_id=3" in text

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        trace = tracer.trace("op")
        trace.finish()
        trace.finish()
        assert len(tracer.traces()) == 1

    def test_interleaved_traces_do_not_adopt_spans(self):
        # Two traces driven alternately on one thread: each span must nest
        # under its own trace's root (the QueryStream interleaving pattern).
        tracer = Tracer()
        t1 = tracer.trace("q1")
        t2 = tracer.trace("q2")
        cm1 = t1.span("probe")
        s1 = cm1.__enter__()
        cm2 = t2.span("probe")
        s2 = cm2.__enter__()
        cm1.__exit__(None, None, None)
        cm2.__exit__(None, None, None)
        assert s1.parent_id == t1.root.span_id
        assert s2.parent_id == t2.root.span_id
        assert s1 in t1.spans and s1 not in t2.spans
        assert s2 in t2.spans and s2 not in t1.spans

    def test_to_dict_shape(self):
        tracer = Tracer()
        trace = tracer.trace("op", k="v")
        trace.finish()
        payload = trace.to_dict()
        assert payload["name"] == "op"
        assert payload["spans"][0]["meta"] == {"k": "v"}


class TestTracer:
    def test_ring_buffer_keeps_newest(self):
        tracer = Tracer(keep=2)
        for i in range(4):
            tracer.trace(f"op{i}").finish()
        assert [t.name for t in tracer.traces()] == ["op2", "op3"]

    def test_last_trace_by_name(self):
        tracer = Tracer()
        tracer.trace("a").finish()
        tracer.trace("b").finish()
        assert tracer.last_trace().name == "b"
        assert tracer.last_trace("a").name == "a"
        assert tracer.last_trace("missing") is None

    def test_empty_tracer_has_no_last_trace(self):
        assert Tracer().last_trace() is None

    def test_keep_validation(self):
        with pytest.raises(ValueError):
            Tracer(keep=0)

    def test_clear(self):
        tracer = Tracer()
        tracer.trace("op").finish()
        tracer.clear()
        assert tracer.traces() == []

    def test_disabled_tracer_hands_out_null_trace(self):
        trace = NULL_TRACER.trace("op")
        assert trace is NULL_TRACE
        with trace.span("child"):
            pass
        trace.finish()
        assert NULL_TRACER.traces() == []
        # the shared null trace never accumulates spans
        assert len(NULL_TRACE.spans) == 1
