"""Integration tests: observability wired through Flix end to end.

The headline assertions mirror the acceptance criteria: a query that
crosses a meta-document boundary produces spans for both the covered
index probe and the residual-link hop, and a build with
``FlixConfig(observability=False)`` emits nothing at all.
"""

import itertools
import json
import re
import time

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest, open_request
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.results import StreamedList
from repro.obs import tracing


@pytest.fixture()
def linked_pair():
    """Two documents joined by one XLink: the smallest cross-meta case."""
    docs = [
        XmlDocument.from_text(
            "a.xml",
            '<doc><sec><link xlink:href="b.xml#t"/></sec></doc>',
        ),
        XmlDocument.from_text(
            "b.xml",
            '<doc><sec id="t"><p>target</p></sec></doc>',
        ),
    ]
    return build_collection(docs)


def _build(collection, observability=True):
    config = FlixConfig.naive().with_observability(observability)
    return Flix.build(collection, config)


class TestCrossMetaTracing:
    def test_two_meta_query_has_probe_and_link_hop_spans(self, linked_pair):
        flix = _build(linked_pair)
        assert len(flix.meta_documents) == 2
        start = linked_pair.document_root("a.xml")
        results = list(flix.query_stream(QueryRequest.descendants(start)))
        # the query must have crossed into b.xml through the residual link
        metas_seen = {r.meta_id for r in results}
        assert len(metas_seen) == 2

        trace = flix.trace_last_query()
        assert trace is not None
        assert trace.name == "pee.query"
        probes = trace.find("pee.probe")
        hops = trace.find("pee.link_hop")
        assert len(probes) >= 2, "both meta documents must be probed"
        assert {s.meta.get("meta_id") for s in probes} == {0, 1}
        assert len(hops) >= 1, "the residual link must be traversed"
        assert sum(s.meta.get("hops", 0) for s in hops) >= 1
        # spans nest under the root query span
        root = trace.root
        assert all(s.parent_id == root.span_id for s in probes)
        assert root.meta["results"] == len(results)

    def test_query_metrics_published_on_completion(self, linked_pair):
        flix = _build(linked_pair)
        start = linked_pair.document_root("a.xml")
        list(flix.query_stream(QueryRequest.descendants(start)))
        reg = flix.metrics()
        assert reg.get("flix_queries_total").value(axis="descendants") == 1
        assert reg.get("flix_pee_link_hops_total").total() >= 1
        assert reg.get("flix_pee_meta_visits_total").total() >= 2
        assert reg.get("flix_pee_queue_pops_total").total() >= 2
        hist = reg.get("flix_query_seconds")
        assert hist.count(axis="descendants") == 1
        assert hist.sum(axis="descendants") > 0

    def test_query_stats_count_queue_pops(self, linked_pair):
        flix = _build(linked_pair)
        start = linked_pair.document_root("a.xml")
        stream = flix.pee.find_descendants(start)
        list(stream)
        assert stream.stats.queue_pops >= 2
        assert stream.stats.queue_pops >= stream.stats.meta_document_visits

    def test_build_metrics_published(self, linked_pair):
        flix = _build(linked_pair)
        reg = flix.metrics()
        assert reg.get("flix_meta_documents").value() == 2
        assert reg.get("flix_index_builds_total").total() == 2
        assert reg.get("flix_builds_total").value(executor="serial") == 1
        phases = reg.get("flix_build_phase_seconds")
        assert phases.count(phase="index") == 2
        assert reg.get("flix_residual_links").value() == 1
        # an index is built into its own structures and packed: no table
        # rows, so no storage traffic to count
        for name in ("reads", "writes", "index_hits"):
            assert reg.get(f"flix_storage_{name}_total") is None


class TestDisabledObservability:
    def test_disabled_emits_nothing(self, linked_pair):
        flix = _build(linked_pair, observability=False)
        start = linked_pair.document_root("a.xml")
        results = list(flix.query_stream(QueryRequest.descendants(start)))
        assert results  # queries still work
        assert flix.metrics().metrics() == []
        assert flix.trace_last_query() is None
        assert flix.export_metrics("prom") == ""
        assert json.loads(flix.export_metrics("json")) == {"metrics": []}

    def test_disabled_stream_still_carries_stats(self, linked_pair):
        # QueryStats is independent of the registry: every stream still
        # counts its own work with observability off.
        flix = _build(linked_pair, observability=False)
        start = linked_pair.document_root("a.xml")
        stream = flix.pee.find_descendants(start)
        list(stream)
        assert stream.stats.results_returned > 0
        assert stream.stats.queue_pops > 0

    def test_config_knob_round_trips(self):
        config = FlixConfig.naive()
        assert config.observability is True
        off = config.with_observability(False)
        assert off.observability is False
        assert off.name == config.name
        assert off.with_observability(True).observability is True


class TestFlixObservabilitySurface:
    def test_export_formats(self, linked_pair):
        flix = _build(linked_pair)
        start = linked_pair.document_root("a.xml")
        list(flix.query_stream(QueryRequest.descendants(start)))
        prom = flix.export_metrics("prom")
        assert "# TYPE flix_queries_total counter" in prom
        payload = json.loads(flix.export_metrics("json"))
        names = {m["name"] for m in payload["metrics"]}
        assert "flix_queries_total" in names
        with pytest.raises(ValueError):
            flix.export_metrics("yaml")

    def test_connection_test_publishes_connection_axis(self, linked_pair):
        flix = _build(linked_pair)
        start = linked_pair.document_root("a.xml")
        # the link lands on b.xml's <sec id="t">, so the <p> inside it is
        # reachable from a.xml's root across the residual link
        target = linked_pair.nodes_with_tag("p")[0]
        assert flix.query(QueryRequest.test(start, target)).value is not None
        reg = flix.metrics()
        assert reg.get("flix_queries_total").value(axis="connection") == 1

    def test_persistence_round_trips_observability(self, linked_pair, tmp_path):
        flix = _build(linked_pair, observability=False)
        flix.save(tmp_path / "idx")
        loaded = Flix.load(linked_pair, tmp_path / "idx")
        assert loaded.config.observability is False
        assert loaded.metrics().metrics() == []

    def test_interleaved_streams_have_separate_traces(self, linked_pair):
        # Two queries consumed alternately on one thread: when both finish,
        # each trace's spans must reference only its own query.
        flix = _build(linked_pair)
        a = linked_pair.document_root("a.xml")
        b = linked_pair.document_root("b.xml")
        s1 = flix.pee.find_descendants(a)
        s2 = flix.pee.find_descendants(b)
        done1 = done2 = False
        while not (done1 and done2):
            if not done1:
                try:
                    next(s1)
                except StopIteration:
                    done1 = True
            if not done2:
                try:
                    next(s2)
                except StopIteration:
                    done2 = True
        traces = [
            t for t in flix.obs.tracer.traces() if t.name == "pee.query"
        ]
        assert len(traces) == 2
        for trace in traces:
            # every probe span's parent chain stays inside this trace
            ids = {s.span_id for s in trace.spans}
            assert all(
                s.parent_id in ids for s in trace.spans if s.parent_id is not None
            )


# ----------------------------------------------------------------------
# per-entry spans are leaf records: same spans on read, none until then
# ----------------------------------------------------------------------
PROBE_KEYS = {"meta_id", "priority", "matches"}
HOP_KEYS = {"meta_id", "hops"}


def _check_query_trace(trace, stats):
    """The per-entry spans a ``pee.query`` trace must show: one probe per
    visited meta document, one hop span per residual-link lookup, all
    flat under the root, ids in start order."""
    spans = trace.spans
    root, leaves = spans[0], spans[1:]
    assert root is trace.root and root.span_id == 0
    assert [s.span_id for s in spans] == list(range(len(spans)))
    starts = [s.started for s in leaves]
    assert starts == sorted(starts)
    for leaf in leaves:
        assert leaf.parent_id == 0 and leaf.depth == 1
        assert root.started <= leaf.started <= leaf.ended <= root.ended
    probes = trace.find("pee.probe")
    hops = trace.find("pee.link_hop")
    assert len(probes) + len(hops) == len(leaves)
    assert all(set(s.meta) == PROBE_KEYS for s in probes)
    assert all(set(s.meta) == HOP_KEYS for s in hops)
    assert len(probes) == stats.meta_document_visits
    followed = sum(s.meta["hops"] for s in hops)
    assert followed == stats.link_traversals + stats.planner_pruned_pushes
    return followed


def _requests(collection, tag_pairs):
    roots = [collection.document_root(name)
             for name in sorted(collection.documents)[:6]]
    requests = [QueryRequest.descendants(r) for r in roots]
    for source_tag, tag in tag_pairs:
        requests.append(QueryRequest.type_query(source_tag, tag))
        for node in collection.nodes_with_tag(tag)[:4]:
            requests.append(QueryRequest.ancestors(node))
    return requests


@pytest.fixture(scope="module", params=["maximal_ppo", "hybrid"])
def dblp_flix(request, dblp_collection):
    return Flix.build(dblp_collection, getattr(FlixConfig, request.param)())


class TestTraceFidelity:
    def test_linked_pair(self, linked_pair):
        flix = _build(linked_pair)
        followed = 0
        for query in _requests(linked_pair, [("doc", "p")]):
            response = flix.query(query)
            followed += _check_query_trace(
                flix.trace_last_query(), response.stats
            )
        assert followed >= 1

    def test_dblp_sample(self, dblp_flix, dblp_collection):
        followed = 0
        for query in _requests(
            dblp_collection, [("inproceedings", "author"), ("article", "cite")]
        ):
            response = dblp_flix.query(query)
            followed += _check_query_trace(
                dblp_flix.trace_last_query(), response.stats
            )
        assert followed >= 1, "the sample must cross residual links"

    def test_worked_example_renders_as_documented(self, linked_pair):
        flix = _build(linked_pair)
        start = linked_pair.document_root("a.xml")
        list(flix.query_stream(QueryRequest.descendants(start)))
        lines = [
            re.sub(r" \d+\.\d{3}ms", "", line)
            for line in flix.trace_last_query().render().splitlines()
        ]
        assert lines == [
            "pee.query axis=descendants completeness=complete generation=0 "
            "results=4 seeds=1 tag=*",
            "  pee.probe matches=3 meta_id=0 priority=0",
            "  pee.link_hop hops=1 meta_id=0",
            "  pee.probe matches=2 meta_id=1 priority=3",
        ]

    def test_probe_that_raises_keeps_its_span(self, linked_pair):
        flix = _build(linked_pair)

        class Raising:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def find_descendants_by_tag(self, source, tag):
                raise RuntimeError("probe failed")

        for meta in flix.meta_documents:
            meta.index = Raising(meta.index)
        with pytest.raises(RuntimeError, match="probe failed"):
            flix.query(
                QueryRequest.descendants(linked_pair.document_root("a.xml"))
            )
        probes = flix.trace_last_query().find("pee.probe")
        assert len(probes) == 1  # the query stopped at its first probe
        assert set(probes[0].meta) == {"meta_id", "priority"}

    def test_to_dict_keeps_meta_key_order(self, linked_pair):
        flix = _build(linked_pair)
        list(flix.query_stream(
            QueryRequest.descendants(linked_pair.document_root("a.xml"))
        ))
        payload = flix.trace_last_query().to_dict()
        assert [list(s["meta"]) for s in payload["spans"][1:]] == [
            ["meta_id", "priority", "matches"],
            ["meta_id", "hops"],
            ["meta_id", "priority", "matches"],
        ]


class TestUnreadTracesBuildNoSpans:
    def test_one_span_per_unread_query(self, dblp_flix, dblp_collection,
                                       monkeypatch):
        built = []
        original = tracing.Span.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(tracing.Span, "__init__", counting)
        roots = [dblp_collection.document_root(name)
                 for name in sorted(dblp_collection.documents)[:100]]
        stats = [dblp_flix.query(QueryRequest.descendants(r)).stats
                 for r in roots]
        assert built == ["pee.query"] * 100
        assert sum(s.meta_document_visits for s in stats) >= 100

        # root, name, duration and finish read no pending leaf
        traces = dblp_flix.obs.tracer.traces()
        for trace in traces:
            assert trace.root.name == trace.name == "pee.query"
            assert trace.duration_seconds > 0
            trace.finish()
        assert len(built) == 100

        # the first read builds each leaf once; later reads build nothing
        newest = traces[-1]
        spans = newest.spans
        assert len(built) == 100 + len(spans) - 1
        assert newest.spans is spans and newest.find("pee.probe")
        newest.render()
        newest.to_dict()
        assert len(built) == 100 + len(spans) - 1


# ----------------------------------------------------------------------
# the stream contract around direct iteration
# ----------------------------------------------------------------------
def _queries_total(flix):
    counter = flix.metrics().get("flix_queries_total")
    return 0 if counter is None else counter.value(axis="descendants")


class TestStreamContract:
    def test_iter_hands_out_the_generator(self, linked_pair):
        flix = _build(linked_pair)
        stream = flix.pee.find_descendants(linked_pair.document_root("a.xml"))
        assert iter(stream) is not stream
        assert iter(stream) is iter(stream)
        stream.close()

    def test_list_publishes_once(self, linked_pair):
        flix = _build(linked_pair)
        stream = flix.pee.find_descendants(linked_pair.document_root("a.xml"))
        results = list(stream)
        assert stream.stats.results_returned == len(results) == 4
        assert _queries_total(flix) == 1
        stream.close()
        stream.close()
        assert _queries_total(flix) == 1

    def test_closed_before_first_next_finalizes_once(self, linked_pair):
        flix = _build(linked_pair)
        stream = flix.pee.find_descendants(linked_pair.document_root("a.xml"))
        stream.close()
        stream.close()
        assert _queries_total(flix) == 1
        assert stream.stats.results_returned == 0
        assert list(stream) == []
        assert _queries_total(flix) == 1

    def test_islice_then_finish_finalizes_once(self, linked_pair):
        flix = _build(linked_pair)
        request = QueryRequest.descendants(
            linked_pair.document_root("a.xml"), limit=2
        )
        answer, finish = open_request(request, None, flix.pee)
        assert isinstance(answer, itertools.islice)
        assert len(list(answer)) == 2
        assert _queries_total(flix) == 0  # stopped early: not yet final
        stats = finish()
        finish()
        assert _queries_total(flix) == 1
        assert stats.results_returned == 2

    @pytest.mark.parametrize("framework_stream", [False, True])
    def test_cancelled_feed_closes_the_source_first(
        self, dblp_flix, dblp_collection, monkeypatch, framework_stream
    ):
        published_when_closed = []
        original = StreamedList.close

        def close(self):
            published_when_closed.append(_queries_total(dblp_flix))
            original(self)

        monkeypatch.setattr(StreamedList, "close", close)
        before = _queries_total(dblp_flix)
        start = dblp_collection.document_root(sorted(dblp_collection.documents)[0])
        source = (
            dblp_flix.query_stream(QueryRequest.descendants(start))
            if framework_stream else dblp_flix.pee.find_descendants(start)
        )
        results = StreamedList.feed(source)
        results.get(0, timeout=10)
        results.cancel()
        deadline = time.monotonic() + 10
        while not results.closed and time.monotonic() < deadline:
            time.sleep(0.001)
        assert results.closed
        assert published_when_closed == [before + 1]
