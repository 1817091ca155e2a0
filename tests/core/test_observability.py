"""Integration tests: observability wired through Flix end to end.

The headline assertions mirror the acceptance criteria: a query that
crosses a meta-document boundary produces spans for both the covered
index probe and the residual-link hop, and a build with
``FlixConfig(observability=False)`` emits nothing at all.
"""

import json

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix


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
        # build-time storage writes are counted (serial build, memory backend)
        writes = reg.get("flix_storage_writes_total")
        assert writes is not None and writes.total() > 0

    def test_query_time_storage_reads_counted(self, linked_pair):
        # a packed index has no tables to read; what outlives the build
        # stays observed: the framework tables, and the index tables of a
        # strategy with no packed form
        packed = _build(linked_pair)
        assert all(m.index.backend is None for m in packed.meta_documents)
        tables = Flix.build(
            linked_pair, FlixConfig.monolithic("transitive_closure")
        )
        for flix, backend in (
            (packed, packed._builder.framework_backend),
            (tables, tables.meta_documents[0].index.backend),
        ):
            reads = flix.metrics().get("flix_storage_reads_total")
            reads_before = reads.total() if reads else 0.0
            # scan the backend's tables directly: counts must move
            for name in backend.table_names():
                list(backend.table(name).scan())
            reads_after = flix.metrics().get("flix_storage_reads_total").total()
            assert reads_after > reads_before


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
        # QueryStats is independent of the registry: the self-tuning
        # monitor keeps working with observability off.
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
