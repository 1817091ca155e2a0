"""Unit tests for the Flix facade."""

import threading

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.results import StreamedList
from repro.graph.closure import transitive_closure
from repro.indexes.packed import PackedIndex


class TestBuild:
    def test_build_report_exposed(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        assert flix.report.config_name == "naive"
        # the report's index bytes are the packed form's, and its link
        # bytes those of links.pack: size_bytes() is the report's total
        report = flix.report
        assert all(m.index_bytes > 0 for m in report.meta_documents)
        assert flix.size_bytes() == report.residual_link_bytes + sum(
            meta.index.blob.size_bytes() for meta in flix.meta_documents
        )
        assert 0 < flix.size_bytes() == report.total_index_bytes
        # the closure layout too
        closure = Flix.build(
            figure1_collection, FlixConfig.monolithic("transitive_closure")
        )
        assert closure.report.total_index_bytes == closure.size_bytes() == (
            closure.meta_documents[0].index.blob.size_bytes()
            + closure.report.residual_link_bytes
        )

    def test_meta_document_of(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        root = figure1_collection.document_root("d01.xml")
        meta = flix.meta_document_of(root)
        assert root in meta

    def test_describe_mentions_config(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        text = flix.describe()
        assert "hybrid" in text
        assert "meta" in text

    def test_monolithic_build(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.monolithic("hopi"))
        assert len(flix.meta_documents) == 1
        assert flix.meta_documents[0].strategy == "hopi"
        assert isinstance(flix.meta_documents[0].index, PackedIndex)
        assert flix.report.residual_link_count == 0
        oracle = transitive_closure(figure1_collection.graph)
        start = figure1_collection.document_root("d05.xml")
        got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        assert got == set(oracle.descendants(start)) - {start}

    def test_monolithic_results_exactly_ordered(self, figure1_collection):
        """One meta document means no cross-block approximation at all."""
        flix = Flix.build(figure1_collection, FlixConfig.monolithic("hopi"))
        oracle = transitive_closure(figure1_collection.graph)
        start = figure1_collection.document_root("d05.xml")
        results = list(flix.query_stream(QueryRequest.descendants(start)))
        for result in results:
            assert result.distance == oracle.distance(start, result.node)
        distances = [r.distance for r in results]
        assert distances == sorted(distances)


class TestStreamedDelivery:
    """Section 3.1's "client thread reads from a list": the one producer,
    ``StreamedList.feed``, over the one streaming entry point."""

    def test_streamed_results_match_synchronous(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        start = figure1_collection.document_root("d01.xml")
        requests = [
            QueryRequest.descendants(start),
            QueryRequest.ancestors(
                figure1_collection.document_root("d10.xml")
            ),
            QueryRequest.type_query(
                figure1_collection.tag(start), max_distance=3
            ),
            QueryRequest.connections(start),
        ]
        for request in requests:
            synchronous = list(flix.query_stream(request))
            assert synchronous, request.kind
            streamed = list(StreamedList.feed(flix.query_stream(request)))
            assert streamed == synchronous

    def test_streamed_limit(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        start = figure1_collection.document_root("d01.xml")
        stream = StreamedList.feed(
            flix.query_stream(QueryRequest.descendants(start, limit=3))
        )
        assert len(list(stream)) == 3
        assert stream.closed

    def test_streamed_cancel(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        start = figure1_collection.document_root("d01.xml")
        total = len(list(flix.query_stream(QueryRequest.descendants(start))))
        queries = flix.metrics().get("flix_queries_total")
        finished = queries.total()
        source = _Paced(flix.query_stream(QueryRequest.descendants(start)))
        stream = StreamedList.feed(source)
        stream.get(0, timeout=5)
        stream.cancel()
        source.go.set()
        # the producer notices, closes the query behind the list — its
        # finalizer publishes without waiting for garbage collection —
        # and only then closes the list; iteration terminates
        assert len(list(stream)) < total
        assert queries.total() == finished + 1


class _Paced:
    """An iterable that hands out its first item at once and the rest
    only after ``go`` is set (so a test can cancel mid-stream)."""

    def __init__(self, inner):
        self._inner = inner
        self.go = threading.Event()
        self.close = inner.close

    def __iter__(self):
        for position, item in enumerate(self._inner):
            if position:
                assert self.go.wait(5)
            yield item
