"""Link-graph edge cases: dangling targets, self-loops, residual cycles.

The paper's data model is the open web: idref/XLink targets may not
exist, may point at their own element, and residual links across meta
documents may form cycles.  These tests pin down that the builder and the
PEE terminate and stay correct on all of them — including cycle
traversal under a hop budget, which must end ``truncated`` rather than
spin.
"""

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryBudget


def results_of(stream):
    return [(r.node, r.distance) for r in stream]


class TestDanglingTargets:
    @pytest.fixture()
    def dangling_collection(self):
        docs = [
            XmlDocument.from_text(
                "a.xml",
                '<doc id="r"><sec><ref idref="no-such-id"/></sec>'
                '<sec id="here"><p>text</p></sec></doc>',
            ),
            XmlDocument.from_text(
                "b.xml",
                '<doc><link xlink:href="missing.xml"/>'
                '<link xlink:href="a.xml#nowhere"/>'
                '<link xlink:href="a.xml#here"/></doc>',
            ),
        ]
        return build_collection(docs)

    def test_unresolved_links_recorded_not_indexed(self, dangling_collection):
        assert len(dangling_collection.unresolved_links) == 3

    def test_build_and_query_ignore_dangling_targets(self, dangling_collection):
        flix = Flix.build(dangling_collection, FlixConfig.naive())
        start = dangling_collection.document_root("b.xml")
        nodes = {node for node, _ in results_of(flix.pee.find_descendants(start))}
        # the one resolvable link is followed; the dangling two are absent
        resolved = dangling_collection.documents["a.xml"].anchors["here"]
        assert dangling_collection.node_id_of(resolved) in nodes

    def test_self_check_passes_with_dangling_links(self, dangling_collection):
        flix = Flix.build(dangling_collection, FlixConfig.naive())
        flix.self_check(samples=10, seed=1)


class TestSelfLoops:
    @pytest.fixture()
    def loop_collection(self):
        docs = [
            XmlDocument.from_text(
                "loop.xml",
                '<doc><sec id="s"><ref idref="s"/><p>body</p></sec></doc>',
            ),
            XmlDocument.from_text(
                "other.xml",
                '<doc><link xlink:href="loop.xml"/></doc>',
            ),
        ]
        return build_collection(docs)

    def test_self_loop_terminates(self, loop_collection):
        flix = Flix.build(loop_collection, FlixConfig.naive())
        start = loop_collection.document_root("other.xml")
        results = results_of(flix.pee.find_descendants(start))
        assert len(results) == len(set(n for n, _ in results))  # no dups

    def test_self_loop_with_budget_stays_finite(self, loop_collection):
        flix = Flix.build(loop_collection, FlixConfig.naive())
        start = loop_collection.document_root("other.xml")
        results_of(  # must terminate
            flix.pee.find_descendants(
                start, budget=QueryBudget(max_link_hops=2)
            )
        )


class TestResidualCycles:
    @pytest.fixture()
    def cycle_collection(self):
        """Three documents whose roots link in a cycle a -> b -> c -> a,
        each with local content below the linking element."""
        docs = [
            XmlDocument.from_text(
                "a.xml",
                '<doc><link xlink:href="b.xml"/><item>in-a</item></doc>',
            ),
            XmlDocument.from_text(
                "b.xml",
                '<doc><link xlink:href="c.xml"/><item>in-b</item></doc>',
            ),
            XmlDocument.from_text(
                "c.xml",
                '<doc><link xlink:href="a.xml"/><item>in-c</item></doc>',
            ),
        ]
        return build_collection(docs)

    def cycle_flix(self, collection):
        return Flix.build(collection, FlixConfig.naive())

    def test_cycle_spans_three_meta_documents(self, cycle_collection):
        flix = self.cycle_flix(cycle_collection)
        assert len(flix.meta_documents) == 3
        assert flix.report.residual_link_count == 3

    def test_cycle_traversal_terminates_and_reaches_all(self, cycle_collection):
        flix = self.cycle_flix(cycle_collection)
        start = cycle_collection.document_root("a.xml")
        stream = flix.pee.find_descendants(start, tag="item")
        items = results_of(stream)
        # the cycle makes every document's item reachable, exactly once
        assert len(items) == 3
        assert len({n for n, _ in items}) == 3
        assert stream.completeness == "complete"

    def test_cycle_under_hop_budget_truncates(self, cycle_collection):
        flix = self.cycle_flix(cycle_collection)
        start = cycle_collection.document_root("a.xml")
        stream = flix.pee.find_descendants(
            start, tag="item", budget=QueryBudget(max_link_hops=1)
        )
        items = results_of(stream)
        assert stream.completeness == "truncated"
        assert 1 <= len(items) < 3  # budget stopped the walk mid-cycle

    def test_cycle_ancestors_terminate(self, cycle_collection):
        flix = self.cycle_flix(cycle_collection)
        item = results_of(
            flix.pee.find_descendants(
                cycle_collection.document_root("a.xml"), tag="item"
            )
        )[0][0]
        ancestors = results_of(flix.pee.find_ancestors(item))
        assert len(ancestors) == len({n for n, _ in ancestors})

    def test_cycle_connection_test_terminates(self, cycle_collection):
        flix = self.cycle_flix(cycle_collection)
        a = cycle_collection.document_root("a.xml")
        c = cycle_collection.document_root("c.xml")
        assert flix.query(QueryRequest.test(a, c)).value is not None
        assert flix.query(QueryRequest.test(c, a)).value is not None  # around the cycle
