"""Unit tests for the Path Expression Evaluator (Figure 4)."""

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.graph.closure import transitive_closure


@pytest.fixture(params=["naive", "maximal_ppo", "unconnected_hopi", "hybrid"])
def flix(request, figure1_collection):
    configs = {
        "naive": FlixConfig.naive(),
        "maximal_ppo": FlixConfig.maximal_ppo(),
        "unconnected_hopi": FlixConfig.unconnected_hopi(60),
        "hybrid": FlixConfig.hybrid(60),
    }
    return Flix.build(figure1_collection, configs[request.param])


@pytest.fixture(scope="module")
def oracle(figure1_collection):
    return transitive_closure(figure1_collection.graph)


class TestDescendants:
    def test_result_set_matches_oracle(self, flix, figure1_collection, oracle):
        for name in list(figure1_collection.documents)[:4]:
            start = figure1_collection.document_root(name)
            got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
            expected = set(oracle.descendants(start)) - {start}
            assert got == expected

    def test_no_duplicates(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        results = list(flix.query_stream(QueryRequest.descendants(start)))
        assert len(results) == len({r.node for r in results})

    def test_distances_are_upper_bounds(self, flix, figure1_collection, oracle):
        start = figure1_collection.document_root("d05.xml")
        for result in flix.query_stream(QueryRequest.descendants(start)):
            assert result.distance >= oracle.distance(start, result.node)

    def test_tag_filter(self, flix, figure1_collection, oracle):
        start = figure1_collection.document_root("d01.xml")
        got = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(start, tag="item"))
        }
        expected = {
            v
            for v in oracle.descendants(start)
            if figure1_collection.tag(v) == "item" and v != start
        }
        assert got == expected

    def test_include_self(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        with_self = {
            r.node
            for r in flix.query_stream(
                QueryRequest.descendants(start, include_self=True)
            )
        }
        without = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        assert with_self - without == {start}

    def test_max_distance_threshold(self, flix, figure1_collection, oracle):
        start = figure1_collection.document_root("d01.xml")
        results = list(flix.query_stream(
            QueryRequest.descendants(start, max_distance=3)
        ))
        full = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        for result in results:
            assert result.distance <= 3
        # thresholded results are a subset of the unthresholded answer
        assert {r.node for r in results} <= full
        # a threshold beyond the diameter changes nothing
        wide = {
            r.node
            for r in flix.query_stream(
                QueryRequest.descendants(start, max_distance=10**6)
            )
        }
        assert wide == full

    def test_limit_stops_early(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        results = list(flix.query_stream(QueryRequest.descendants(start, limit=5)))
        assert len(results) == 5

    def test_unknown_start_raises(self, flix):
        with pytest.raises(KeyError):
            list(flix.query_stream(QueryRequest.descendants(10**9)))

    def test_meta_id_points_to_owning_meta_document(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        for result in flix.query_stream(QueryRequest.descendants(start)):
            assert result.node in flix.meta_documents[result.meta_id]


class TestAncestors:
    def test_matches_oracle(self, flix, figure1_collection, oracle):
        nodes = list(figure1_collection.node_ids())
        for node in nodes[:: max(1, len(nodes) // 15)]:
            got = {r.node for r in flix.query_stream(QueryRequest.ancestors(node))}
            expected = {
                u for u in nodes if oracle.reachable(u, node) and u != node
            }
            assert got == expected

    def test_ancestor_distances_are_upper_bounds(self, flix, figure1_collection, oracle):
        node = figure1_collection.document_nodes("d04.xml")[-1]
        for result in flix.query_stream(QueryRequest.ancestors(node)):
            assert result.distance >= oracle.distance(result.node, node)


class TestConnectionTest:
    def test_connected_pairs(self, flix, figure1_collection, oracle):
        nodes = list(figure1_collection.node_ids())
        checked = 0
        for u in nodes[::7]:
            for v in nodes[::11]:
                expected = oracle.distance(u, v)
                got = flix.query(QueryRequest.test(u, v)).value
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got >= expected
                checked += 1
        assert checked > 10

    def test_threshold_cuts_off(self, flix, figure1_collection, oracle):
        nodes = list(figure1_collection.node_ids())
        for u in nodes[::9]:
            for v in nodes[::15]:
                true = oracle.distance(u, v)
                got = flix.query(QueryRequest.test(u, v, max_distance=2)).value
                if got is not None:
                    assert got <= 2
                if true is not None and true > 8:
                    # approximate distances never undershoot, so a pair far
                    # beyond the threshold must be rejected
                    assert got is None

    def test_self_connection(self, flix, figure1_collection):
        node = figure1_collection.document_root("d01.xml")
        assert flix.query(QueryRequest.test(node, node)).value == 0


class TestTypeQuery:
    def test_a_slash_slash_b(self, flix, figure1_collection, oracle):
        got = {
            r.node
            for r in flix.query_stream(QueryRequest.type_query("doc", "note"))
        }
        expected = set()
        for seed in figure1_collection.nodes_with_tag("doc"):
            for v, _d in oracle.descendants(seed).items():
                if figure1_collection.tag(v) == "note":
                    expected.add(v)
        assert got == expected

    def test_results_unique(self, flix):
        results = list(flix.query_stream(QueryRequest.type_query("doc", "item")))
        assert len(results) == len({r.node for r in results})


class TestStats:
    def test_stats_recorded(self, flix, figure1_collection):
        start = figure1_collection.document_root("d05.xml")
        stats = flix.query(QueryRequest.descendants(start)).stats
        assert stats.meta_document_visits >= 1
        assert stats.results_returned >= 1
