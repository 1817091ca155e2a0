"""Tests for multi-step path evaluation (Flix.find_path)."""

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.graph.traversal import bfs_distances


@pytest.fixture(scope="module")
def flix(dblp_collection):
    return Flix.build(dblp_collection, FlixConfig.maximal_ppo())


class TestFindPath:
    def test_single_step_equals_find_descendants(self, flix, dblp_collection):
        from repro.datasets.dblp import find_aries

        aries = find_aries(dblp_collection)
        via_path = flix.query(QueryRequest.find_path(aries, ["article"])).results
        direct = {
            r.node: r.distance
            for r in flix.query_stream(QueryRequest.descendants(aries, tag="article"))
        }
        assert dict(via_path) == direct

    def test_two_step_path(self, flix, dblp_collection):
        from repro.datasets.dblp import find_aries

        aries = find_aries(dblp_collection)
        # aries//article//author: authors of transitively cited articles
        results = flix.query(
            QueryRequest.find_path(aries, ["article", "author"])
        ).results
        assert results
        for node, _distance in results:
            assert dblp_collection.tag(node) == "author"
        # set equality against BFS ground truth
        reachable = bfs_distances(dblp_collection.graph, aries)
        articles = [
            n for n in reachable
            if dblp_collection.tag(n) == "article" and n != aries
        ]
        expected = set()
        for article in articles:
            for n in bfs_distances(dblp_collection.graph, article):
                if dblp_collection.tag(n) == "author":
                    expected.add(n)
        assert {node for node, _ in results} == expected

    def test_results_sorted_by_distance(self, flix, dblp_collection):
        from repro.datasets.dblp import find_aries

        aries = find_aries(dblp_collection)
        results = flix.query(
            QueryRequest.find_path(aries, ["inproceedings", "cite"])
        ).results
        distances = [d for _n, d in results]
        assert distances == sorted(distances)

    def test_dead_end_returns_empty(self, flix, dblp_collection):
        from repro.datasets.dblp import find_aries

        aries = find_aries(dblp_collection)
        assert flix.query(
            QueryRequest.find_path(aries, ["article", "nosuchtag"])
        ).results == []
        assert flix.query(
            QueryRequest.find_path(aries, ["nosuchtag", "article"])
        ).results == []

    def test_empty_tags_rejected(self, flix, dblp_collection):
        from repro.datasets.dblp import find_aries

        with pytest.raises(ValueError):
            flix.query(QueryRequest.find_path(find_aries(dblp_collection), [])).results

    def test_distances_accumulate(self, flix, dblp_collection):
        from repro.datasets.dblp import find_aries

        aries = find_aries(dblp_collection)
        one_step = dict(flix.query(QueryRequest.find_path(aries, ["article"])).results)
        two_step = dict(flix.query(
            QueryRequest.find_path(aries, ["article", "title"])
        ).results)
        for node, distance in two_step.items():
            # every final title is at least one hop beyond some article
            assert distance >= min(one_step.values()) + 1
