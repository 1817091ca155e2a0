"""Unit and property tests for the pre/postorder index (its packed form)."""

import pytest
from hypothesis import given

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.base import IndexNotApplicableError
from repro.indexes.registry import build_index
from tests.conftest import (
    chain_graph,
    cycle_graph,
    random_tags,
    random_tree,
    tree_params,
)


def build(graph, tags=None):
    tags = tags or {n: "t" for n in graph}
    return build_index("ppo", graph, tags)


class TestApplicability:
    def test_diamond_rejected(self):
        g = Digraph([(0, 1), (0, 2), (1, 3), (2, 3)])
        with pytest.raises(IndexNotApplicableError):
            build(g)

    def test_cycle_rejected(self):
        with pytest.raises(IndexNotApplicableError):
            build(cycle_graph(3))

    def test_forest_accepted(self):
        g = Digraph([(0, 1), (2, 3)])
        index = build(g)
        assert index.node_count == 4


class TestReachability:
    def test_chain(self):
        index = build(chain_graph(4))
        assert index.reachable(0, 4)
        assert index.reachable(2, 2)
        assert not index.reachable(3, 1)

    def test_siblings_not_reachable(self):
        g = Digraph([(0, 1), (0, 2)])
        index = build(g)
        assert not index.reachable(1, 2)
        assert not index.reachable(2, 1)

    def test_across_trees_not_reachable(self):
        g = Digraph([(0, 1), (2, 3)])
        index = build(g)
        assert not index.reachable(0, 3)
        assert not index.reachable(2, 1)

    def test_unknown_node(self):
        index = build(chain_graph(1))
        assert not index.reachable(0, 99)
        assert index.distance(0, 99) is None


class TestDistancesAndOrdering:
    def test_distance_is_depth_difference(self):
        index = build(chain_graph(5))
        assert index.distance(1, 4) == 3
        assert index.distance(4, 4) == 0

    def test_descendants_sorted_by_distance(self):
        g = random_tree(3, 30)
        index = build(g)
        results = index.find_descendants_by_tag(0, None)
        distances = [d for _n, d in results]
        assert distances == sorted(distances)
        assert len(results) == 30

    def test_descendants_by_tag_filters(self):
        g = chain_graph(3)
        tags = {0: "a", 1: "b", 2: "a", 3: "b"}
        index = build(g, tags)
        assert index.find_descendants_by_tag(0, "b") == [(1, 1), (3, 3)]

    def test_ancestors_walk(self):
        index = build(chain_graph(4))
        assert index.find_ancestors_by_tag(3, None) == [
            (3, 0), (2, 1), (1, 2), (0, 3),
        ]

    def test_ancestors_by_tag(self):
        g = chain_graph(3)
        tags = {0: "a", 1: "b", 2: "a", 3: "b"}
        index = build(g, tags)
        assert index.find_ancestors_by_tag(3, "a") == [(2, 1), (0, 3)]

    def test_reachable_subset(self):
        index = build(chain_graph(5))
        assert index.reachable_subset(1, [5, 3, 0]) == [(3, 2), (5, 4)]


class TestNumbering:
    def test_pre_and_post_orders(self):
        g = Digraph([(0, 1), (0, 2), (1, 3)])
        index = build(g)
        assert index.preorder(0) == 0
        # descendants-or-self interval covers the whole tree
        assert index.postorder(0) == 3
        assert index.depth(3) == 2

    def test_paper_reachability_condition(self):
        """pre(x) < pre(y) and post(x) > post(y) iff descendant (proper)."""
        g = random_tree(7, 25)
        index = build(g)
        closure = transitive_closure(g)
        for x in g:
            for y in g:
                if x == y:
                    continue
                paper_test = (
                    index.preorder(x) < index.preorder(y)
                    and index.postorder(x) >= index.postorder(y)
                )
                assert paper_test == closure.reachable(x, y)


class TestProperties:
    @given(tree_params)
    def test_matches_oracle_on_random_trees(self, params):
        seed, n = params
        g = random_tree(seed, n)
        tags = random_tags(seed, n)
        index = build(g, tags)
        closure = transitive_closure(g)
        for u in g:
            assert dict(index.find_descendants_by_tag(u, None)) == closure.descendants(u)
            for tag in "abcd":
                expected = {
                    v: d
                    for v, d in closure.descendants(u).items()
                    if tags[v] == tag
                }
                assert dict(index.find_descendants_by_tag(u, tag)) == expected

    @given(tree_params)
    def test_interval_invariants(self, params):
        """Intervals nest or are disjoint; size equals subtree size."""
        seed, n = params
        g = random_tree(seed, n)
        index = build(g)
        intervals = {
            node: (index.preorder(node), index.postorder(node)) for node in g
        }
        for u in g:
            lo_u, hi_u = intervals[u]
            assert hi_u - lo_u + 1 == sum(
                1 for v in g if lo_u <= intervals[v][0] <= hi_u
            )
            for v in g:
                if u == v:
                    continue
                lo_v, hi_v = intervals[v]
                nested = (lo_u <= lo_v and hi_v <= hi_u) or (
                    lo_v <= lo_u and hi_u <= hi_v
                )
                disjoint = hi_u < lo_v or hi_v < lo_u
                assert nested or disjoint


class TestPersistence:
    def test_rows_persisted_per_node(self):
        g = random_tree(1, 12)
        blob = build(g).blob
        assert len(blob.column("node_at_pre")) == 12

    def test_size_linear_in_nodes(self):
        sizes = [
            build(random_tree(1, n)).size_bytes()
            for n in (10, 100, 1000)
        ]
        # six int64 columns hold one value per node; the rest is fixed
        assert (sizes[1] - sizes[0]) / 90 == (sizes[2] - sizes[1]) / 900 == 48
