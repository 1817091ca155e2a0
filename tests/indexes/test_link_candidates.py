"""Tests for the prepared residual-link fast path."""

from hypothesis import given

from repro.indexes.registry import build_index
from tests.conftest import random_tree, tree_params


class TestPpoFastPath:
    @given(tree_params)
    def test_prepared_equals_probed(self, params):
        seed, n = params
        graph = random_tree(seed, n)
        tags = {node: "t" for node in graph}
        index = build_index("ppo", graph, tags)
        candidates = frozenset(node for node in graph if node % 3 == 0)
        probed = {
            node: index.reachable_subset(node, candidates) for node in graph
        }
        index.prepare_link_candidates(candidates)
        for node in graph:
            assert index.reachable_subset(node, candidates) == probed[node]

    def test_foreign_candidate_set_falls_back(self):
        graph = random_tree(1, 20)
        index = build_index("ppo", graph, {n: "t" for n in graph})
        index.prepare_link_candidates(frozenset({1, 2}))
        # a *different* set must not be answered from the prepared one
        other = frozenset({3, 4, 5})
        result = index.reachable_subset(0, other)
        expected = [
            (c, index.distance(0, c)) for c in sorted(other)
            if index.distance(0, c) is not None
        ]
        assert sorted(result) == sorted(expected)

    def test_candidates_outside_index_ignored(self):
        graph = random_tree(2, 10)
        index = build_index("ppo", graph, {n: "t" for n in graph})
        index.prepare_link_candidates(frozenset({0, 999}))
        result = index.reachable_subset(0, frozenset({0, 999}))
        assert [r for r, _d in result] == [0]


class TestDefaultNoOp:
    def test_hopi_accepts_preparation(self):
        graph = random_tree(3, 15)
        index = build_index("hopi", graph, {n: "t" for n in graph})
        candidates = frozenset({1, 2, 3})
        before = index.reachable_subset(0, candidates)
        index.prepare_link_candidates(candidates)  # default: no-op
        assert index.reachable_subset(0, candidates) == before
