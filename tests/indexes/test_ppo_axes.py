"""Tests for PPO's remaining XPath axes (section 2.2: all axes from the
pre/post numbers)."""

from hypothesis import given

from repro.graph.digraph import Digraph
from repro.indexes.ppo import PpoIndex
from tests.conftest import random_tree, tree_params


def build(graph):
    return PpoIndex.build(graph, {n: "t" for n in graph})


def sample_tree():
    """        0
            /  |  \\
           1   4   6
          / \\      |
         2   3      7
    (node 5 is a second child of 4)        """
    g = Digraph([(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (0, 6), (6, 7)])
    return g


class TestChildren:
    def test_document_order(self):
        index = build(sample_tree())
        assert index.children(0) == [1, 4, 6]
        assert index.children(1) == [2, 3]
        assert index.children(2) == []

    def test_consistent_with_parent(self):
        g = random_tree(5, 40)
        index = build(g)
        for node in g:
            for child in index.children(node):
                assert index.parent(child) == node

    @given(tree_params)
    def test_children_match_graph_successors(self, params):
        seed, n = params
        g = random_tree(seed, n)
        index = build(g)
        for node in g:
            assert set(index.children(node)) == set(g.successors(node))


class TestFollowingPreceding:
    def test_following_excludes_subtree_and_ancestors(self):
        index = build(sample_tree())
        assert index.following(1) == [4, 5, 6, 7]
        assert index.following(5) == [6, 7]
        assert index.following(7) == []

    def test_preceding_excludes_ancestors(self):
        index = build(sample_tree())
        assert index.preceding(6) == [1, 2, 3, 4, 5]
        assert index.preceding(4) == [1, 2, 3]
        assert index.preceding(2) == []  # 0 and 1 are ancestors

    def test_axes_partition_the_tree(self):
        """self + ancestors + descendants + following + preceding = tree."""
        g = random_tree(9, 30)
        index = build(g)
        for node in g:
            ancestors = {n for n, _ in index.find_ancestors_by_tag(node, None)}
            descendants = {n for n, _ in index.find_descendants_by_tag(node, None)}
            following = set(index.following(node))
            preceding = set(index.preceding(node))
            pieces = [ancestors, descendants, following, preceding]
            union = set().union(*pieces)
            assert union == set(g.nodes())
            # descendants/ancestors overlap only at the node itself
            assert ancestors & descendants == {node}
            assert not following & preceding
            assert not (following | preceding) & (ancestors | descendants)

    def test_forest_axes_stay_within_tree(self):
        g = Digraph([(0, 1), (2, 3)])
        index = build(g)
        assert index.following(1) == []
        assert index.preceding(3) == []
        assert index.following(0) == []


class TestSiblings:
    def test_following_siblings(self):
        index = build(sample_tree())
        assert index.following_siblings(1) == [4, 6]
        assert index.following_siblings(4) == [6]
        assert index.following_siblings(6) == []

    def test_preceding_siblings(self):
        index = build(sample_tree())
        assert index.preceding_siblings(6) == [1, 4]
        assert index.preceding_siblings(1) == []

    def test_root_has_no_siblings(self):
        index = build(sample_tree())
        assert index.following_siblings(0) == []
        assert index.preceding_siblings(0) == []

    @given(tree_params)
    def test_siblings_share_parent(self, params):
        seed, n = params
        g = random_tree(seed, n)
        index = build(g)
        for node in g:
            for sibling in index.following_siblings(node):
                assert index.parent(sibling) == index.parent(node)
