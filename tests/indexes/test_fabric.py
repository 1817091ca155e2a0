"""Tests for the Index Fabric (trie over designated label paths)."""

import pytest

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.base import IndexNotApplicableError
from repro.indexes.fabric import FabricIndex
from repro.indexes.packed import packed_clone
from tests.conftest import cycle_graph, random_tags, random_tree


def build(graph, tags, max_keys=200000):
    return FabricIndex.build_bounded(graph, tags, max_keys)


def library_tree():
    #   0 lib -> 1 book -> 2 title
    #         -> 3 book -> 4 title, 5 author
    g = Digraph([(0, 1), (1, 2), (0, 3), (3, 4), (3, 5)])
    tags = {0: "lib", 1: "book", 2: "title", 3: "book", 4: "title", 5: "author"}
    return g, tags


class TestExactLookup:
    def test_designated_paths(self):
        g, tags = library_tree()
        index = build(g, tags)
        assert index.match_label_path(["lib"]) == {0}
        assert index.match_label_path(["lib", "book"]) == {1, 3}
        assert index.match_label_path(["lib", "book", "title"]) == {2, 4}
        assert index.match_label_path(["lib", "book", "author"]) == {5}

    def test_absent_and_partial_paths(self):
        g, tags = library_tree()
        index = build(g, tags)
        assert index.match_label_path(["book"]) == set()
        assert index.match_label_path(["lib", "title"]) == set()
        assert index.match_label_path([]) == set()

    def test_path_count(self):
        g, tags = library_tree()
        index = build(g, tags)
        # lib, lib/book, lib/book/title, lib/book/author
        assert index.path_count == 4
        assert index.trie_node_count >= 4

    def test_dag_gives_multiple_paths_per_node(self):
        g = Digraph([(0, 1), (0, 2), (1, 3), (2, 3)])
        tags = {0: "r", 1: "a", 2: "b", 3: "x"}
        index = build(g, tags)
        assert index.match_label_path(["r", "a", "x"]) == {3}
        assert index.match_label_path(["r", "b", "x"]) == {3}


class TestPrefixOperations:
    def test_paths_with_prefix(self):
        g, tags = library_tree()
        index = build(g, tags)
        paths = index.paths_with_prefix(["lib", "book"])
        assert ("lib", "book") in paths
        assert ("lib", "book", "title") in paths
        assert ("lib", "book", "author") in paths
        assert len(paths) == 3

    def test_subtree_elements(self):
        g, tags = library_tree()
        index = build(g, tags)
        assert index.subtree_elements(["lib", "book"]) == {1, 2, 3, 4, 5}
        assert index.subtree_elements(["lib", "book", "title"]) == {2, 4}

    def test_missing_prefix(self):
        g, tags = library_tree()
        index = build(g, tags)
        assert index.paths_with_prefix(["zzz"]) == []
        assert index.subtree_elements(["zzz"]) == set()


class TestGuards:
    def test_cycle_rejected(self):
        with pytest.raises(IndexNotApplicableError):
            build(cycle_graph(3), {i: "t" for i in range(3)})

    def test_key_budget_enforced(self):
        g, tags = library_tree()
        with pytest.raises(IndexNotApplicableError):
            build(g, tags, max_keys=2)

    def test_empty_graph(self):
        index = build(Digraph(), {})
        assert index.path_count == 0


class TestGenericOperations:
    def test_matches_oracle_on_trees(self):
        for seed in range(5):
            g = random_tree(seed, 20)
            tags = random_tags(seed, 20)
            index = build(g, tags)
            oracle = transitive_closure(g)
            for u in g:
                assert dict(index.find_descendants_by_tag(u, None)) == (
                    oracle.descendants(u)
                )

    def test_registered(self):
        from repro.indexes.registry import available_strategies

        assert "fabric" in available_strategies()

    def test_keys_persisted(self):
        """The blob keeps what the generic probes need — the label
        partition and the data edges — and answers like the trie's
        object form."""
        g, tags = library_tree()
        index = FabricIndex.build(g, tags)
        assert index.match_label_path(["lib", "book", "title"]) == {2, 4}
        packed = packed_clone(index)
        assert packed.strategy_name == "fabric"
        for node in g:
            assert packed.find_descendants_by_tag(
                node, "title"
            ) == index.find_descendants_by_tag(node, "title")
