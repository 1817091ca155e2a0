"""Unit tests for the strong DataGuide."""

import pytest

from repro.graph.digraph import Digraph
from repro.indexes.base import IndexNotApplicableError
from repro.indexes.dataguide import DataGuideIndex
from repro.indexes.registry import pack_built
from tests.conftest import random_tags, random_tree


def build(graph, tags, max_states=20000):
    return DataGuideIndex.build_bounded(graph, tags, max_states)


def sample_tree():
    #   0(doc) -> 1(sec) -> 3(p)
    #   0(doc) -> 2(sec) -> 4(p), 2 -> 5(fig)
    g = Digraph([(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)])
    tags = {0: "doc", 1: "sec", 2: "sec", 3: "p", 4: "p", 5: "fig"}
    return g, tags


class TestTargetSets:
    def test_label_path_lookup(self):
        g, tags = sample_tree()
        index = build(g, tags)
        assert index.match_label_path(["doc"]) == {0}
        assert index.match_label_path(["doc", "sec"]) == {1, 2}
        assert index.match_label_path(["doc", "sec", "p"]) == {3, 4}
        assert index.match_label_path(["doc", "sec", "fig"]) == {5}

    def test_absent_path_empty(self):
        g, tags = sample_tree()
        index = build(g, tags)
        assert index.match_label_path(["sec"]) == set()
        assert index.match_label_path(["doc", "fig"]) == set()
        assert index.match_label_path([]) == set()

    def test_each_label_path_has_one_state(self):
        """The defining DataGuide property: equal paths share a state."""
        g, tags = sample_tree()
        index = build(g, tags)
        # states: initial, {0}, {1,2}, {3,4}, {5}
        assert index.state_count == 5

    def test_label_paths_enumeration(self):
        g, tags = sample_tree()
        index = build(g, tags)
        paths = index.label_paths(2)
        assert ("doc",) in paths
        assert ("doc", "sec") in paths
        assert ("doc", "sec", "p") not in paths  # beyond max_length

    def test_multiple_documents_share_guide(self):
        g = Digraph([(0, 1), (2, 3)])
        tags = {0: "doc", 1: "p", 2: "doc", 3: "p"}
        index = build(g, tags)
        assert index.match_label_path(["doc"]) == {0, 2}
        assert index.match_label_path(["doc", "p"]) == {1, 3}


class TestStateBudget:
    def test_budget_exceeded_raises(self):
        g, tags = sample_tree()
        with pytest.raises(IndexNotApplicableError):
            build(g, tags, max_states=2)

    def test_graph_with_cycle_terminates(self):
        g = Digraph([(0, 1), (1, 0)])
        # node 0 has in-degree 1, so no roots exist; the guide is empty but
        # construction must not loop forever.
        index = build(g, {0: "a", 1: "b"})
        assert index.match_label_path(["a"]) == set()

    def test_dag_with_sharing(self):
        # two paths to the same node: doc/a/x and doc/b/x
        g = Digraph([(0, 1), (0, 2), (1, 3), (2, 3)])
        tags = {0: "doc", 1: "a", 2: "b", 3: "x"}
        index = build(g, tags)
        assert index.match_label_path(["doc", "a", "x"]) == {3}
        assert index.match_label_path(["doc", "b", "x"]) == {3}


class TestInheritedQueries:
    def test_descendants_on_random_trees(self):
        from repro.graph.closure import transitive_closure

        for seed in range(5):
            g = random_tree(seed, 20)
            tags = random_tags(seed, 20)
            index = pack_built(build(g, tags))
            closure = transitive_closure(g)
            for u in g:
                assert dict(index.find_descendants_by_tag(u, None)) == (
                    closure.descendants(u)
                )

    def test_persistence_tables(self):
        """A DataGuide packs like the rest of the summary family."""
        from repro.graph.closure import transitive_closure

        g, tags = sample_tree()
        packed = pack_built(DataGuideIndex.build(g, tags))
        assert packed.blob.strategy == "dataguide"
        oracle = transitive_closure(g)
        for node in g:
            assert dict(packed.find_descendants_by_tag(node, None)) == (
                oracle.descendants(node)
            )
