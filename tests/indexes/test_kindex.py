"""Unit tests for the 1-index / A(k)-index family."""

import pytest

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.kindex import KBisimulationIndex
from repro.indexes.packed import packed_clone
from tests.conftest import random_digraph, random_tags


def build_k(graph, tags, k):
    return KBisimulationIndex.build_k(graph, tags, k)


def two_context_graph():
    """Two c-nodes with different incoming label paths: a/c vs b/c."""
    g = Digraph([(0, 2), (1, 3)])
    tags = {0: "a", 1: "b", 2: "c", 3: "c"}
    return g, tags


class TestAkIndex:
    def test_a0_is_label_partition(self):
        g, tags = two_context_graph()
        index = build_k(g, tags, 0)
        assert index.class_of(2) == index.class_of(3)
        assert index.rounds_performed == 0
        assert index.k == 0

    def test_a1_separates_different_parents(self):
        g, tags = two_context_graph()
        index = build_k(g, tags, 1)
        assert index.class_of(2) != index.class_of(3)

    def test_k_needed_for_deep_context(self):
        # chains a->x->y and b->x->y: only length-2 context separates the y's
        g = Digraph([(0, 2), (2, 4), (1, 3), (3, 5)])
        tags = {0: "a", 1: "b", 2: "x", 3: "x", 4: "y", 5: "y"}
        assert build_k(g, tags, 1).class_of(4) == build_k(g, tags, 1).class_of(5)
        assert build_k(g, tags, 2).class_of(4) != build_k(g, tags, 2).class_of(5)

    def test_negative_k_rejected(self):
        g, tags = two_context_graph()
        with pytest.raises(ValueError):
            build_k(g, tags, -1)


class TestOneIndex:
    def test_default_build_is_fixpoint(self):
        g, tags = two_context_graph()
        index = KBisimulationIndex.build(g, tags)
        assert index.k is None
        assert index.class_of(2) != index.class_of(3)

    def test_fixpoint_reached_and_stable(self):
        g = random_digraph(3, 25)
        tags = random_tags(3, 25)
        fix = KBisimulationIndex.build(g, tags)
        more = build_k(g, tags, fix.rounds_performed + 5)
        assert fix.class_count == more.class_count

    def test_refinement_monotone_in_k(self):
        g = random_digraph(11, 30)
        tags = random_tags(11, 30)
        counts = [build_k(g, tags, k).class_count for k in range(4)]
        assert counts == sorted(counts)

    def test_bisimilar_nodes_share_incoming_label_paths(self):
        """1-index classes are precise for incoming label paths on trees."""
        g = Digraph([(0, 1), (0, 2), (1, 3), (2, 4)])
        tags = {0: "r", 1: "a", 2: "a", 3: "x", 4: "x"}
        index = KBisimulationIndex.build(g, tags)
        # both x nodes have incoming path r/a/x -> same class
        assert index.class_of(3) == index.class_of(4)
        assert index.class_of(1) == index.class_of(2)


class TestQueriesMatchOracle:
    def test_all_k_values_answer_exactly(self):
        for seed in range(5):
            g = random_digraph(seed, 20)
            tags = random_tags(seed, 20)
            closure = transitive_closure(g)
            for k in (0, 1, None):
                index = build_k(g, tags, k)
                for u in g:
                    assert dict(index.find_descendants_by_tag(u, None)) == (
                        closure.descendants(u)
                    )

    def test_persistence_tables(self):
        """The blob persists the class partition: one class per node,
        the extents grouped by class."""
        g, tags = two_context_graph()
        index = KBisimulationIndex.build(g, tags)
        blob = packed_clone(index).blob
        assert blob.strategy == "kindex"
        assert blob.meta["classes"] == index.class_count
        assert len(blob.column("class_pos")) == g.node_count
        assert sorted(blob.column("extent_nodes")) == sorted(g)
