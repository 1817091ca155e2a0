"""Unit and property tests for the HOPI 2-hop index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.hopi import HopiIndex
from repro.indexes.registry import build_index, pack_built
from tests.conftest import (
    chain_graph,
    cycle_graph,
    diamond_graph,
    graph_params,
    random_digraph,
    random_tags,
)


def build(graph, tags=None):
    tags = tags or {n: "t" for n in graph}
    return build_index("hopi", graph, tags)


class TestBasics:
    def test_self_reachability(self):
        index = build(diamond_graph())
        for node in range(4):
            assert index.reachable(node, node)
            assert index.distance(node, node) == 0

    def test_diamond(self):
        index = build(diamond_graph())
        assert index.distance(0, 3) == 2
        assert index.distance(1, 2) is None

    def test_cycle_distances(self):
        index = build(cycle_graph(4))
        assert index.distance(0, 3) == 3
        assert index.distance(3, 0) == 1

    def test_unknown_nodes(self):
        index = build(chain_graph(1))
        assert not index.reachable(0, 42)
        assert index.distance(42, 0) is None
        assert index.find_descendants_by_tag(42, None) == []

    def test_descendants_sorted(self):
        g = random_digraph(5, 25)
        index = build(g)
        for u in g:
            distances = [d for _n, d in index.find_descendants_by_tag(u, None)]
            assert distances == sorted(distances)

    def test_two_hop_cover_property(self):
        """Reachability is decided purely by label intersection."""
        g = random_digraph(9, 20)
        index = HopiIndex.build(g, {n: "t" for n in g})
        closure = transitive_closure(g)
        for u in g:
            for v in g:
                shared = set(index._out[u]) & set(index._in[v])
                assert bool(shared) == closure.reachable(u, v)

    def test_label_size_much_smaller_than_closure(self):
        """Where many paths share hub nodes, 2-hop crushes the closure.

        40 sources -> 3 hubs -> 40 sinks: the closure has ~1600 pairs, the
        cover needs only a label entry per (node, hub).
        """
        g = Digraph()
        hubs = [100, 101, 102]
        for s in range(40):
            for h in hubs:
                g.add_edge(s, h)
        for h in hubs:
            for t in range(200, 240):
                g.add_edge(h, t)
        index = build(g)
        closure_pairs = transitive_closure(g).pair_count
        assert index.label_entry_count < closure_pairs / 4

    def test_chain_labels_bounded_by_closure(self):
        """Directed chains defeat degree-ordered pruning (no earlier
        landmark lies on any path), but labels never exceed the closure."""
        g = chain_graph(100)
        index = build(g)
        assert index.label_entry_count <= transitive_closure(g).pair_count + 101


class TestAgainstOracle:
    @given(graph_params)
    @settings(max_examples=60, deadline=None)
    def test_distances_exact(self, params):
        seed, n = params
        g = random_digraph(seed, n)
        index = build(g)
        closure = transitive_closure(g)
        for u in g:
            for v in g:
                assert index.distance(u, v) == closure.distance(u, v)

    @given(graph_params)
    @settings(max_examples=40, deadline=None)
    def test_enumeration_exact(self, params):
        seed, n = params
        g = random_digraph(seed, n)
        tags = random_tags(seed, n)
        index = build(g, tags)
        closure = transitive_closure(g)
        for u in g:
            assert dict(index.find_descendants_by_tag(u, None)) == closure.descendants(u)
            ancestors = {
                v: closure.distance(v, u)
                for v in g
                if closure.reachable(v, u)
            }
            assert dict(index.find_ancestors_by_tag(u, None)) == ancestors
            for tag in "ab":
                expected = {
                    v: d for v, d in closure.descendants(u).items() if tags[v] == tag
                }
                assert dict(index.find_descendants_by_tag(u, tag)) == expected


class TestDivideAndConquer:
    @given(graph_params, st.integers(min_value=1, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_equivalent_to_centralized(self, params, partition_size):
        seed, n = params
        g = random_digraph(seed, n)
        tags = random_tags(seed, n)
        dnc = pack_built(
            HopiIndex.build_divide_and_conquer(
                g, tags, partition_size
            )
        )
        closure = transitive_closure(g)
        for u in g:
            assert dict(dnc.find_descendants_by_tag(u, None)) == closure.descendants(u)
            for v in g:
                assert dnc.distance(u, v) == closure.distance(u, v)

    def test_single_partition_degenerates_to_centralized_semantics(self):
        g = diamond_graph()
        dnc = pack_built(
            HopiIndex.build_divide_and_conquer(
                g, {n: "t" for n in g}, partition_size=100
            )
        )
        assert dnc.distance(0, 3) == 2

    def test_cross_partition_cycle(self):
        """A cycle sliced across partitions still answers exactly."""
        g = cycle_graph(9)
        dnc = pack_built(
            HopiIndex.build_divide_and_conquer(
                g, {n: "t" for n in g}, partition_size=3
            )
        )
        for u in range(9):
            for v in range(9):
                assert dnc.distance(u, v) == (v - u) % 9


class TestPersistence:
    def test_labels_persisted(self):
        g = diamond_graph()
        built = HopiIndex.build(g, {n: "t" for n in g})
        packed = pack_built(built)
        stored = len(packed.blob.column("in_hubs")) + len(
            packed.blob.column("out_hubs")
        )
        labels = sum(len(label) for label in built._in.values()) + sum(
            len(label) for label in built._out.values()
        )
        assert stored == labels == packed.label_entry_count
        assert packed.size_bytes() > 0
