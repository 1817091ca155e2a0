"""Unit tests for the APEX index."""

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.apex import ApexIndex
from repro.indexes.packed import packed_clone
from tests.conftest import random_digraph, random_tags


def build(graph, tags, workload=()):
    return ApexIndex.build_adaptive(graph, tags, workload)


def simple_graph():
    #   0(a) -> 1(b) -> 3(c)
    #   0(a) -> 2(b) -> 4(c),  2 -> 5(d)
    g = Digraph([(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)])
    tags = {0: "a", 1: "b", 2: "b", 3: "c", 4: "c", 5: "d"}
    return g, tags


class TestApexZero:
    def test_base_partition_is_by_tag(self):
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.class_of(1) == index.class_of(2)
        assert index.class_of(3) == index.class_of(4)
        assert index.class_of(0) != index.class_of(1)
        assert index.class_count == 4

    def test_reachability_and_distance(self):
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.distance(0, 4) == 2
        assert index.distance(1, 4) is None
        assert index.reachable(2, 5)

    def test_summary_refutes_without_data_access(self):
        """c-tagged nodes reach nothing with tag a: answered from the summary."""
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.distance(3, 0) is None

    def test_descendants_with_tag(self):
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.find_descendants_by_tag(0, "c") == [(3, 2), (4, 2)]
        assert index.find_descendants_by_tag(0, "zzz") == []

    def test_ancestors(self):
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.find_ancestors_by_tag(4, None) == [(4, 0), (2, 1), (0, 2)]

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(8):
            g = random_digraph(seed, 22)
            tags = random_tags(seed, 22)
            index = build(g, tags)
            closure = transitive_closure(g)
            for u in g:
                assert dict(index.find_descendants_by_tag(u, None)) == (
                    closure.descendants(u)
                )


class TestWorkloadRefinement:
    def test_refined_path_gets_exact_class(self):
        g, tags = simple_graph()
        refined = build(g, tags, workload=[("a", "b", "c")])
        base = build(g, tags)
        assert refined.class_count >= base.class_count
        # both c nodes are on the a/b/c path here, so they stay together
        assert refined.class_of(3) == refined.class_of(4)

    def test_refinement_splits_off_path_nodes(self):
        #  0(a) -> 1(b) -> 2(c);  3(x) -> 4(c)  — only node 2 is on a/b/c
        g = Digraph([(0, 1), (1, 2), (3, 4)])
        tags = {0: "a", 1: "b", 2: "c", 3: "x", 4: "c"}
        refined = build(g, tags, workload=[("a", "b", "c")])
        assert refined.class_of(2) != refined.class_of(4)

    def test_refinement_preserves_query_answers(self):
        for seed in range(5):
            g = random_digraph(seed, 18)
            tags = random_tags(seed, 18)
            plain = build(g, tags)
            refined = build(g, tags, workload=[("a", "b"), ("b", "c", "d")])
            for u in g:
                assert plain.find_descendants_by_tag(u, "c") == (
                    refined.find_descendants_by_tag(u, "c")
                )

    def test_frequent_paths_recorded(self):
        g, tags = simple_graph()
        index = build(g, tags, workload=[("a", "b")])
        assert index.frequent_paths == [("a", "b")]


class TestLabelPathMatch:
    def test_exact_root_path(self):
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.match_label_path(["a"]) == {0}
        assert index.match_label_path(["a", "b"]) == {1, 2}
        assert index.match_label_path(["a", "b", "c"]) == {3, 4}

    def test_missing_path(self):
        g, tags = simple_graph()
        index = build(g, tags)
        assert index.match_label_path(["a", "c"]) == set()
        assert index.match_label_path([]) == set()


class TestPersistence:
    def test_tables_created(self):
        """The blob holds the extents, the structure graph and the data
        edges (the three tables of a row-store APEX)."""
        g, tags = simple_graph()
        blob = packed_clone(ApexIndex.build(g, tags)).blob
        assert blob.strategy == "apex"
        assert len(blob.column("extent_nodes")) == 6
        assert len(blob.column("succ_pos")) == 5
        assert len(blob.column("struct_src")) > 0
