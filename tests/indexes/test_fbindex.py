"""Tests for the F&B index (forward + backward bisimulation)."""

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.kindex import ForwardBackwardIndex
from repro.indexes.registry import build_index
from tests.conftest import random_digraph, random_tags


def build_fb(graph, tags):
    return build_index("fbindex", graph, tags)


def build_1index(graph, tags):
    return build_index("kindex", graph, tags)


class TestForwardBackward:
    def test_forward_context_separates(self):
        # two x nodes with identical incoming paths but different children:
        # r -> x -> a   and   r -> x -> b
        g = Digraph([(0, 1), (1, 3), (0, 2), (2, 4)])
        tags = {0: "r", 1: "x", 2: "x", 3: "a", 4: "b"}
        one_index = build_1index(g, tags)
        fb = build_fb(g, tags)
        # backward bisimulation cannot tell the x's apart ...
        assert one_index.class_of(1) == one_index.class_of(2)
        # ... but F&B can (different outgoing structure)
        assert fb.class_of(1) != fb.class_of(2)

    def test_refines_the_1_index(self):
        for seed in range(6):
            g = random_digraph(seed, 25)
            tags = random_tags(seed, 25)
            fb = build_fb(g, tags)
            one_index = build_1index(g, tags)
            assert fb.class_count >= one_index.class_count
            # refinement property: F&B classes never merge 1-index splits
            for u in g:
                for v in g:
                    if fb.class_of(u) == fb.class_of(v):
                        assert one_index.class_of(u) == one_index.class_of(v)

    def test_symmetric_structures_stay_together(self):
        # two identical subtrees: their mirrors must share classes
        g = Digraph([(0, 1), (1, 2), (0, 3), (3, 4)])
        tags = {0: "r", 1: "x", 2: "leaf", 3: "x", 4: "leaf"}
        fb = build_fb(g, tags)
        assert fb.class_of(1) == fb.class_of(3)
        assert fb.class_of(2) == fb.class_of(4)

    def test_queries_exact(self):
        for seed in range(5):
            g = random_digraph(seed + 50, 20)
            tags = random_tags(seed + 50, 20)
            fb = build_fb(g, tags)
            oracle = transitive_closure(g)
            for u in g:
                assert dict(fb.find_descendants_by_tag(u, None)) == (
                    oracle.descendants(u)
                )

    def test_registered_strategy(self):
        from repro.indexes.registry import available_strategies, build_index

        assert "fbindex" in available_strategies()
        g = Digraph([(0, 1)])
        index = build_index("fbindex", g, {0: "a", 1: "b"})
        assert index.reachable(0, 1)

    def test_rounds_recorded(self):
        g = random_digraph(3, 15)
        fb = ForwardBackwardIndex.build(g, random_tags(3, 15))
        assert fb.rounds_performed >= 2  # at least one stable check each way
