"""Cross-index property test: every strategy answers like the oracle.

This is the suite's strongest guarantee: the packed index of every
registered strategy — built through ``build_index``, the form a ``Flix``
serves — and HOPI's divide-and-conquer build produce exactly the
reachability, the distances and the tag-filtered descendant and ancestor
lists (in ``(distance, node)`` order) of the BFS oracle
(``repro.graph.closure``) on random inputs: cyclic multi-parent graphs
for the strategies that take them, random trees for all of them.

It also holds the premise ``index_fingerprint`` rests on since the blob
became the only copy of an index: equal builds pack to equal blobs.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro.graph.closure import transitive_closure
from repro.indexes.base import sort_scored
from repro.indexes.hopi import HopiIndex
from repro.indexes.packed import PackedBlob, attach_packed_blob, pack_index
from repro.indexes.registry import available_strategies, build_index, pack_built
from tests.conftest import (
    graph_params,
    random_digraph,
    random_tags,
    random_tree,
    tree_params,
)

#: every strategy, and whether it is exercised on trees only (it needs,
#: or is bounded on, one)
ON_TREES = {
    "ppo": True,
    "hopi": False,
    "apex": False,
    "kindex": False,
    "fbindex": False,
    "dataguide": True,
    "fabric": True,
    "transitive_closure": False,
}
GRAPH_STRATEGIES = sorted(name for name, tree in ON_TREES.items() if not tree)


def assert_agrees_with_oracle(index, graph, tags):
    """Every probe of ``index`` over ``graph``, and over one foreign node
    id, against the BFS oracle."""
    closure = transitive_closure(graph)
    foreign = max(graph) + 1
    for u in list(graph) + [foreign]:
        descendants = closure.descendants(u)
        ancestors = {
            v: closure.distance(v, u) for v in graph if closure.reachable(v, u)
        }
        for tag in (None, "a", "b", "zz"):
            assert index.find_descendants_by_tag(u, tag) == sort_scored(
                (v, d) for v, d in descendants.items()
                if tag is None or tags[v] == tag
            ), (index.strategy_name, u, tag)
            assert index.find_ancestors_by_tag(u, tag) == sort_scored(
                (v, d) for v, d in ancestors.items()
                if tag is None or tags[v] == tag
            ), (index.strategy_name, u, tag)
        for v in list(graph) + [foreign]:
            assert index.distance(u, v) == closure.distance(u, v)
            assert index.reachable(u, v) == closure.reachable(u, v)


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_all_graph_indexes_agree_with_oracle(params):
    seed, n = params
    graph = random_digraph(seed, n)  # cycles and multi-parent nodes
    tags = random_tags(seed, n)
    indexes = [build_index(name, graph, tags) for name in GRAPH_STRATEGIES]
    indexes.append(
        pack_built(
            HopiIndex.build_divide_and_conquer(
                graph, tags, partition_size=max(2, n // 3)
            )
        )
    )
    for index in indexes:
        assert_agrees_with_oracle(index, graph, tags)


@given(tree_params)
@settings(max_examples=25, deadline=None)
def test_tree_indexes_agree_with_oracle(params):
    seed, n = params
    graph = random_tree(seed, n)
    tags = random_tags(seed, n)
    for name in sorted(ON_TREES):
        assert_agrees_with_oracle(build_index(name, graph, tags), graph, tags)


@given(graph_params)
@settings(max_examples=15, deadline=None)
def test_ancestor_descendant_duality(params):
    """v in descendants(u) iff u in ancestors(v), with equal distances."""
    seed, n = params
    graph = random_digraph(seed, n)
    tags = random_tags(seed, n)
    for name in GRAPH_STRATEGIES:
        index = build_index(name, graph, tags)
        for u in graph:
            for v, d in index.find_descendants_by_tag(u, None):
                ancestors = dict(index.find_ancestors_by_tag(v, None))
                assert ancestors[u] == d


def test_every_packable_strategy_has_a_case():
    assert set(ON_TREES) == set(available_strategies())


@pytest.mark.parametrize("strategy", sorted(ON_TREES))
@given(graph_params)
@settings(max_examples=15, deadline=None)
def test_equal_builds_pack_to_equal_blobs(strategy, params):
    """Two builds of the same graph pack to the same bytes, and the blob
    attached from those bytes hands them back unchanged — so a packed
    index's blob hash identifies its content whichever way the index
    came to be (fresh build, worker process, repair, or a save).  A
    packed index pickles as its blob's bytes, which is how a build
    worker process hands it back."""
    seed, n = params
    graph = random_tree(seed, n) if ON_TREES[strategy] else random_digraph(seed, n)
    tags = random_tags(seed, n)
    built = build_index(strategy, graph, tags)
    blob = bytes(pack_index(built))
    assert blob == bytes(pack_index(build_index(strategy, graph, tags)))
    attached = attach_packed_blob(PackedBlob.from_bytes(blob))
    assert attached.strategy_name == strategy
    assert bytes(pack_index(attached)) == blob
    shipped = pickle.loads(pickle.dumps(built))
    assert type(shipped) is type(built)
    assert shipped.strategy_name == strategy
    assert built.fingerprint() == attached.fingerprint() == shipped.fingerprint()
