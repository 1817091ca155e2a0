"""Cross-index property test: every strategy answers like the oracle.

This is the suite's strongest guarantee: PPO (on forests), HOPI (both
builders), APEX, the 1-index, the A(1)-index, the DataGuide, and the
materialized closure all produce identical reachability, distances, and
tag-filtered descendant sets on random inputs — and so does the FLXPACK
twin of every strategy (the representation a ``Flix`` actually serves),
held against the oracle directly rather than only against its object
form.

It also holds the premise ``index_fingerprint`` rests on since the blob
became the only copy of an index: equal builds pack to equal blobs.
"""

import pytest
from hypothesis import given, settings

from repro.graph.closure import transitive_closure
from repro.indexes.apex import ApexIndex
from repro.indexes.dataguide import DataGuideIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.kindex import KBisimulationIndex
from repro.indexes.packed import (
    PACKABLE_STRATEGIES,
    PackedBlob,
    attach_packed_blob,
    pack_index,
    packed_clone,
)
from repro.indexes.ppo import PpoIndex
from repro.indexes.registry import build_index
from repro.indexes.transitive import TransitiveClosureIndex
from tests.conftest import (
    graph_params,
    random_digraph,
    random_tags,
    random_tree,
    tree_params,
)

GRAPH_STRATEGIES = (
    HopiIndex,
    ApexIndex,
    KBisimulationIndex,
    TransitiveClosureIndex,
)


def with_packed_twins(indexes):
    """``indexes`` plus the packed twin of each one."""
    return indexes + [packed_clone(index) for index in indexes]


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_all_graph_indexes_agree_with_oracle(params):
    seed, n = params
    graph = random_digraph(seed, n)
    tags = random_tags(seed, n)
    closure = transitive_closure(graph)
    indexes = [cls.build(graph, tags) for cls in GRAPH_STRATEGIES]
    indexes.append(
        HopiIndex.build_divide_and_conquer(
            graph, tags, partition_size=max(2, n // 3)
        )
    )
    indexes = with_packed_twins(indexes)
    assert len(indexes) == 10
    for u in graph:
        expected = closure.descendants(u)
        for index in indexes:
            assert dict(index.find_descendants_by_tag(u, None)) == expected, (
                type(index).__name__
            )


@given(tree_params)
@settings(max_examples=25, deadline=None)
def test_tree_indexes_agree_with_oracle(params):
    seed, n = params
    graph = random_tree(seed, n)
    tags = random_tags(seed, n)
    closure = transitive_closure(graph)
    indexes = [
        PpoIndex.build(graph, tags),
        DataGuideIndex.build(graph, tags),
        HopiIndex.build(graph, tags),
    ]
    indexes = with_packed_twins(indexes)
    assert len(indexes) == 6
    for u in graph:
        expected = closure.descendants(u)
        for index in indexes:
            assert dict(index.find_descendants_by_tag(u, None)) == expected
        for tag in "ab":
            tag_expected = [
                (v, d)
                for v, d in sorted(expected.items(), key=lambda p: (p[1], p[0]))
                if tags[v] == tag
            ]
            for index in indexes:
                assert index.find_descendants_by_tag(u, tag) == tag_expected


@given(graph_params)
@settings(max_examples=15, deadline=None)
def test_ancestor_descendant_duality(params):
    """v in descendants(u) iff u in ancestors(v), with equal distances."""
    seed, n = params
    graph = random_digraph(seed, n)
    tags = random_tags(seed, n)
    hopi = HopiIndex.build(graph, tags)
    for index in with_packed_twins([hopi]):
        for u in graph:
            for v, d in index.find_descendants_by_tag(u, None):
                ancestors = dict(index.find_ancestors_by_tag(v, None))
                assert ancestors[u] == d


#: every packable strategy, and whether it is exercised on trees (it
#: needs, or is bounded on, one)
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


def test_every_packable_strategy_has_a_case():
    assert set(ON_TREES) == PACKABLE_STRATEGIES


@pytest.mark.parametrize("strategy", sorted(ON_TREES))
@given(graph_params)
@settings(max_examples=15, deadline=None)
def test_equal_builds_pack_to_equal_blobs(strategy, params):
    """Two builds of the same graph pack to the same bytes, and the blob
    attached from those bytes hands them back unchanged — so a packed
    index's blob hash identifies its content whichever way the index
    came to be (fresh build, worker process, repair, or a save)."""
    seed, n = params
    graph = random_tree(seed, n) if ON_TREES[strategy] else random_digraph(seed, n)
    tags = random_tags(seed, n)
    built = build_index(strategy, graph, tags)
    blob = pack_index(built)
    assert blob == pack_index(build_index(strategy, graph, tags))
    attached = attach_packed_blob(PackedBlob.from_bytes(bytes(blob)))
    assert attached.strategy_name == strategy
    assert bytes(pack_index(attached)) == blob
    assert packed_clone(built).fingerprint() == attached.fingerprint()
