"""Cross-index property test: every strategy answers like the oracle.

This is the suite's strongest guarantee: PPO (on forests), HOPI (both
builders), APEX, the 1-index, the A(1)-index, the DataGuide, and the
materialized closure all produce identical reachability, distances, and
tag-filtered descendant sets on random inputs — and so does the FLXPACK
twin of every strategy that has one (the representation a ``Flix``
actually serves), held against the oracle directly rather than only
against its object form.

It also holds the premise ``index_fingerprint`` rests on since the blob
became the only copy of an index: equal tables pack to equal blobs.
"""

import pytest
from hypothesis import given, settings

from repro.graph.closure import transitive_closure
from repro.indexes.apex import ApexIndex
from repro.indexes.dataguide import DataGuideIndex
from repro.indexes.fabric import FabricIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.kindex import ForwardBackwardIndex, KBisimulationIndex
from repro.indexes.packed import PACKABLE_STRATEGIES, pack_index, packed_clone
from repro.indexes.ppo import PpoIndex
from repro.indexes.registry import build_index
from repro.indexes.transitive import TransitiveClosureIndex
from repro.storage.memory import MemoryBackend
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
    """``indexes`` plus the packed twin of each one that has a packed
    form (``packed_clone`` is ``None`` for ``transitive_closure``)."""
    twins = [packed_clone(index) for index in indexes]
    return indexes + [twin for twin in twins if twin is not None]


@given(graph_params)
@settings(max_examples=25, deadline=None)
def test_all_graph_indexes_agree_with_oracle(params):
    seed, n = params
    graph = random_digraph(seed, n)
    tags = random_tags(seed, n)
    closure = transitive_closure(graph)
    indexes = [cls.build(graph, tags, MemoryBackend()) for cls in GRAPH_STRATEGIES]
    indexes.append(
        HopiIndex.build_divide_and_conquer(
            graph, tags, MemoryBackend(), partition_size=max(2, n // 3)
        )
    )
    indexes = with_packed_twins(indexes)
    assert len(indexes) == 9  # all but the materialized closure pack
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
        PpoIndex.build(graph, tags, MemoryBackend()),
        DataGuideIndex.build(graph, tags, MemoryBackend()),
        HopiIndex.build(graph, tags, MemoryBackend()),
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
    hopi = HopiIndex.build(graph, tags, MemoryBackend())
    for index in with_packed_twins([hopi]):
        for u in graph:
            for v, d in index.find_descendants_by_tag(u, None):
                ancestors = dict(index.find_ancestors_by_tag(v, None))
                assert ancestors[u] == d


#: how each packable strategy comes back from its storage tables, and
#: whether it is exercised on trees (it needs, or is bounded on, one)
TABLE_LOADERS = {
    "ppo": (PpoIndex.load, True),
    "hopi": (HopiIndex.load, False),
    "apex": (lambda backend, tags: ApexIndex.load(backend, "apex"), False),
    "kindex": (
        lambda backend, tags: KBisimulationIndex.load(backend, "kindex"),
        False,
    ),
    "fbindex": (
        lambda backend, tags: ForwardBackwardIndex.load(backend, "fbindex"),
        False,
    ),
    "dataguide": (
        lambda backend, tags: DataGuideIndex.load(backend, "dataguide"),
        True,
    ),
    "fabric": (lambda backend, tags: FabricIndex.load(backend, "fabric"), True),
}


def test_every_packable_strategy_has_a_table_loader_case():
    assert set(TABLE_LOADERS) == PACKABLE_STRATEGIES


@pytest.mark.parametrize("strategy", sorted(TABLE_LOADERS))
@given(graph_params)
@settings(max_examples=15, deadline=None)
def test_equal_tables_pack_to_equal_blobs(strategy, params):
    """A build, a second build of the same graph, and the index reloaded
    from the first build's tables pack to the same bytes — so a packed
    index's blob hash identifies its content exactly as the table hash
    did, whichever way the index came to be (fresh build, worker
    process, repair, or the upgrade of a save that only has tables)."""
    seed, n = params
    load, on_trees = TABLE_LOADERS[strategy]
    graph = random_tree(seed, n) if on_trees else random_digraph(seed, n)
    tags = random_tags(seed, n)
    built = build_index(strategy, graph, tags, MemoryBackend())
    blob = pack_index(built)
    assert blob == pack_index(build_index(strategy, graph, tags, MemoryBackend()))
    assert blob == pack_index(load(built.backend, tags))
    assert packed_clone(built).fingerprint() == (
        packed_clone(load(built.backend, tags)).fingerprint()
    )
