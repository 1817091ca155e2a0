"""The set-at-a-time index queries answer like their per-probe defaults.

``reachable_subset`` / ``reaching_subset`` (the ``L(a)`` lookup of section
4.2, both directions) and ``coverage`` (the section 5.1 duplicate test)
have probe-per-member defaults on :class:`PathIndex`; packed HOPI, packed
PPO and the BFS fallback override them to cost what the answer costs, and
the packed closure answers them through its bisect probes.
The overrides change how the question is answered, never the answer:
same pairs in the same ``(distance, node)`` order, same truth value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fallback import BfsFallbackIndex
from repro.indexes.base import PathIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.packed import packed_clone
from repro.indexes.ppo import PpoIndex
from repro.indexes.transitive import TransitiveClosureIndex
from tests.conftest import (
    graph_params,
    random_digraph,
    random_tags,
    random_tree,
    tree_params,
)

# ids below 0 and above the largest node are foreign to every graph here
node_ids = st.integers(min_value=-2, max_value=45)
candidate_sets = st.lists(st.frozensets(node_ids, max_size=40), max_size=3)
previous_lists = st.lists(st.lists(node_ids, max_size=8), max_size=3)


def assert_answers_like_defaults(index, nodes, candidate_sets, previous_lists):
    everything = frozenset(nodes)
    for candidates in [frozenset(), everything, *candidate_sets]:
        for form in (candidates, sorted(candidates)):
            for node in nodes:
                assert index.reachable_subset(
                    node, form
                ) == PathIndex.reachable_subset(index, node, form)
                assert index.reaching_subset(
                    node, form
                ) == PathIndex.reaching_subset(index, node, form)
    for previous in [[], sorted(everything), *previous_lists]:
        forward = index.coverage(previous, True)
        backward = index.coverage(previous, False)
        for node in nodes:
            assert forward(node) == any(
                index.reachable(entry, node) for entry in previous
            )
            assert backward(node) == any(
                index.reachable(node, entry) for entry in previous
            )


@given(graph_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_hopi_on_cyclic_multi_parent_graphs(params, candidates, previous):
    seed, n = params
    graph = random_digraph(seed, n)  # cycles and multi-parent nodes
    built = HopiIndex.build(graph, random_tags(seed, n))
    packed = packed_clone(built)
    foreign = n + 1
    assert_answers_like_defaults(
        packed, list(range(n)) + [foreign], candidates, previous
    )


@given(graph_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_closure_on_cyclic_multi_parent_graphs(
    params, candidates, previous
):
    seed, n = params
    graph = random_digraph(seed, n)
    built = TransitiveClosureIndex.build(graph, random_tags(seed, n))
    packed = packed_clone(built)
    foreign = n + 1
    assert_answers_like_defaults(
        packed, list(range(n)) + [foreign], candidates, previous
    )
    for node in range(n):
        assert packed.reachable_subset(node, frozenset(range(n))) == (
            built.reachable_subset(node, frozenset(range(n)))
        )


@given(tree_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_ppo_on_trees(params, candidates, previous):
    seed, n = params
    graph = random_tree(seed, n)
    built = PpoIndex.build(graph, random_tags(seed, n))
    packed = packed_clone(built)
    if candidates:
        # the prepared forward lane answers for exactly this set object
        packed.prepare_link_candidates(candidates[0])
    foreign = n + 1
    assert_answers_like_defaults(
        packed, list(range(n)) + [foreign], candidates, previous
    )


@given(graph_params, candidate_sets, previous_lists)
@settings(max_examples=25, deadline=None)
def test_bfs_fallback(params, candidates, previous):
    seed, n = params
    graph = random_digraph(seed, n)
    fallback = BfsFallbackIndex(
        range(n),
        {node: list(graph.successors(node)) for node in range(n)},
        random_tags(seed, n),
    )
    # the fallback is only ever asked about its own meta document's nodes
    assert_answers_like_defaults(fallback, list(range(n)), candidates, previous)
