"""The set-at-a-time index queries answer like the BFS oracle.

``reachable_subset`` / ``reaching_subset`` (the ``L(a)`` lookup of section
4.2, both directions) and ``coverage`` (the section 5.1 duplicate test)
are asked of every strategy's packed index, built through
``build_index``.  Packed HOPI and packed PPO answer them their own way,
the rest through the probe-per-member defaults of ``PathIndex``; every
answer is held against
``repro.graph.closure``: same pairs in the same ``(distance, node)``
order, same truth value — also for one node id foreign to the graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.closure import transitive_closure
from repro.indexes.base import sort_scored
from repro.indexes.registry import available_strategies, build_index
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

#: the summary family, by the graphs it is exercised on (the DataGuide
#: and the Index Fabric are bounded on, or need, trees)
SUMMARIES_ON_GRAPHS = ("apex", "fbindex", "kindex")
SUMMARIES_ON_TREES = ("dataguide", "fabric")


def assert_answers_like_the_oracle(
    index, graph, candidate_sets, previous_lists
):
    closure = transitive_closure(graph)
    nodes = list(graph) + [max(graph) + 1]
    everything = frozenset(graph)
    for candidates in [frozenset(), everything, *candidate_sets]:
        for form in (candidates, sorted(candidates)):
            for node in nodes:
                assert index.reachable_subset(node, form) == sort_scored(
                    (c, closure.distance(node, c))
                    for c in candidates
                    if closure.reachable(node, c)
                )
                assert index.reaching_subset(node, form) == sort_scored(
                    (c, closure.distance(c, node))
                    for c in candidates
                    if closure.reachable(c, node)
                )
    for previous in [[], sorted(everything), *previous_lists]:
        forward = index.coverage(previous, True)
        backward = index.coverage(previous, False)
        for node in nodes:
            assert forward(node) == any(
                closure.reachable(entry, node) for entry in previous
            )
            assert backward(node) == any(
                closure.reachable(node, entry) for entry in previous
            )


def check_on_graph(strategy, params, candidates, previous):
    seed, n = params
    graph = random_digraph(seed, n)  # cycles and multi-parent nodes
    index = build_index(strategy, graph, random_tags(seed, n))
    assert_answers_like_the_oracle(index, graph, candidates, previous)


def check_on_tree(strategy, params, candidates, previous):
    seed, n = params
    graph = random_tree(seed, n)
    index = build_index(strategy, graph, random_tags(seed, n))
    if candidates:
        # the prepared forward lane answers for exactly this set object
        index.prepare_link_candidates(candidates[0])
    assert_answers_like_the_oracle(index, graph, candidates, previous)


def test_every_strategy_has_a_case():
    assert set(available_strategies()) == {
        "hopi", "transitive_closure", "ppo",
        *SUMMARIES_ON_GRAPHS, *SUMMARIES_ON_TREES,
    }


@given(graph_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_hopi_on_cyclic_multi_parent_graphs(params, candidates, previous):
    check_on_graph("hopi", params, candidates, previous)


@given(graph_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_closure_on_cyclic_multi_parent_graphs(
    params, candidates, previous
):
    check_on_graph("transitive_closure", params, candidates, previous)


@pytest.mark.parametrize("strategy", SUMMARIES_ON_GRAPHS)
@given(graph_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_summaries_on_cyclic_multi_parent_graphs(
    strategy, params, candidates, previous
):
    check_on_graph(strategy, params, candidates, previous)


@given(tree_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_ppo_on_trees(params, candidates, previous):
    check_on_tree("ppo", params, candidates, previous)


@pytest.mark.parametrize("strategy", SUMMARIES_ON_TREES)
@given(tree_params, candidate_sets, previous_lists)
@settings(max_examples=40, deadline=None)
def test_packed_summaries_on_trees(strategy, params, candidates, previous):
    check_on_tree(strategy, params, candidates, previous)
