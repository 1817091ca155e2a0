"""Property tests: FliX answers equal the oracle on random collections.

For every configuration, over randomly generated linked collections, the
streamed result *set* must equal the transitive closure's answer, reported
distances must never undershoot the true distance, and streams must be
duplicate-free.  This is the whole-framework analogue of the per-index
equivalence suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.pee import ExpansionLost, QueryBudget, QueryStats
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_collection
from repro.graph.closure import transitive_closure
from repro.graph.traversal import bfs_distances, bfs_reverse_distances
from repro.shard.distributed import DistributedEvaluator

collection_params = st.tuples(
    st.integers(min_value=0, max_value=1000),  # seed
    st.integers(min_value=2, max_value=8),  # documents
    st.integers(min_value=2, max_value=12),  # mean document size
    st.sampled_from([0.0, 0.5, 1.5]),  # links per document
    st.sampled_from([0.0, 0.5]),  # intra links per document
)


def make_collection(params):
    seed, docs, size, links, intra = params
    return generate_synthetic_collection(
        SyntheticSpec(
            documents=docs,
            mean_document_size=size,
            links_per_document=links,
            intra_links_per_document=intra,
            deep_link_fraction=0.5,
            seed=seed,
        )
    )


CONFIGS = [
    FlixConfig.naive(),
    FlixConfig.maximal_ppo(),
    FlixConfig.maximal_ppo(single_tree=True),
    FlixConfig.unconnected_hopi(10),
    FlixConfig.hybrid(10),
]


@given(collection_params)
@settings(max_examples=20, deadline=None)
def test_descendant_sets_match_oracle_for_all_configs(params):
    collection = make_collection(params)
    oracle = transitive_closure(collection.graph)
    node_ids = list(collection.node_ids())
    probes = node_ids[:: max(1, len(node_ids) // 10)]
    for config in CONFIGS:
        flix = Flix.build(collection, config)
        for start in probes:
            results = list(flix.query_stream(QueryRequest.descendants(start)))
            got = {r.node for r in results}
            expected = set(oracle.descendants(start)) - {start}
            assert got == expected, (config.name, start)
            assert len(results) == len(got), (config.name, "duplicates")
            for r in results:
                assert r.distance >= oracle.distance(start, r.node)


@given(collection_params)
@settings(max_examples=12, deadline=None)
def test_ancestor_sets_match_oracle(params):
    collection = make_collection(params)
    oracle = transitive_closure(collection.graph)
    node_ids = list(collection.node_ids())
    probes = node_ids[:: max(1, len(node_ids) // 6)]
    for config in (FlixConfig.naive(), FlixConfig.hybrid(10)):
        flix = Flix.build(collection, config)
        for start in probes:
            got = {r.node for r in flix.query_stream(QueryRequest.ancestors(start))}
            expected = {
                u for u in node_ids if oracle.reachable(u, start) and u != start
            }
            assert got == expected, (config.name, start)


@given(collection_params)
@settings(max_examples=12, deadline=None)
def test_connection_test_agrees_with_oracle(params):
    collection = make_collection(params)
    oracle = transitive_closure(collection.graph)
    node_ids = list(collection.node_ids())
    flix = Flix.build(collection, FlixConfig.unconnected_hopi(10))
    for u in node_ids[::5]:
        for v in node_ids[::7]:
            got = flix.query(QueryRequest.test(u, v)).value
            expected = oracle.distance(u, v)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got >= expected


@given(collection_params)
@settings(max_examples=10, deadline=None)
def test_auto_configuration_builds_and_answers(params):
    """Flix.build with no config picks a recommendation that works."""
    collection = make_collection(params)
    oracle = transitive_closure(collection.graph)
    flix = Flix.build(collection)  # automatic configuration
    start = next(iter(collection.node_ids()))
    got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
    assert got == set(oracle.descendants(start)) - {start}


# ----------------------------------------------------------------------
# one loop, two expanders, one oracle
# ----------------------------------------------------------------------
class _MetaLookup:
    """All the remote expander asks of a shard map."""

    def __init__(self, pee):
        self.meta_of = pee.meta_id_of


def remote_evaluator(flix, lost_meta=None):
    """The coordinator's evaluator with its RPCs replaced by what a shard
    worker does on receipt (no sockets); ``lost_meta`` is a meta document
    whose every replica is down."""
    pee = flix.pee

    def rpc(method, fields):
        def call(meta_id, payload):
            if meta_id == lost_meta:
                raise ExpansionLost(0)
            stats = QueryStats()
            outcome = getattr(pee, method)(
                *(payload[name] for name in fields), stats
            )
            return outcome, stats

        return call

    return DistributedEvaluator(
        _MetaLookup(pee),
        rpc("expand_entry", ("meta_id", "entry", "priority", "tag", "forward",
                             "skip", "max_distance", "previous")),
        rpc("connection_probe", ("meta_id", "entry", "priority", "target",
                                 "target_meta", "max_distance", "previous")),
    )


def both_expanders(flix, start, forward=True, **options):
    """One search under the local and under the remote expander, checked
    identical (results, order, stats); returns ``(results, stats)``."""
    local = (
        flix.pee.find_descendants if forward else flix.pee.find_ancestors
    )(start, **options)
    local_results = list(local)
    remote = remote_evaluator(flix).search(
        [start], None, options.get("max_distance"), forward, (start,),
        budget=options.get("budget"),
    )
    assert list(remote) == local_results
    assert remote.stats == local.stats
    return local_results, local.stats


#: as ``collection_params`` but linked densely enough that converging
#: residual links re-discover entries — the work the loop's frontier prunes
linked_collection_params = st.tuples(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([1.5, 4.0]),
    st.sampled_from([0.0, 0.5]),
)


@given(linked_collection_params, st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_single_loop_matches_bfs_under_both_expanders(params, bound):
    collection = make_collection(params)
    graph = collection.graph
    node_ids = list(collection.node_ids())
    probes = node_ids[:: max(1, len(node_ids) // 5)]
    for config in (FlixConfig.naive(), FlixConfig.hybrid(10)):
        flix = Flix.build(collection, config)
        for start in probes:
            oracle = bfs_distances(graph, start)
            del oracle[start]
            results, stats = both_expanders(flix, start)
            assert {r.node for r in results} == set(oracle)
            assert len(results) == len(oracle), "duplicates"
            assert all(r.distance >= oracle[r.node] for r in results)
            assert stats.is_complete
            backward, _ = both_expanders(flix, start, forward=False)
            reverse = bfs_reverse_distances(graph, start)
            assert {r.node for r in backward} == set(reverse) - {start}

            # a distance threshold or a budget may only ever cut results
            near, stats = both_expanders(flix, start, max_distance=bound)
            assert stats.is_complete
            for r in near:
                assert oracle[r.node] <= r.distance <= bound
            budget = QueryBudget(max_queue_pops=bound)
            cut, stats = both_expanders(flix, start, budget=budget)
            assert {r.node for r in cut} <= set(oracle)
            assert stats.queue_pops <= bound
            assert not stats.is_complete or len(cut) == len(oracle)

            # connection test: the same loop stopped at its first yield
            target = probes[-1]
            local_stats, remote_stats = QueryStats(), QueryStats()
            got = flix.pee.connection_test(start, target, stats=local_stats)
            assert got == remote_evaluator(flix).connection_test(
                start, target, None, remote_stats
            )
            assert remote_stats == local_stats
            if target != start:
                assert (got is None) == (target not in oracle)
                assert got is None or got >= oracle[target]

            # one meta document unreachable: what arrives is still right
            elsewhere = [
                r.meta_id for r in results
                if r.meta_id != flix.pee.meta_id_of(start)
            ]
            lost_meta = (
                elsewhere[0] if elsewhere else flix.pee.meta_id_of(start)
            )
            lossy = remote_evaluator(flix, lost_meta).search(
                [start], None, None, True, (start,)
            )
            survivors = list(lossy)
            assert {r.node for r in survivors} <= set(oracle)
            assert all(r.distance >= oracle[r.node] for r in survivors)
            assert lossy.stats.completeness == "truncated"
