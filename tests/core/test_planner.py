"""Probe pruning, ordering and EXPLAIN (``repro.core.planner``,
``docs/PLANNING.md``).

The Figure-4 loop always prunes exact duplicates through its
``ProbeFrontier`` (that its answers equal plain BFS is the property in
``tests/core/test_pee_properties.py``); the one option, ``order="cost"``,
relaxes only the stream order (node-set identity).
"""

from __future__ import annotations

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig, PlannerConfig
from repro.core.framework import Flix
from repro.core.planner import (
    LayoutStatistics,
    ProbeFrontier,
    ProbePlanner,
    QueryPlan,
    collect_layout_statistics,
)
from repro.datasets.dblp import DblpSpec, generate_dblp


@pytest.fixture(scope="module")
def linked():
    """A citation-heavy DBLP collection under the naive configuration:
    one meta document per document, so queries cross many residual links
    and converging links re-discover plenty of entries — exactly the
    work the loop's frontier must prune without changing a byte.
    """
    collection = generate_dblp(
        DblpSpec(documents=40, mean_citations=6.0, citation_skew=0.9, seed=11)
    )
    base = FlixConfig.naive()

    class Fixture:
        pass

    fx = Fixture()
    fx.collection = collection
    fx.on = Flix.build(collection, base)
    fx.cost = Flix.build(
        collection, base.with_planner(PlannerConfig(order="cost"))
    )
    return fx


def _all_kind_requests(collection):
    roots = [
        collection.document_root(name)
        for name in sorted(collection.documents)
    ]
    author = sorted(collection.nodes_with_tag("author"))[0]
    title = sorted(collection.nodes_with_tag("title"))[0]
    return [
        ("descendants", QueryRequest.descendants(roots[0])),
        ("descendants_tag", QueryRequest.descendants(roots[1], tag="author")),
        ("ancestors", QueryRequest.ancestors(author)),
        ("children", QueryRequest.children(roots[2])),
        ("type_query", QueryRequest.type_query("article", tag="author")),
        ("path", QueryRequest.find_path(roots[3], ["article", "author"])),
        ("connections", QueryRequest.connections(roots[4], tag="title")),
        ("cost", QueryRequest.cost(roots[5], title)),
        ("test", QueryRequest.test(roots[0], title)),
        ("test_bidi", QueryRequest.test(roots[0], title, bidirectional=True)),
    ]


def _signature(response):
    """Byte-identity: results (order included), value, completeness."""
    return (
        [repr(row) for row in response.results],
        response.value,
        response.stats.completeness,
    )


def _node_set(response):
    nodes = []
    for row in response.results:
        nodes.append(row.node if hasattr(row, "node") else tuple(row)[0])
    return sorted(nodes)


class TestProbeFrontier:
    def test_pop_admitted_once(self):
        frontier = ProbeFrontier()
        assert frontier.admit_pop(7)
        assert not frontier.admit_pop(7)
        assert frontier.admit_pop(8)

    def test_push_to_popped_node_refused(self):
        frontier = ProbeFrontier()
        frontier.admit_pop(7)
        assert not frontier.admit_push(7, 0)

    def test_push_dedup_tracks_min_priority(self):
        frontier = ProbeFrontier()
        assert frontier.admit_push(3, priority=5)
        # same or worse priority: a provably dominated duplicate
        assert not frontier.admit_push(3, priority=5)
        assert not frontier.admit_push(3, priority=9)
        # strictly better priority MUST be admitted (correctness, not
        # just performance: the closer entry defines the node's distance)
        assert frontier.admit_push(3, priority=2)
        assert not frontier.admit_push(3, priority=2)


class TestPlannerConfig:
    def test_round_trip(self):
        config = PlannerConfig(order="cost", rounds=4)
        assert PlannerConfig.from_dict(config.to_dict()) == config

    def test_retired_keys_ignored(self):
        # manifests written before pruning became the loop carry these
        old = {"prune": False, "order": "cost", "statistics": False, "rounds": 4}
        assert PlannerConfig.from_dict(old) == PlannerConfig("cost", 4)

    def test_every_config_carries_one(self):
        base = FlixConfig.naive()
        assert base.planner == PlannerConfig()
        assert base.with_planner(order="cost").planner.order == "cost"
        assert base.with_planner(order="cost").with_planner() == base

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(order="mystery")

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            PlannerConfig(rounds=0)


class TestStatistics:
    def test_collect_covers_live_metas(self, linked):
        stats = linked.on.planner_statistics()
        assert stats is not None
        live = {meta.meta_id for meta in linked.on.layout.slots if meta}
        assert set(stats.metas) == live
        assert stats.generation == linked.on.layout_generation

    def test_memoized_per_generation(self, linked):
        first = linked.on.planner_statistics()
        assert linked.on.planner_statistics() is first
        assert linked.on.planner_statistics(refresh=True) is not first

    def test_json_round_trip(self, linked):
        stats = linked.on.planner_statistics()
        loaded = LayoutStatistics.from_json(stats.to_json())
        assert loaded == stats

    def test_estimated_matches(self, linked):
        stats = linked.on.planner_statistics()
        meta = next(iter(stats.metas.values()))
        # the wildcard estimate counts every node; a tag estimate never
        # exceeds it; an unseen tag still gets a nonnegative floor
        assert meta.estimated_matches(None) == float(meta.nodes)
        for tag in meta.tag_counts:
            assert 0.0 <= meta.estimated_matches(tag) <= float(meta.nodes)
        assert meta.estimated_matches("no-such-tag") >= 0.0

    def test_collected_only_when_something_reads_them(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        request = QueryRequest.descendants(start, tag="author")
        fifo = Flix.build(linked.collection, FlixConfig.naive())
        fifo.query(request)
        assert fifo._planner_stats is None  # FIFO queries never rank
        fifo.explain(request)
        assert fifo._planner_stats is not None  # EXPLAIN asked
        cost = Flix.build(
            linked.collection, FlixConfig.naive().with_planner(order="cost")
        )
        assert cost._planner_stats is None  # nothing at build time
        cost.query(request)
        assert cost._planner_stats is not None  # cost order ranked


class TestOrdering:
    def test_cost_order_same_node_sets(self, linked):
        for name, request in _all_kind_requests(linked.collection):
            fifo = linked.on.query(request)
            cost = linked.cost.query(request)
            assert _node_set(fifo) == _node_set(cost), name
            assert cost.stats.completeness == "complete", name
            assert fifo.value == cost.value, name

    def test_exact_order_never_reordered(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        request = QueryRequest.descendants(start, exact_order=True)
        assert _signature(linked.on.query(request)) == _signature(
            linked.cost.query(request)
        )

    def test_pruning_fires_on_linked_layout(self, linked):
        author = sorted(linked.collection.nodes_with_tag("author"))[0]
        stats = linked.on.query(QueryRequest.ancestors(author)).stats
        assert stats.planner_pruned_pops + stats.planner_pruned_pushes > 0
        assert stats.planner_pruned_pops <= stats.entries_dropped

    def test_index_fingerprints_identical(self, linked):
        # ordering is a query-time layer: the built indexes, and so the
        # fingerprint, must not depend on it
        assert linked.on.index_fingerprint() == linked.cost.index_fingerprint()


class TestExplain:
    def test_planned_mode(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        plan = linked.on.explain(QueryRequest.descendants(start, tag="author"))
        assert plan.mode == "planned"
        assert plan.kind == "descendants"
        assert plan.generation == linked.on.layout_generation
        assert plan.probes
        ranks = [probe.rank for probe in plan.probes]
        assert ranks == sorted(ranks)

    def test_direct_mode_for_graph_kinds(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        title = sorted(linked.collection.nodes_with_tag("title"))[0]
        for request in (
            QueryRequest.children(start),
            QueryRequest.connections(start),
            QueryRequest.cost(start, title),
        ):
            plan = linked.on.explain(request)
            assert plan.mode == "direct", request.kind

    def test_query_stamps_plan(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        request = QueryRequest.descendants(start).with_explain()
        assert request.explain
        response = linked.on.query(request)
        assert response.plan is not None
        assert response.plan.mode == "planned"
        # without the flag nothing is stamped
        plain = linked.on.query(QueryRequest.descendants(start))
        assert plain.plan is None

    def test_explain_bypasses_cache(self, linked):
        request = QueryRequest.descendants(
            linked.collection.document_root(
                sorted(linked.collection.documents)[0]
            )
        ).with_explain()
        assert request.cache_key() is None

    def test_plan_dict_round_trip(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        plan = linked.on.explain(QueryRequest.descendants(start))
        assert QueryPlan.from_dict(plan.to_dict()) == plan

    def test_pruned_metas_are_unreachable(self, linked):
        # every statically pruned meta is live but outside the residual-
        # link closure of the source metas: probing it could never happen
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        plan = linked.on.explain(QueryRequest.descendants(start))
        probed = {probe.meta_id for probe in plan.probes}
        assert not probed & set(plan.pruned_metas)

    def test_explain_traced(self, linked):
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        linked.on.explain(QueryRequest.descendants(start))
        assert linked.on.obs.tracer.last_trace("pee.plan") is not None


class TestSidecarPersistence:
    def test_sidecar_saved_and_loaded(self, linked, tmp_path):
        index_dir = tmp_path / "index"
        linked.cost.save(index_dir)
        sidecar = index_dir / "planner_stats.json"
        assert sidecar.is_file()
        loaded = Flix.load(linked.collection, index_dir)
        assert loaded.config.planner == PlannerConfig(order="cost")
        # the sidecar primed the memo: no recollection on first use
        assert loaded._planner_stats is not None
        assert loaded._planner_stats[0] == loaded.layout_generation
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        request = QueryRequest.descendants(start)
        assert _signature(loaded.query(request)) == _signature(
            linked.cost.query(request)
        )

    def test_no_sidecar_unless_cost_order(self, linked, tmp_path):
        index_dir = tmp_path / "index"
        linked.cost.save(index_dir)
        assert (index_dir / "planner_stats.json").is_file()
        # a FIFO save over it removes the now-stale sidecar
        linked.on.save(index_dir)
        assert not (index_dir / "planner_stats.json").is_file()

    def test_stale_sidecar_ignored(self, linked, tmp_path):
        index_dir = tmp_path / "index"
        linked.cost.save(index_dir)
        sidecar = index_dir / "planner_stats.json"
        stats = LayoutStatistics.from_json(sidecar.read_text())
        import dataclasses

        stale = dataclasses.replace(stats, generation=stats.generation + 99)
        sidecar.write_text(stale.to_json())
        loaded = Flix.load(linked.collection, index_dir)
        assert loaded._planner_stats is None

    def test_corrupt_sidecar_is_advisory(self, linked, tmp_path):
        index_dir = tmp_path / "index"
        linked.cost.save(index_dir)
        (index_dir / "planner_stats.json").write_text("{not json")
        loaded = Flix.load(linked.collection, index_dir)
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        request = QueryRequest.descendants(start)
        assert _node_set(loaded.query(request)) == _node_set(
            linked.on.query(request)
        )

    def test_manifest_round_trips_planner_config(self, linked, tmp_path):
        index_dir = tmp_path / "index"
        linked.cost.save(index_dir)
        loaded = Flix.load(linked.collection, index_dir)
        assert loaded.config.planner == PlannerConfig(order="cost")

    @pytest.mark.parametrize(
        "saved", [None, {"prune": False, "statistics": True, "order": "fifo"}]
    )
    def test_manifests_of_retired_planner_states_load(
        self, linked, tmp_path, saved
    ):
        import json

        index_dir = tmp_path / "index"
        linked.on.save(index_dir)
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["planner"] = saved
        manifest_path.write_text(json.dumps(manifest))
        loaded = Flix.load(linked.collection, index_dir)
        assert loaded.config.planner == PlannerConfig()
        start = linked.collection.document_root(
            sorted(linked.collection.documents)[0]
        )
        request = QueryRequest.descendants(start)
        assert _signature(loaded.query(request)) == _signature(
            linked.on.query(request)
        )


class TestPlannerObject:
    def test_statistics_provider_failures_swallowed(self):
        def exploding():
            raise RuntimeError("no stats today")

        planner = ProbePlanner(PlannerConfig(), statistics=exploding)
        assert planner.statistics() is None

    def test_fifo_planner_does_not_reorder(self):
        assert not ProbePlanner(PlannerConfig()).reorders
        assert ProbePlanner(PlannerConfig(order="cost")).reorders
