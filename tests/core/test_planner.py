"""Probe pruning and EXPLAIN (``repro.core.planner``, ``docs/PLANNING.md``).

The Figure-4 loop always prunes exact duplicates through its
``ProbeFrontier`` (that its answers equal plain BFS is the property in
``tests/core/test_pee_properties.py``).  EXPLAIN's static plan lists the
meta documents a request can probe; here it is checked against what an
evaluation of the same request actually returns.
"""

from __future__ import annotations

import json

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.planner import ProbeFrontier, QueryPlan
from repro.datasets.dblp import DblpSpec, generate_dblp


@pytest.fixture(scope="module")
def collection():
    """A citation-heavy DBLP collection: queries cross many residual
    links and converging links re-discover plenty of entries — exactly
    the work the loop's frontier must prune without changing a byte."""
    return generate_dblp(
        DblpSpec(documents=40, mean_citations=6.0, citation_skew=0.9, seed=11)
    )


@pytest.fixture(scope="module")
def linked(collection):
    """The collection under the naive configuration: one meta document
    per document."""

    class Fixture:
        pass

    fx = Fixture()
    fx.collection = collection
    fx.on = Flix.build(collection, FlixConfig.naive())
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
    ]


def _signature(response):
    """Byte-identity: results (order included), value, stats."""
    return (
        [repr(row) for row in response.results],
        response.value,
        response.stats,
    )


def _first_root(collection):
    return collection.document_root(sorted(collection.documents)[0])


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


class TestOrdering:
    """FIFO is the loop's one order; the frontier prunes under it."""

    def test_pruning_fires_on_linked_layout(self, linked):
        author = sorted(linked.collection.nodes_with_tag("author"))[0]
        stats = linked.on.query(QueryRequest.ancestors(author)).stats
        assert stats.planner_pruned_pops + stats.planner_pruned_pushes > 0
        assert stats.planner_pruned_pops <= stats.entries_dropped


class TestExplain:
    def test_planned_mode(self, linked):
        start = _first_root(linked.collection)
        plan = linked.on.explain(QueryRequest.descendants(start, tag="author"))
        assert plan.mode == "planned"
        assert plan.kind == "descendants"
        assert plan.generation == linked.on.layout_generation
        assert plan.probes
        ids = [probe.meta_id for probe in plan.probes]
        assert ids == sorted(ids)
        for probe in plan.probes:
            meta = linked.on.layout.slots[probe.meta_id]
            assert probe.strategy == meta.strategy
            assert probe.fan_out == meta.residual_out_degree

    def test_direct_mode_for_graph_kinds(self, linked):
        start = _first_root(linked.collection)
        title = sorted(linked.collection.nodes_with_tag("title"))[0]
        for request in (
            QueryRequest.children(start),
            QueryRequest.connections(start),
            QueryRequest.cost(start, title),
        ):
            plan = linked.on.explain(request)
            assert plan.mode == "direct", request.kind

    def test_query_stamps_plan(self, linked):
        start = _first_root(linked.collection)
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
            _first_root(linked.collection)
        ).with_explain()
        assert request.cache_key() is None

    def test_plan_dict_round_trip(self, linked):
        start = _first_root(linked.collection)
        plan = linked.on.explain(QueryRequest.descendants(start))
        assert QueryPlan.from_dict(plan.to_dict()) == plan

    def test_pruned_metas_are_unreachable(self, linked):
        # every statically pruned meta is live but outside the residual-
        # link closure of the source metas: probing it could never happen
        start = _first_root(linked.collection)
        plan = linked.on.explain(QueryRequest.descendants(start))
        probed = {probe.meta_id for probe in plan.probes}
        assert not probed & set(plan.pruned_metas)
        live = {meta.meta_id for meta in linked.on.meta_documents}
        assert probed | set(plan.pruned_metas) == live

    def test_explain_traced(self, linked):
        start = _first_root(linked.collection)
        linked.on.explain(QueryRequest.descendants(start))
        assert linked.on.obs.tracer.last_trace("pee.plan") is not None

    @pytest.mark.parametrize(
        "config",
        [
            FlixConfig.naive(),
            FlixConfig.hybrid(partition_size=200),
            FlixConfig.maximal_ppo(),
        ],
        ids=lambda config: config.mdb_strategy,
    )
    def test_plan_bounds_evaluation(self, collection, config):
        # the static plan is an upper bound on the evaluation: every
        # result comes from a listed probe, none from a pruned meta
        flix = Flix.build(collection, config)
        for name, request in _all_kind_requests(collection):
            response = flix.query(request.with_explain())
            plan = response.plan
            assert plan is not None, name
            if plan.mode != "planned":
                continue
            probed = {probe.meta_id for probe in plan.probes}
            pruned = set(plan.pruned_metas)
            for row in response.results:
                # ``path`` rows are ``(node, distance)`` tuples
                node = row.node if hasattr(row, "node") else row[0]
                meta_id = flix.meta_of[node]
                assert meta_id in probed, (name, node)
                assert meta_id not in pruned, (name, node)

    def test_unknown_node_raises_like_the_query(self, linked):
        missing = 10**9
        known = _first_root(linked.collection)
        for request in (
            QueryRequest.descendants(missing),
            QueryRequest.ancestors(missing),
            QueryRequest.find_path(missing, ["author"]),
            QueryRequest.test(missing, known),
            QueryRequest.test(known, missing),
        ):
            with pytest.raises(KeyError) as evaluated:
                linked.on.query(request)
            with pytest.raises(KeyError) as explained:
                linked.on.explain(request)
            assert str(explained.value) == str(evaluated.value), request


class TestSidecarPersistence:
    @pytest.mark.parametrize("saved", [None, {"order": "cost", "rounds": 4}])
    def test_manifests_of_retired_planner_states_load(
        self, linked, tmp_path, saved
    ):
        # saves written while probe order was an option carry a
        # ``"planner"`` manifest key and, under cost order, a statistics
        # sidecar; both are ignored, and the next save drops the sidecar
        index_dir = tmp_path / "index"
        linked.on.save(index_dir)
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["planner"] = saved
        manifest_path.write_text(json.dumps(manifest))
        sidecar = index_dir / "planner_stats.json"
        sidecar.write_text(json.dumps({"version": 1, "generation": 0}))
        loaded = Flix.load(linked.collection, index_dir)
        assert loaded.config == linked.on.config
        assert loaded.index_fingerprint() == linked.on.index_fingerprint()
        for name, request in _all_kind_requests(linked.collection):
            assert _signature(loaded.query(request)) == _signature(
                linked.on.query(request)
            ), name
        loaded.save(index_dir)
        assert not sidecar.exists()
        assert "planner" not in json.loads(manifest_path.read_text())["config"]

    @staticmethod
    def _load_beside_sidecar(linked, tmp_path, content):
        """A sidecar an older save left, whatever its state, is not read."""
        index_dir = tmp_path / "index"
        linked.on.save(index_dir)
        (index_dir / "planner_stats.json").write_text(content)
        loaded = Flix.load(linked.collection, index_dir)
        start = _first_root(linked.collection)
        request = QueryRequest.descendants(start)
        assert _signature(loaded.query(request)) == _signature(
            linked.on.query(request)
        )

    def test_stale_sidecar_ignored(self, linked, tmp_path):
        stale = json.dumps({"version": 1, "generation": 99, "metas": {}})
        self._load_beside_sidecar(linked, tmp_path, stale)

    def test_corrupt_sidecar_is_advisory(self, linked, tmp_path):
        self._load_beside_sidecar(linked, tmp_path, "{not json")
