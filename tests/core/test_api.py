"""The unified QueryRequest/QueryResponse API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.api import KIND_FIELDS, QUERY_KINDS, QueryRequest
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryBudget


class TestRequestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            QueryRequest(kind="siblings", source=0)

    def test_descendants_needs_exactly_one_seed(self):
        with pytest.raises(ValueError, match="exactly one of"):
            QueryRequest(kind="descendants")
        with pytest.raises(ValueError, match="exactly one of"):
            QueryRequest(kind="descendants", source=0, source_tag="movie")

    def test_scalar_kinds_need_target(self):
        for kind in ("cost", "test"):
            with pytest.raises(ValueError, match="target"):
                QueryRequest(kind=kind, source=0)

    def test_path_needs_steps(self):
        with pytest.raises(ValueError, match="step tag"):
            QueryRequest(kind="path", source=0)
        with pytest.raises(ValueError, match="do not read path"):
            QueryRequest(kind="children", source=0, path=("a",))
        with pytest.raises(ValueError, match="do not read path"):
            QueryRequest(kind="descendants", source=0, path=("a",))

    @pytest.mark.parametrize(
        "fields, unread",
        [
            (dict(kind="ancestors", source=0, source_tag="a"), "source_tag"),
            (dict(kind="cost", source=0, target=1, tag="a"), "tag"),
            (dict(kind="test", source=0, target=1, tag="a"), "tag"),
            (dict(kind="test", source=0, target=1, limit=1), "limit"),
            (dict(kind="children", source=0, max_distance=0),
             "max_distance"),
            (dict(kind="descendants", source=0, target=1), "target"),
            (dict(kind="path", source=0, path=("a",), include_self=True),
             "include_self"),
            (dict(kind="connections", source=0, max_distance=2),
             "max_distance"),
        ],
    )
    def test_fields_the_kind_never_reads_are_rejected(self, fields, unread):
        with pytest.raises(ValueError, match=f"do not read {unread}$"):
            QueryRequest(**fields)

    def test_include_self_needs_a_source(self):
        with pytest.raises(ValueError, match="include_self"):
            QueryRequest(kind="descendants", source_tag="a", include_self=True)

    def test_every_field_is_read_by_some_kind(self):
        read = {name for names in KIND_FIELDS.values() for name in names}
        fields = {field.name for field in dataclasses.fields(QueryRequest)}
        assert fields - read == {"kind", "budget", "explain"}

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            QueryRequest.descendants(0, limit=0)
        with pytest.raises(ValueError, match="max_distance"):
            QueryRequest.descendants(0, max_distance=-1)

    def test_requests_are_hashable_and_frozen(self):
        request = QueryRequest.descendants(0, tag="p")
        assert hash(request) == hash(QueryRequest.descendants(0, tag="p"))
        with pytest.raises(Exception):
            request.kind = "ancestors"

    def test_cache_key_excludes_limit_and_rejects_budget(self):
        full = QueryRequest.descendants(0, tag="p")
        limited = full.with_limit(3)
        assert full.cache_key() == limited.cache_key()
        budgeted = full.with_budget(QueryBudget(max_queue_pops=5))
        assert budgeted.cache_key() is None

    def test_every_kind_is_constructible(self):
        built = {
            QueryRequest.descendants(0).kind,
            QueryRequest.ancestors(0).kind,
            QueryRequest.children(0).kind,
            QueryRequest.find_path(0, ["a"]).kind,
            QueryRequest.connections(0).kind,
            QueryRequest.cost(0, 1).kind,
            QueryRequest.test(0, 1).kind,
            QueryRequest.type_query("movie").kind,
        }
        assert built == set(QUERY_KINDS) - {"path"} | {"path"}


class TestQueryAndStream:
    """``query`` materializes exactly what ``query_stream`` yields."""

    def test_streaming_kinds_agree(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        target = linked_collection.document_root("b.xml")
        for request in (
            QueryRequest.descendants(start, tag="p"),
            QueryRequest.ancestors(target),
            QueryRequest.type_query("doc", "p"),
            QueryRequest.connections(start, tag="p"),
        ):
            materialized = cached_flix.query(request)
            cached_flix.invalidate_caches()
            assert list(cached_flix.query_stream(request)) == materialized.results
        # alpha (local) + beta (via link)
        assert len(cached_flix.query(QueryRequest.descendants(start, tag="p"))) == 2

    def test_response_shape(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        response = cached_flix.query(QueryRequest.descendants(start, tag="p"))
        assert response.is_complete
        assert response.completeness == "complete"
        assert len(response) == len(response.results)
        assert list(response) == response.results
        assert response.elapsed_seconds >= 0.0
        assert response.stats.results_returned == len(response.results)

    def test_limited_response_is_prefix(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        full = cached_flix.query(QueryRequest.descendants(start))
        limited = cached_flix.query(
            QueryRequest.descendants(start).with_limit(2)
        )
        assert [r.node for r in limited.results] == [
            r.node for r in full.results[:2]
        ]

    def test_query_stream_rejects_scalar_kinds(self, cached_flix):
        with pytest.raises(ValueError, match="no streaming form"):
            next(cached_flix.query_stream(QueryRequest.test(0, 1)))


class TestCacheConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(maxsize=0)
        with pytest.raises(ValueError):
            CacheConfig(shards=0)

    def test_roundtrip(self):
        config = CacheConfig(maxsize=128, shards=2)
        assert CacheConfig.from_dict(config.to_dict()) == config

    def test_config_cache_is_installed_cold(self, cached_flix):
        assert cached_flix.cache is not None
        assert cached_flix.cache_hits == 0

    def test_with_cache_and_without_cache(self):
        config = FlixConfig.naive().with_cache()
        assert config.cache is not None
        assert config.without_cache().cache is None

    def test_persistence_roundtrip(self, cached_flix, tmp_path):
        cached_flix.save(tmp_path / "index")
        loaded = Flix.load(cached_flix.collection, tmp_path / "index")
        assert loaded.config.cache == cached_flix.config.cache
        assert loaded.cache is not None


@pytest.fixture(scope="module")
def figure1_hopi(figure1_collection):
    return Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))


class TestChildAxis:
    def test_children_are_direct_successors(
        self, figure1_hopi, figure1_collection
    ):
        start = figure1_collection.document_root("d01.xml")
        children = figure1_hopi.query(QueryRequest.children(start)).results
        expected = sorted(figure1_collection.graph.successors(start))
        assert [c.node for c in children] == expected
        assert all(c.distance == 1 for c in children)

    def test_children_tag_filter(self, figure1_hopi, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        request = QueryRequest.children(start, tag="item")
        for child in figure1_hopi.query(request).results:
            assert figure1_collection.tag(child.node) == "item"

    def test_link_targets_count_as_children(
        self, figure1_hopi, figure1_collection
    ):
        """'elements that are referenced through links [are treated]
        similarly to normal child elements' (section 1.1)."""
        link_sources = {u for u, _v in figure1_collection.link_edges}
        source = next(iter(link_sources))
        children = {
            c.node
            for c in figure1_hopi.query(QueryRequest.children(source)).results
        }
        targets = {
            v for u, v in figure1_collection.link_edges if u == source
        }
        assert targets <= children
