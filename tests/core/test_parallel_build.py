"""Determinism and plumbing tests for the parallel Index Builder.

The acceptance bar: a build with ``jobs`` > 1 must be indistinguishable
from a sequential build in everything except timing — same ``meta_of``,
same strategy choices, same per-meta index sizes, byte-for-byte identical
index tables.  ``build_executor="process"`` is pinned where the process
pool itself is under test, so the pickle round trip is exercised even on
single-CPU CI runners (where ``auto`` rightly degrades to serial).
"""

import dataclasses

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.ib import BuildProfile, IndexBuilder
from repro.core.links import residual_links
from repro.core.mdb import MetaDocumentBuilder


def _process_config(partition_size: int = 60) -> FlixConfig:
    return dataclasses.replace(
        FlixConfig.unconnected_hopi(partition_size), build_executor="process"
    )


@pytest.fixture(scope="module")
def sequential(figure1_collection):
    return Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))


class TestParity:
    """jobs=4 (process pool) vs the sequential baseline."""

    @pytest.fixture(scope="class")
    def parallel(self, figure1_collection):
        return Flix.build(figure1_collection, _process_config(), jobs=4)

    def test_meta_of_identical(self, sequential, parallel):
        assert parallel.meta_of == sequential.meta_of

    def test_strategy_choices_identical(self, sequential, parallel):
        assert [m.strategy for m in parallel.meta_documents] == [
            m.strategy for m in sequential.meta_documents
        ]
        assert [m.rationale for m in parallel.report.meta_documents] == [
            m.rationale for m in sequential.report.meta_documents
        ]

    def test_per_meta_index_sizes_identical(self, sequential, parallel):
        assert [m.index_bytes for m in parallel.report.meta_documents] == [
            m.index_bytes for m in sequential.report.meta_documents
        ]

    def test_index_tables_byte_identical(self, sequential, parallel):
        for par, seq in zip(parallel.meta_documents, sequential.meta_documents):
            assert par.index.blob.data == seq.index.blob.data
            assert par.index.fingerprint() == seq.index.fingerprint()
        assert parallel.index_fingerprint() == sequential.index_fingerprint()

    def test_residual_links_identical(self, sequential, parallel):
        assert (
            parallel.report.residual_link_count
            == sequential.report.residual_link_count
        )
        assert residual_links(parallel.meta_documents) == residual_links(
            sequential.meta_documents
        )

    def test_query_results_identical(self, sequential, parallel, figure1_collection):
        for name in sorted(figure1_collection.documents):
            start = figure1_collection.document_root(name)
            assert list(parallel.query_stream(QueryRequest.descendants(start))) == list(
                sequential.query_stream(QueryRequest.descendants(start))
            )

    def test_report_records_jobs_and_executor(self, parallel):
        assert parallel.report.jobs == 4
        assert parallel.report.executor == "process"
        assert "4 jobs (process)" in parallel.report.summary()

    def test_profiles_populated(self, parallel):
        for meta in parallel.report.meta_documents:
            profile = meta.profile
            assert profile.worker.startswith("process-")
            assert profile.busy_seconds >= 0.0
            assert profile.queue_wait_seconds >= 0.0
            assert meta.build_seconds == pytest.approx(profile.busy_seconds)
        totals = parallel.report.phase_totals()
        assert set(totals) == {"queue_wait", "graph", "selection", "index"}
        assert totals["index"] > 0.0


class TestThreadFallback:
    def test_unpicklable_handoff_degrades_to_thread(
        self, sequential, figure1_collection
    ):
        """A selector holding a closure cannot cross a process boundary;
        the builder must degrade to threads and still produce the same
        index."""
        from repro.core.iss import IndexingStrategySelector

        config = _process_config()
        selector = IndexingStrategySelector(config)
        selector.audit = lambda choice: None
        builder = IndexBuilder(figure1_collection, config, selector=selector)
        specs = MetaDocumentBuilder(figure1_collection, config).build_specs()
        metas, meta_of, report = builder.build(specs, jobs=4)
        assert report.executor == "thread"
        assert meta_of == sequential.meta_of
        assert [m.index.fingerprint() for m in metas] == [
            m.index.fingerprint() for m in sequential.meta_documents
        ]

    def test_explicit_thread_executor(self, sequential, figure1_collection):
        config = dataclasses.replace(
            FlixConfig.unconnected_hopi(60), build_executor="thread"
        )
        flix = Flix.build(figure1_collection, config, jobs=2)
        assert flix.report.executor == "thread"
        for meta in flix.report.meta_documents:
            assert meta.profile.worker.startswith("thread-")
        assert flix.index_fingerprint() == sequential.index_fingerprint()


class TestSerialPaths:
    def test_jobs_one_stays_serial(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))
        assert flix.report.jobs == 1
        assert flix.report.executor == "serial"
        for meta in flix.report.meta_documents:
            assert meta.profile.worker == "main"

    def test_single_meta_document_skips_pool(self, figure1_collection):
        flix = Flix.build(figure1_collection, _process_config(100_000), jobs=4)
        assert len(flix.meta_documents) == 1
        assert flix.report.executor == "serial"

    def test_explicit_serial_executor_ignores_jobs(self, figure1_collection):
        config = dataclasses.replace(
            FlixConfig.unconnected_hopi(60), build_executor="serial"
        )
        flix = Flix.build(figure1_collection, config, jobs=8)
        assert flix.report.executor == "serial"


class TestConfigPlumbing:
    def test_with_jobs(self):
        config = FlixConfig.unconnected_hopi(60).with_jobs(4)
        assert config.jobs == 4
        assert config.build_executor == "auto"
        forced = config.with_jobs(2, build_executor="thread")
        assert (forced.jobs, forced.build_executor) == (2, "thread")

    def test_config_jobs_used_by_default(self, figure1_collection):
        config = FlixConfig.unconnected_hopi(60).with_jobs(3)
        flix = Flix.build(figure1_collection, config)
        assert flix.report.jobs == 3

    def test_build_jobs_overrides_config(self, figure1_collection):
        config = FlixConfig.unconnected_hopi(60).with_jobs(3)
        flix = Flix.build(figure1_collection, config, jobs=1)
        assert flix.report.jobs == 1
        assert flix.report.executor == "serial"

    def test_invalid_jobs_rejected(self, figure1_collection):
        with pytest.raises(ValueError):
            FlixConfig.unconnected_hopi(60).with_jobs(0)
        builder = IndexBuilder(
            figure1_collection, FlixConfig.unconnected_hopi(60)
        )
        specs = MetaDocumentBuilder(
            figure1_collection, FlixConfig.unconnected_hopi(60)
        ).build_specs()
        with pytest.raises(ValueError):
            builder.build(specs, jobs=0)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                FlixConfig.unconnected_hopi(60), build_executor="gpu"
            )


class TestBuildProfile:
    def test_busy_seconds_sums_phases(self):
        profile = BuildProfile(
            queue_wait_seconds=5.0,
            graph_seconds=1.0,
            selection_seconds=2.0,
            index_seconds=3.0,
        )
        assert profile.busy_seconds == pytest.approx(6.0)

    def test_default_profile_on_legacy_reports(self):
        from repro.core.ib import MetaDocumentReport

        report = MetaDocumentReport(
            meta_id=0,
            node_count=1,
            internal_edge_count=0,
            strategy="ppo",
            rationale="legacy call site",
            index_bytes=0,
            build_seconds=0.0,
        )
        assert report.profile.worker == "main"
        assert report.profile.busy_seconds == 0.0
