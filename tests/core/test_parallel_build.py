"""Determinism and plumbing tests for the parallel Index Builder.

The acceptance bar: a build with ``jobs`` > 1 must be indistinguishable
from a sequential build in everything except timing — same ``meta_of``,
same strategy choices, same per-meta index sizes, byte-for-byte identical
index blobs.  The pool runs only when more than one CPU is granted, so
the tests that exercise it pin ``ib._available_cpus``: single-CPU CI
runners still cover the pickle round trip.
"""

import dataclasses
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import ib
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.ib import BuildProfile, IndexBuilder
from repro.core.links import residual_links
from repro.core.mdb import MetaDocumentBuilder


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the builder see ``n`` granted CPUs."""
    return lambda n: monkeypatch.setattr(ib, "_available_cpus", lambda: n)


@pytest.fixture(scope="module")
def sequential(figure1_collection):
    return Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))


class TestParity:
    """jobs=4 (process pool) vs the sequential baseline."""

    @pytest.fixture(scope="class")
    def parallel(self, figure1_collection):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ib, "_available_cpus", lambda: 2)
            return Flix.build(
                figure1_collection, FlixConfig.unconnected_hopi(60), jobs=4
            )

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


class TestPoolFailures:
    def test_failing_task_never_reruns_in_the_parent(
        self, figure1_collection, break_build, cpus, tmp_path
    ):
        """A task that raises retires the pool and propagates: no serial
        rerun in the parent, no other executor tried."""
        from repro.indexes.ppo import PpoIndex

        cpus(2)
        pids = tmp_path / "pids"
        break_build(PpoIndex, record=pids)
        with pytest.raises(RuntimeError, match="injected ppo build failure"):
            Flix.build(figure1_collection, FlixConfig.naive(), jobs=2)
        ran_in = pids.read_text().split()
        assert ran_in, "the pool never ran the build"
        assert str(os.getpid()) not in ran_in
        assert ib._POOL_CACHE is None

    @pytest.mark.parametrize("error", [OSError, BrokenProcessPool])
    def test_pool_that_cannot_start_builds_serially(
        self, error, sequential, figure1_collection, cpus, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise error("no worker can start")

        cpus(2)
        monkeypatch.setattr(ib, "_shared_process_pool", refuse)
        flix = Flix.build(
            figure1_collection, FlixConfig.unconnected_hopi(60), jobs=2
        )
        assert flix.report.executor == "serial"
        assert flix.index_fingerprint() == sequential.index_fingerprint()


class TestSerialPaths:
    def test_jobs_one_stays_serial(self, figure1_collection, cpus):
        cpus(2)
        flix = Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))
        assert flix.report.jobs == 1
        assert flix.report.executor == "serial"
        for meta in flix.report.meta_documents:
            assert meta.profile.worker == "main"

    def test_single_meta_document_skips_pool(self, figure1_collection, cpus):
        cpus(2)
        flix = Flix.build(
            figure1_collection, FlixConfig.unconnected_hopi(100_000), jobs=4
        )
        assert len(flix.meta_documents) == 1
        assert flix.report.executor == "serial"

    def test_single_cpu_stays_serial(self, sequential, figure1_collection, cpus):
        cpus(1)
        flix = Flix.build(
            figure1_collection, FlixConfig.unconnected_hopi(60), jobs=8
        )
        assert flix.report.jobs == 8
        assert flix.report.executor == "serial"
        assert flix.index_fingerprint() == sequential.index_fingerprint()


class TestConfigPlumbing:
    def test_jobs_is_an_argument_of_the_build_call(
        self, sequential, figure1_collection, cpus
    ):
        """The index is the same at any ``jobs``, so the configuration
        (and its saved manifest) carries none."""
        fields = {f.name for f in dataclasses.fields(FlixConfig)}
        assert not fields & {"jobs", "build_executor"}
        cpus(2)
        config = FlixConfig.unconnected_hopi(60)
        for jobs, executor in ((1, "serial"), (2, "process")):
            flix = Flix.build(figure1_collection, config, jobs=jobs)
            assert (flix.report.jobs, flix.report.executor) == (jobs, executor)
            assert flix.index_fingerprint() == sequential.index_fingerprint()

    def test_invalid_jobs_rejected(self, figure1_collection):
        config = FlixConfig.unconnected_hopi(60)
        with pytest.raises(ValueError):
            Flix.build(figure1_collection, config, jobs=0)
        builder = IndexBuilder(figure1_collection, config)
        specs = MetaDocumentBuilder(figure1_collection, config).build_specs()
        with pytest.raises(ValueError):
            builder.build(specs, jobs=0)


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
