"""Build-time resilience: retries, strategy fallback, absorbed failures.

The Index Builder's failure ladder under a resilience config: retry the
selected strategy in place, fall back to the safe strategy, and as a last
resort hand the meta document to the PEE unindexed (query-time BFS).
Without a resilience config the first failure stays fatal, as before.

Failures are injected at the strategy (the ``break_build`` fixture).
``FlixConfig.naive`` selects ppo for every meta document of the figure-1
collection, and ``transitive_closure`` is the ladder's fallback strategy.
"""

import pytest

from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.indexes.ppo import PpoIndex
from repro.indexes.transitive import TransitiveClosureIndex
from repro.storage.errors import TransientStorageError


def results_of(stream):
    return [(r.node, r.distance) for r in stream]


class TestStrategyFallback:
    def test_falls_back_to_safe_strategy(
        self, figure1_collection, break_build
    ):
        break_build(PpoIndex)
        config = FlixConfig.naive().with_resilience()
        flix = Flix.build(figure1_collection, config)
        assert all(
            meta.strategy == "transitive_closure"
            for meta in flix.meta_documents
        )
        report = flix.report
        assert report.fallback_count == len(flix.meta_documents)
        assert report.failures  # absorbed failures are named, not silent
        for meta_report in report.meta_documents:
            assert meta_report.fallback_from == "ppo"
            assert meta_report.attempts > 1
        assert "absorbed failures" in report.summary()

    def test_fallback_results_match_healthy_build(
        self, figure1_collection, break_build
    ):
        healthy = Flix.build(figure1_collection, FlixConfig.naive())
        break_build(PpoIndex)
        config = FlixConfig.naive().with_resilience()
        fellback = Flix.build(figure1_collection, config)
        for name in sorted(figure1_collection.documents)[:4]:
            start = figure1_collection.document_root(name)
            assert results_of(fellback.pee.find_descendants(start)) == (
                results_of(healthy.pee.find_descendants(start))
            )

    def test_without_resilience_failure_is_fatal(
        self, figure1_collection, break_build
    ):
        break_build(PpoIndex)
        with pytest.raises(TransientStorageError):
            Flix.build(figure1_collection, FlixConfig.naive())


class TestUnindexedLastResort:
    def build_unindexed(self, collection, break_build, **config_overrides):
        break_build(PpoIndex)
        break_build(TransitiveClosureIndex)
        config = FlixConfig.naive().with_resilience(**config_overrides)
        return Flix.build(collection, config)

    def test_every_strategy_failing_leaves_meta_unindexed(
        self, figure1_collection, break_build
    ):
        flix = self.build_unindexed(figure1_collection, break_build)
        assert all(meta.index is None for meta in flix.meta_documents)
        report = flix.report
        assert report.unindexed_count == len(flix.meta_documents)
        assert all(m.error for m in report.meta_documents)

    def test_unindexed_metas_answer_queries_degraded(
        self, figure1_collection, break_build
    ):
        healthy = Flix.build(figure1_collection, FlixConfig.naive())
        flix = self.build_unindexed(figure1_collection, break_build)
        for name in sorted(figure1_collection.documents)[:4]:
            start = figure1_collection.document_root(name)
            stream = flix.pee.find_descendants(start)
            assert results_of(stream) == results_of(
                healthy.pee.find_descendants(start)
            )
            assert stream.completeness == "degraded"

    def test_disabled_fallback_strategy_skips_ladder_rung(
        self, figure1_collection, break_build
    ):
        # only ppo is broken: the fallback strategy would have built
        break_build(PpoIndex)
        config = FlixConfig.naive().with_resilience(
            build_fallback_strategy=None
        )
        flix = Flix.build(figure1_collection, config)
        assert all(meta.index is None for meta in flix.meta_documents)
        assert flix.report.fallback_count == 0


class TestBuildRetries:
    def test_transient_build_failure_retried_in_place(
        self, figure1_collection, break_build
    ):
        # the first ppo build dies once; the ladder's first rung — one
        # more attempt on fresh scratch tables — absorbs it
        break_build(PpoIndex, first=1)
        config = FlixConfig.naive().with_resilience()
        flix = Flix.build(figure1_collection, config)
        assert all(meta.strategy == "ppo" for meta in flix.meta_documents)
        assert flix.report.fallback_count == 0
        assert [m.attempts for m in flix.report.meta_documents] == (
            [2] + [1] * (len(flix.meta_documents) - 1)
        )
        assert len(flix.report.failures) == 1

    def test_fingerprint_identical_to_fault_free(
        self, figure1_collection, break_build
    ):
        clean = Flix.build(figure1_collection, FlixConfig.naive())
        break_build(PpoIndex, first=1)
        config = FlixConfig.naive().with_resilience()
        shaken = Flix.build(figure1_collection, config)
        assert shaken.index_fingerprint() == clean.index_fingerprint()


class TestParallelExecutors:
    @pytest.mark.parametrize(
        ("jobs", "executor"),
        [(1, "auto"), (2, "auto"), (2, "thread"), (2, "process")],
        ids=["1", "2", "thread", "process"],
    )
    def test_fallback_identical_across_executors(
        self, figure1_collection, break_build, jobs, executor
    ):
        healthy = Flix.build(figure1_collection, FlixConfig.naive())
        break_build(PpoIndex)
        config = (
            FlixConfig.naive()
            .with_resilience()
            .with_jobs(jobs, build_executor=executor)
        )
        flix = Flix.build(figure1_collection, config)
        if executor != "auto":
            assert flix.report.executor == executor
        assert all(
            meta.strategy == "transitive_closure"
            for meta in flix.meta_documents
        )
        assert flix.report.fallback_count == len(flix.meta_documents)
        # the fallen-back index answers like the healthy one, whichever
        # executor ran the ladder
        for name in sorted(figure1_collection.documents)[:4]:
            start = figure1_collection.document_root(name)
            assert results_of(flix.pee.find_descendants(start)) == (
                results_of(healthy.pee.find_descendants(start))
            )
