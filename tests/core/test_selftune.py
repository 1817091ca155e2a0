"""Unit tests for the self-tuning monitor."""

import time

import pytest

import repro.core.pee as pee_module
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryBudget, QueryStats
from repro.core.selftune import QueryLoadMonitor


def stats(links=0, visits=1, results=1):
    return QueryStats(
        meta_document_visits=visits,
        link_traversals=links,
        results_returned=results,
    )


class TestMonitor:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            QueryLoadMonitor(window=0)

    def test_means(self):
        monitor = QueryLoadMonitor()
        monitor.record(stats(links=2, visits=3, results=5))
        monitor.record(stats(links=4, visits=1, results=1))
        assert monitor.query_count == 2
        assert monitor.mean_link_traversals == 3.0

    def test_empty_means_are_zero(self):
        monitor = QueryLoadMonitor()
        assert monitor.mean_link_traversals == 0.0

    def test_window_slides(self):
        monitor = QueryLoadMonitor(window=3)
        for links in (100, 0, 0, 0):
            monitor.record(stats(links=links))
        assert monitor.query_count == 3
        assert monitor.mean_link_traversals == 0.0


class TestAdvice:
    def test_not_enough_data(self):
        monitor = QueryLoadMonitor()
        advice = monitor.advice(FlixConfig.naive(), min_queries=5)
        assert not advice.should_rebuild
        assert advice.recommended_config is None

    def test_healthy_load_no_rebuild(self):
        monitor = QueryLoadMonitor()
        for _ in range(30):
            monitor.record(stats(links=1))
        advice = monitor.advice(FlixConfig.naive(), link_traversal_threshold=8.0)
        assert not advice.should_rebuild
        assert "within the threshold" in advice.reason

    def test_link_heavy_load_triggers_rebuild(self):
        monitor = QueryLoadMonitor()
        for _ in range(30):
            monitor.record(stats(links=50))
        config = FlixConfig.unconnected_hopi(1000)
        advice = monitor.advice(config, link_traversal_threshold=8.0)
        assert advice.should_rebuild
        assert advice.recommended_config is not None
        assert advice.recommended_config.partition_size > config.partition_size

    def test_threshold_is_configurable(self):
        monitor = QueryLoadMonitor()
        for _ in range(30):
            monitor.record(stats(links=5))
        strict = monitor.advice(FlixConfig.naive(), link_traversal_threshold=2.0)
        lax = monitor.advice(FlixConfig.naive(), link_traversal_threshold=10.0)
        assert strict.should_rebuild
        assert not lax.should_rebuild


def truncated_zero_stats():
    """The all-zero truncated row the evaluator produces when the budget
    is spent before its first pop (``figure4_search``): no index work."""
    s = QueryStats()
    s._mark("truncated")
    return s


class TestRecordGuard:
    def test_zeroed_truncated_rows_skipped(self):
        monitor = QueryLoadMonitor()
        monitor.record(truncated_zero_stats())
        assert monitor.query_count == 0

    def test_truncated_rows_with_work_recorded(self):
        # a budget that ran out mid-search carries real counters and
        # must keep contributing to the load statistics
        monitor = QueryLoadMonitor()
        s = QueryStats(meta_document_visits=3, link_traversals=2)
        s._mark("truncated")
        monitor.record(s)
        assert monitor.query_count == 1

    def test_zeroed_rows_do_not_dilute_means(self):
        diluted = QueryLoadMonitor()
        clean = QueryLoadMonitor()
        for _ in range(10):
            row = stats(links=10)
            diluted.record(row)
            clean.record(row)
            diluted.record(truncated_zero_stats())
        assert diluted.mean_link_traversals == clean.mean_link_traversals

    def test_deadline_lapsed_before_first_pop_is_skipped(
        self, figure1_collection, monkeypatch
    ):
        """The evaluator's own source of the all-zero row: a deadline
        that lapses before the first pop stops the search untouched."""

        class SteppingClock:
            """Every ``monotonic()`` read is a second later than the last."""

            now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

            def __getattr__(self, name):
                return getattr(time, name)

        flix = Flix.build(figure1_collection, FlixConfig.naive())
        start = figure1_collection.document_root("d05.xml")
        monkeypatch.setattr(pee_module, "time", SteppingClock())
        response = flix.query(
            QueryRequest.descendants(start),
            budget=QueryBudget(deadline_seconds=0.5),
        )
        assert response.completeness == "truncated"
        assert response.results == []
        assert response.stats.queue_pops == 0
        assert flix.monitor.query_count == 0
