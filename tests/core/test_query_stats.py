"""Per-query statistics isolation.

Every query carries its own :class:`QueryStats` on the returned
:class:`QueryStream` (and on the ``QueryResponse`` built from it); the
evaluator keeps no shared counters, so two in-flight queries never
scramble each other's numbers.
"""

import itertools

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryStats, QueryStream


@pytest.fixture(scope="module")
def flix(figure1_collection):
    return Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))


@pytest.fixture(scope="module")
def roots(figure1_collection):
    return [
        figure1_collection.document_root(name)
        for name in ("d01.xml", "d05.xml", "d08.xml")
    ]


class TestPerQueryStats:
    def test_stream_carries_its_own_stats(self, flix, roots):
        stream = flix.pee.find_descendants(roots[0])
        assert isinstance(stream, QueryStream)
        assert isinstance(stream.stats, QueryStats)
        results = list(stream)
        assert stream.stats.results_returned == len(results)

    def test_interleaved_queries_do_not_share_counters(self, flix, roots):
        """Consume two streams alternately; each must count only its own
        results — the exact scenario the shared-counter bug corrupted."""
        baseline = {}
        for root in roots[:2]:
            stream = flix.pee.find_descendants(root)
            list(stream)
            baseline[root] = stream.stats.snapshot()

        first = flix.pee.find_descendants(roots[0])
        second = flix.pee.find_descendants(roots[1])
        for a, b in itertools.zip_longest(first, second):
            pass
        for root, stream in ((roots[0], first), (roots[1], second)):
            assert stream.stats.results_returned == baseline[root].results_returned
            assert (
                stream.stats.meta_document_visits
                == baseline[root].meta_document_visits
            )
            assert stream.stats.link_traversals == baseline[root].link_traversals

    def test_last_stats_is_a_stable_snapshot(self, flix, roots):
        """A finished stream's stats are final: a later query on the same
        evaluator never mutates them."""
        first = flix.pee.find_descendants(roots[0])
        list(first)
        final = first.stats.snapshot()
        later = flix.pee.find_descendants(roots[1])
        list(later)
        assert first.stats == final
        assert later.stats is not first.stats

    def test_covered_probes_counted(self, flix, roots):
        """Duplicate elimination probes previously visited entries; on the
        link-rich figure 1 collection some query must probe at least once."""
        total = 0
        for root in roots:
            stream = flix.pee.find_descendants(root)
            list(stream)
            total += stream.stats.covered_probes
        assert total > 0

    def test_framework_aggregates_multi_step_stats(self, flix, figure1_collection):
        """``find_path`` runs one search per query step; the response's
        stats must be the merged counters of all steps, not just the final
        step's."""
        start = figure1_collection.document_root("d01.xml")
        response = flix.query(QueryRequest.find_path(start, ["item", "link"]))
        results = list(response.results)
        assert results
        assert response.stats.results_returned >= len(results)
        assert response.stats.meta_document_visits >= 2  # one per step minimum

    def test_merge_sums_every_counter(self):
        left = QueryStats(1, 2, 3, 4, 5, 6)
        right = QueryStats(10, 20, 30, 40, 50, 60)
        left.merge(right)
        assert left == QueryStats(11, 22, 33, 44, 55, 66)
        # merge leaves the source untouched
        assert right == QueryStats(10, 20, 30, 40, 50, 60)

    def test_snapshot_is_independent(self):
        stats = QueryStats(results_returned=7)
        frozen = stats.snapshot()
        stats.results_returned = 99
        assert frozen.results_returned == 7
