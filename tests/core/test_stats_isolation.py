"""Regression: per-query stats are owned by the stream, never shared.

Evaluator-level counters would let two interleaved streams (or two
threads) blend their numbers.  The contract: every ``QueryStream``
carries its own private :class:`QueryStats`, and the evaluator keeps no
copy of it.
"""

from __future__ import annotations

import threading

from repro.core.api import QueryRequest


class TestInterleavedStreams:
    def test_two_interleaved_streams_keep_private_stats(
        self, figure1_flix, figure1_collection
    ):
        names = sorted(figure1_collection.documents)
        start_a = figure1_collection.document_root(names[0])
        start_b = figure1_collection.document_root(names[1])
        pee = figure1_flix.pee

        stream_a = pee.find_descendants(start_a)
        stream_b = pee.find_descendants(start_b)
        # interleave: one result from each, alternating, until both dry
        drained_a = drained_b = False
        count_a = count_b = 0
        while not (drained_a and drained_b):
            if not drained_a:
                try:
                    next(iter(stream_a))
                    count_a += 1
                except StopIteration:
                    drained_a = True
            if not drained_b:
                try:
                    next(iter(stream_b))
                    count_b += 1
                except StopIteration:
                    drained_b = True
            # mid-flight: each stream's stats count only its own results
            assert stream_a.stats.results_returned == count_a
            assert stream_b.stats.results_returned == count_b

        assert stream_a.stats.results_returned == count_a
        assert stream_b.stats.results_returned == count_b
        # the streams found different amounts of work; had they shared a
        # stats object both would report the blended total
        assert stream_a.stats is not stream_b.stats

    def test_abandoned_stream_does_not_pollute_later_queries(
        self, figure1_flix, figure1_collection
    ):
        start = figure1_collection.document_root(
            sorted(figure1_collection.documents)[0]
        )
        pee = figure1_flix.pee
        abandoned = pee.find_descendants(start)
        next(iter(abandoned))  # consume one result, then walk away
        fresh = pee.find_descendants(start)
        results = list(fresh)
        assert fresh.stats.results_returned == len(results)

    def test_hammer_two_threads_interleaving_streams(
        self, figure1_flix, figure1_collection
    ):
        """Two threads each run many streams; every stream's stats must
        equal its own result count, never the neighbour's."""
        names = sorted(figure1_collection.documents)
        starts = [figure1_collection.document_root(n) for n in names[:4]]
        pee = figure1_flix.pee
        errors = []
        barrier = threading.Barrier(2)

        def hammer(start_nodes) -> None:
            try:
                barrier.wait()
                for _ in range(25):
                    for start in start_nodes:
                        stream = pee.find_descendants(start)
                        count = sum(1 for _ in stream)
                        if stream.stats.results_returned != count:
                            errors.append(
                                (start, count, stream.stats.results_returned)
                            )
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        thread_a = threading.Thread(target=hammer, args=(starts[:2],))
        thread_b = threading.Thread(target=hammer, args=(starts[2:],))
        thread_a.start()
        thread_b.start()
        thread_a.join()
        thread_b.join()
        assert not errors

    def test_response_stats_are_snapshots(self, cached_flix,
                                          linked_collection):
        """A QueryResponse's stats are final: a later query never shares
        or moves them."""
        start = linked_collection.document_root("a.xml")
        response = cached_flix.query(QueryRequest.descendants(start, tag="p"))
        final = response.stats.snapshot()
        later = cached_flix.query(QueryRequest.descendants(start))
        assert later.stats is not response.stats
        assert response.stats == final
