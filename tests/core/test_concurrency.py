"""Concurrency stress tests for the multithreaded delivery path."""

import sys
import threading

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.results import StreamedList
from repro.indexes.hopi import HopiIndex
from repro.indexes.packed import packed_clone
from repro.indexes.ppo import PpoIndex
from tests.conftest import random_tags, random_tree


def _streamed(flix, start):
    """Background-thread delivery of ``start``'s descendants."""
    return StreamedList.feed(
        flix.query_stream(QueryRequest.descendants(start))
    )


class TestParallelStreams:
    def test_eight_concurrent_streamed_queries(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        roots = [
            figure1_collection.document_root(name)
            for name in sorted(figure1_collection.documents)
        ][:8]
        expected = {
            root: [
                r.node
                for r in flix.query_stream(QueryRequest.descendants(root))
            ]
            for root in roots
        }
        streams = {root: _streamed(flix, root) for root in roots}
        collected = {}
        errors = []

        def consume(root):
            try:
                collected[root] = [r.node for r in streams[root]]
            except Exception as error:  # pragma: no cover - failure path
                errors.append((root, error))

        threads = [
            threading.Thread(target=consume, args=(root,)) for root in roots
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        for root in roots:
            assert collected[root] == expected[root]

    def test_concurrent_synchronous_queries_are_isolated(self, figure1_collection):
        """Each query builds its own evaluator state; interleaving many
        synchronous queries from threads must not cross-contaminate."""
        flix = Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))
        roots = [
            figure1_collection.document_root(name)
            for name in sorted(figure1_collection.documents)
        ]
        expected = {
            root: {
                r.node
                for r in flix.query_stream(QueryRequest.descendants(root))
            }
            for root in roots
        }
        failures = []

        def worker(root):
            stream = _streamed(flix, root)
            got = {r.node for r in stream}
            if got != expected[root]:
                failures.append(root)

        threads = [
            threading.Thread(target=worker, args=(root,))
            for root in roots
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert failures == []

    def test_cancellation_under_load(self, dblp_collection):
        from repro.datasets.dblp import find_aries

        flix = Flix.build(dblp_collection, FlixConfig.unconnected_hopi(100))
        aries = find_aries(dblp_collection)
        streams = [_streamed(flix, aries) for _ in range(4)]
        for stream in streams[:2]:
            stream.cancel()
        # non-cancelled streams complete fully
        full = [r.node for r in streams[2]]
        assert full
        # cancelled streams close without hanging
        for stream in streams[:2]:
            list(stream)
            assert stream.closed


class TestPackedPromotionRace:
    """Serving threads that race a packed index's first-probe promotion
    must all get an answer: whoever sees the promotion's gate set must
    also see the probe closures it installs."""

    @pytest.mark.parametrize("build", [PpoIndex.build, HopiIndex.build])
    def test_first_probes_from_many_threads(self, build):
        graph = random_tree(7, 40)
        built = build(graph, random_tags(7, 40))
        expected = built.distance(0, 39)
        workers = 8
        errors = []

        def probe(index, barrier):
            try:
                barrier.wait(timeout=10)
                assert index.distance(0, 39) == expected
                assert index.reachable(0, 39) == (expected is not None)
            except BaseException as error:  # RecursionError at the parent
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                index = packed_clone(built)  # fresh: nothing promoted yet
                barrier = threading.Barrier(workers)
                threads = [
                    threading.Thread(target=probe, args=(index, barrier))
                    for _ in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:1]
