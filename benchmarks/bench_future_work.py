"""Ablations for the section 7 (future work) features we implemented.

* **Exactly sorted results** ("returning results exactly sorted instead of
  approximately"): measures the cost of the ordering guarantee — time to
  the first result grows because results are buffered until final, while
  the total time stays comparable and the stream becomes inversion-free.
* **Result caching** ("caching results of frequent (sub-)queries"):
  repeated queries are answered from the LRU cache at a fraction of the
  evaluation cost.
* **Incremental growth** (the HOPI follow-up work): adding a document via
  ``Flix.add_document`` — which builds only the touched meta document's
  index — is much cheaper than rebuilding the whole index.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import order_error_rate, time_to_k
from repro.core.api import QueryRequest
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.datasets.dblp import DblpSpec, generate_dblp, generate_dblp_documents


def test_exact_order_tradeoff(benchmark, dblp_collection, oracle, fig5):
    flix = Flix.build(dblp_collection, FlixConfig.unconnected_hopi(300))
    start, tag = fig5

    approx = QueryRequest.descendants(start, tag=tag)
    exact = QueryRequest.descendants(start, tag=tag, exact_order=True)

    def run_exact():
        return list(flix.query_stream(exact))

    exact_results = benchmark.pedantic(run_exact, rounds=3, iterations=1)
    approx_results = list(flix.query_stream(approx))

    # same answers, zero inversions in the exact stream
    assert {r.node for r in exact_results} == {r.node for r in approx_results}
    distances = [r.distance for r in exact_results]
    assert distances == sorted(distances)

    exact_first = time_to_k(lambda: flix.query_stream(exact), [1])[1]
    approx_first = time_to_k(lambda: flix.query_stream(approx), [1])[1]
    benchmark.extra_info["exact_first_ms"] = round(exact_first * 1000, 3)
    benchmark.extra_info["approx_first_ms"] = round(approx_first * 1000, 3)
    # the ordering guarantee costs the early-first-results advantage
    assert exact_first >= approx_first * 0.5  # never dramatically cheaper

    # ordering by reported distance can only reduce the true-order error
    assert order_error_rate(exact_results, oracle, start) <= order_error_rate(
        approx_results, oracle, start
    )


def test_cache_effectiveness(benchmark, dblp_collection, fig5):
    flix = Flix.build(dblp_collection, FlixConfig.unconnected_hopi(300))
    flix.configure_cache(CacheConfig(maxsize=64, shards=1))
    start, tag = fig5

    cold_started = time.perf_counter()
    cold = list(flix.query_stream(QueryRequest.descendants(start, tag=tag)))
    cold_seconds = time.perf_counter() - cold_started

    def warm():
        return list(flix.query_stream(QueryRequest.descendants(start, tag=tag)))

    warm_results = benchmark.pedantic(warm, rounds=5, iterations=1)
    assert warm_results == cold
    assert flix.cache_hits >= 5
    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["cold_ms"] = round(cold_seconds * 1000, 3)
    benchmark.extra_info["warm_ms"] = round(warm_seconds * 1000, 3)
    assert warm_seconds < cold_seconds


def test_incremental_document_addition_vs_rebuild(benchmark):
    spec = DblpSpec(documents=200)
    documents = generate_dblp_documents(spec)
    from repro.collection.builder import build_collection

    base = build_collection(documents[:-1])
    flix = Flix.build(base, FlixConfig.naive())

    def add():
        # add_document mutates; time a fresh copy each round via rebuild of
        # the base once (rounds=1 keeps this honest)
        flix.add_document(documents[-1])
        return flix

    benchmark.pedantic(add, rounds=1, iterations=1)
    incremental_seconds = benchmark.stats.stats.mean

    rebuild_started = time.perf_counter()
    full = build_collection(documents)
    Flix.build(full, FlixConfig.naive())
    rebuild_seconds = time.perf_counter() - rebuild_started
    benchmark.extra_info["incremental_ms"] = round(incremental_seconds * 1000, 2)
    benchmark.extra_info["rebuild_ms"] = round(rebuild_seconds * 1000, 2)
    assert incremental_seconds < rebuild_seconds


def test_persisted_load_vs_rebuild(benchmark, dblp_collection, tmp_path_factory):
    """Restart story: Flix.load from disk vs rebuilding from documents."""
    directory = tmp_path_factory.mktemp("flix_idx")
    flix = Flix.build(dblp_collection, FlixConfig.hybrid(300))
    flix.save(directory)

    loaded = benchmark.pedantic(
        lambda: Flix.load(dblp_collection, directory), rounds=2, iterations=1
    )
    load_seconds = benchmark.stats.stats.mean

    rebuild_started = time.perf_counter()
    Flix.build(dblp_collection, FlixConfig.hybrid(300))
    rebuild_seconds = time.perf_counter() - rebuild_started
    benchmark.extra_info["load_ms"] = round(load_seconds * 1000, 2)
    benchmark.extra_info["rebuild_ms"] = round(rebuild_seconds * 1000, 2)

    # the loaded index answers like the original
    from repro.datasets.dblp import find_aries

    aries = find_aries(dblp_collection)
    request = QueryRequest.descendants(aries, tag="article")
    assert [r.node for r in loaded.query_stream(request)] == [
        r.node for r in flix.query_stream(request)
    ]
