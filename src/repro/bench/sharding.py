"""Multi-process sharded-serving benchmark (shared by CLI and suite).

What this measures
------------------
``profile_concurrent_queries`` (PR 4) showed cold throughput flattening
between 4 and 8 *threads*: once the injected I/O stalls overlap, the GIL
serializes everything else.  This harness extends the same methodology
across *processes*: N shard workers each mmap-attach the saved packed
index (``docs/DATA_LAYOUT.md`` — one page-cache copy shared by all of
them) and a :class:`~repro.shard.coordinator.ShardCoordinator` drives
the request mix through them concurrently.

The latency model is inherited unchanged from :mod:`repro.bench.serving`
and applied symmetrically: the serial baseline *and* every shard worker
wrap their evaluator in the same
:class:`~repro.bench.serving.LatencyEvaluator` stall (via
``FLIX_SHARD_LATENCY_MS``), modeling the storage round trip of a disk-
or network-backed index.  The serial pass pays every stall sequentially;
N worker processes pay them concurrently — so cold throughput scales
with shards for the same reason a real I/O-bound fleet scales, and the
numbers stay meaningful on a single-core CI runner (pure-CPU work could
not show honest process scaling there).

The request mix contains **no repeats**, so caches cannot flatter the
cold numbers: cold rps is all misses end-to-end.  The warm pass repeats
the mix against the coordinator's primed result cache.

Integrity: every configuration's responses are fingerprint-compared to
the serial ``Flix.query`` baseline, and a dedicated parity pass checks
all eight ``QueryRequest`` kinds individually.
"""

from __future__ import annotations

import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.serving import LatencyEvaluator, _fingerprint
from repro.collection.io import save_collection
from repro.core.api import QueryRequest
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.datasets.dblp import DblpSpec, generate_dblp
from repro.shard.coordinator import ShardCoordinator
from repro.shard.plan import ShardPlanner, write_shard_map
from repro.shard.worker import WorkerProcess, spawn_worker


def build_request_mix(collection) -> List[QueryRequest]:
    """A repeat-free, delegation-shaped request list over ``collection``.

    One evaluator call (= one injected stall) per request, so serial
    time ≈ requests × latency and ideal N-shard time ≈ serial / N.
    """
    roots = [
        collection.document_root(name) for name in sorted(collection.documents)
    ]
    requests: List[QueryRequest] = []
    for index, root in enumerate(roots):
        other = roots[(index + 1) % len(roots)]
        requests.append(QueryRequest.descendants(root))
        requests.append(QueryRequest.descendants(root, tag="author"))
        requests.append(QueryRequest.descendants(root, tag="title"))
        requests.append(QueryRequest.ancestors(root + 1))
        requests.append(QueryRequest.ancestors(root + 2))
        requests.append(QueryRequest.test(root, other))
        requests.append(QueryRequest.test(root + 1, other))
        requests.append(QueryRequest.type_query("article", tag="author")
                        if index == 0 else QueryRequest.descendants(root + 1))
    return requests


def parity_requests(collection) -> List[Tuple[str, QueryRequest]]:
    """One request per ``QueryRequest`` kind/form."""
    roots = [
        collection.document_root(name) for name in sorted(collection.documents)
    ]
    a, b = roots[0], roots[1 % len(roots)]
    return [
        ("descendants", QueryRequest.descendants(a)),
        ("type_query", QueryRequest.type_query("article", tag="author")),
        ("ancestors", QueryRequest.ancestors(a + 1)),
        ("children", QueryRequest.children(a)),
        ("path", QueryRequest.find_path(a, ["author"])),
        ("connections", QueryRequest.connections(a)),
        ("cost", QueryRequest.cost(a, b)),
        ("test", QueryRequest.test(a, b)),
    ]


def _response_signature(response) -> str:
    return json.dumps(
        {
            "results": [repr(row) for row in response.results],
            "value": response.value,
            "completeness": response.completeness,
        },
        default=repr,
    )


def profile_sharded_queries(
    documents: int = 16,
    lookup_latency_seconds: float = 0.01,
    shard_counts: Sequence[int] = (2, 4, 8),
    repeats: int = 2,
    drivers_per_shard: int = 2,
    work_dir: Optional[Path] = None,
) -> Dict:
    """Serial vs N-shard-process throughput, parity, and cache effect.

    Builds one packed DBLP deployment, saves it once, then for each shard
    count: plans the shard map, spawns that many worker subprocesses
    (each with the injected stall), and drives the repeat-free mix
    through a coordinator with ``drivers_per_shard × N`` threads.
    """
    scratch = tempfile.TemporaryDirectory() if work_dir is None else None
    base = Path(scratch.name if scratch is not None else work_dir)
    try:
        collection = generate_dblp(DblpSpec(documents=documents, seed=7))
        flix = Flix.build(collection, FlixConfig.naive())
        collection_dir = base / "collection"
        index_dir = base / "index"
        save_collection(collection, collection_dir)
        flix.save(index_dir)

        requests = build_request_mix(collection)
        parity = parity_requests(collection)

        # serial baseline: same stall, one process, sequential
        flix.pee = LatencyEvaluator(flix.pee, lookup_latency_seconds)
        serial_started = time.perf_counter()
        baseline = [flix.query(request) for request in requests]
        serial_seconds = time.perf_counter() - serial_started
        expected = _fingerprint(baseline)
        parity_expected = {
            name: _response_signature(flix.query(request))
            for name, request in parity
        }

        runs = []
        all_identical = True
        parity_all = True
        for shards in shard_counts:
            write_shard_map(ShardPlanner(shards).plan(flix), index_dir)
            workers: List[WorkerProcess] = [
                spawn_worker(
                    collection_dir, index_dir, shard,
                    latency_seconds=lookup_latency_seconds,
                )
                for shard in range(shards)
            ]
            coordinator = ShardCoordinator.connect(
                index_dir,
                [(worker.host, worker.port) for worker in workers],
                cache=CacheConfig(maxsize=4096, shards=8),
            )
            drivers = max(2, drivers_per_shard * shards)
            try:
                with ThreadPoolExecutor(max_workers=drivers) as pool:
                    # one throwaway pass warms worker connections/pages
                    list(pool.map(coordinator.query, requests[:drivers]))
                    cold_seconds = 0.0
                    cold_identical = True
                    for _ in range(repeats):
                        coordinator.invalidate_cache()
                        started = time.perf_counter()
                        responses = list(pool.map(coordinator.query, requests))
                        cold_seconds += time.perf_counter() - started
                        cold_identical &= _fingerprint(responses) == expected
                    cold_seconds /= repeats

                    # warm: the cache now holds every cacheable answer
                    started = time.perf_counter()
                    responses = list(pool.map(coordinator.query, requests))
                    warm_seconds = time.perf_counter() - started
                    warm_identical = _fingerprint(responses) == expected

                kind_parity = {
                    name: _response_signature(coordinator.query(request))
                    == parity_expected[name]
                    for name, request in parity
                }
                cache_stats = coordinator.cache_stats()
            finally:
                coordinator.shutdown_workers()
                coordinator.close()
                for worker in workers:
                    worker.close()

            identical = cold_identical and warm_identical
            all_identical &= identical
            parity_all &= all(kind_parity.values())
            runs.append(
                {
                    "shards": shards,
                    "cold_seconds": round(cold_seconds, 6),
                    "cold_rps": round(len(requests) / cold_seconds, 2),
                    "warm_seconds": round(warm_seconds, 6),
                    "warm_rps": round(len(requests) / warm_seconds, 2),
                    "identical_to_serial": identical,
                    "parity_by_kind": kind_parity,
                    "cache_hits": cache_stats.hits,
                    "cache_misses": cache_stats.misses,
                }
            )

        max_shards = max(run["shards"] for run in runs)
        best = next(run for run in runs if run["shards"] == max_shards)
        serial_rps = len(requests) / serial_seconds
        return {
            "benchmark": "sharded_queries",
            "documents": documents,
            "requests": len(requests),
            "lookup_latency_seconds": lookup_latency_seconds,
            "repeats": repeats,
            "serial_seconds": round(serial_seconds, 6),
            "serial_rps": round(serial_rps, 2),
            "runs": runs,
            "speedup_max_shards_vs_serial": round(
                best["cold_rps"] / serial_rps, 2
            ),
            "all_results_identical_to_serial": all_identical,
            "parity_all_kinds": parity_all,
        }
    finally:
        if scratch is not None:
            scratch.cleanup()


def render_sharded_profile(profile: Dict) -> str:
    """A human-readable table of :func:`profile_sharded_queries`."""
    lines = [
        f"sharded serving: {profile['requests']} unique requests over "
        f"{profile['documents']} documents "
        f"({profile['lookup_latency_seconds'] * 1000:.2f}ms injected "
        "lookup latency, per worker process)",
        f"serial baseline: {profile['serial_rps']:.0f} req/s",
        f"{'shards':>8} {'cold req/s':>12} {'warm req/s':>12} "
        f"{'identical':>10} {'all kinds':>10}",
    ]
    for run in profile["runs"]:
        lines.append(
            f"{run['shards']:>8} {run['cold_rps']:>12.0f} "
            f"{run['warm_rps']:>12.0f} "
            f"{'yes' if run['identical_to_serial'] else 'NO':>10} "
            f"{'yes' if all(run['parity_by_kind'].values()) else 'NO':>10}"
        )
    lines.append(
        f"speedup at {profile['runs'][-1]['shards']} shard processes vs "
        f"serial (cold): {profile['speedup_max_shards_vs_serial']}x"
    )
    return "\n".join(lines)


__all__ = [
    "build_request_mix",
    "parity_requests",
    "profile_sharded_queries",
    "render_sharded_profile",
]
