"""Ablation A3: index build time vs collection size, plus the parallel
build comparison.

Section 2.2: "the time to build HOPI superlinearly increases with
increasing number of documents", while PPO "takes time O(|E|)".  This
suite builds the three core strategies over growing DBLP corpora and
asserts the scaling relationship: HOPI's growth factor dominates PPO's.

``test_parallel_build_comparison`` additionally builds the session's
multi-meta-document DBLP workload sequentially and with ``jobs=4`` and
writes the machine-readable comparison to ``BENCH_build_time.json`` at
the repository root (wall clock, per-phase totals, index fingerprints).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.bench.harness import paper_partition_sizes, profile_build
from repro.bench.reporting import BenchTable
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.datasets.dblp import DblpSpec, generate_dblp

SIZES = [100, 200, 400]

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_build_time.json"

_TIMES = {}


@pytest.fixture(scope="module")
def corpora():
    return {size: generate_dblp(DblpSpec(documents=size)) for size in SIZES}


@pytest.mark.parametrize("documents", SIZES)
@pytest.mark.parametrize("strategy", ["hopi", "apex"])
def test_build_scaling_graph_indexes(benchmark, corpora, strategy, documents):
    collection = corpora[documents]

    def build():
        return Flix.build(collection, FlixConfig.monolithic(strategy))

    benchmark.pedantic(build, rounds=2, iterations=1)
    _TIMES[(strategy, documents)] = benchmark.stats.stats.mean
    benchmark.extra_info["elements"] = collection.node_count


@pytest.mark.parametrize("documents", SIZES)
def test_build_scaling_ppo(benchmark, corpora, documents):
    """PPO over the link-free tree view of the same corpus (O(|E|))."""
    collection = corpora[documents]
    from repro.core.config import FlixConfig

    def build():
        return Flix.build(collection, FlixConfig.maximal_ppo())

    benchmark.pedantic(build, rounds=2, iterations=1)
    _TIMES[("ppo", documents)] = benchmark.stats.stats.mean


def test_build_time_shape(benchmark):
    assert len(_TIMES) == 3 * len(SIZES)
    table = BenchTable(
        "Build time scaling (seconds)",
        ["strategy"] + [str(size) for size in SIZES] + ["growth x4 docs"],
    )
    growth = {}
    for strategy in ("hopi", "apex", "ppo"):
        times = [_TIMES[(strategy, size)] for size in SIZES]
        growth[strategy] = times[-1] / max(times[0], 1e-9)
        table.add_row(strategy, *[round(t, 4) for t in times], round(growth[strategy], 2))
    benchmark.pedantic(table.render, rounds=1, iterations=1)
    print()
    print(table.render())

    # every strategy takes longer on more data ...
    for strategy in ("hopi", "apex", "ppo"):
        assert _TIMES[(strategy, SIZES[-1])] > _TIMES[(strategy, SIZES[0])]
    # ... but HOPI's growth factor dominates PPO's (superlinearity claim)
    assert growth["hopi"] > growth["ppo"]


def test_parallel_build_comparison(dblp_collection):
    """Sequential vs jobs=4 on the multi-meta-document workload.

    Emits ``BENCH_build_time.json``.  ``build_executor="process"`` is
    pinned so the worker pool itself is measured (``auto`` would rightly
    degrade to serial on a single-CPU runner and measure nothing); the
    jobs=1 baseline stays serial regardless.

    On a runner the OS grants a *single* CPU, a process pool has zero
    parallel capacity: its wall clock measures fork + pickle overhead,
    nothing else, and publishing it as a "speedup" is misleading (the
    seed BENCH file reported 0.724x that way).  Such runs are skipped and
    the JSON records why in ``parallel_skipped`` instead of a bogus
    parallel run.  Where the pool does run, the determinism guarantee
    (equal index fingerprints across jobs settings) is asserted
    unconditionally; the speedup exceeding 1.0 is asserted only where the
    machine makes that physically possible — enough granted CPUs and a
    workload large enough to amortize pool startup.  ``effective_cpus``
    in the JSON tells the reader what the numbers mean.
    """
    import dataclasses

    from repro.core.ib import _available_cpus

    small, _large = paper_partition_sizes(dblp_collection)
    config = dataclasses.replace(
        FlixConfig.unconnected_hopi(small), build_executor="process"
    )
    single_cpu = _available_cpus() <= 1
    jobs_options = (1,) if single_cpu else (1, 4)
    payload = profile_build(
        dblp_collection, config, jobs_options=jobs_options, repeats=3
    )
    if single_cpu:
        payload["parallel_skipped"] = (
            "effective_cpus == 1: a process pool would measure fork/pickle "
            "overhead with zero parallel capacity; rerun with more granted "
            "CPUs for a meaningful jobs=4 comparison"
        )
    payload["generated_by"] = "benchmarks/bench_build_time.py"
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print()
    for run in payload["runs"]:
        print(
            f"jobs={run['jobs']} ({run['executor']}): "
            f"{run['wall_seconds']:.3f}s wall, speedup {run['speedup']:.2f}x"
        )
    print(f"-> {BENCH_JSON} (effective_cpus={payload['effective_cpus']})")

    assert payload["deterministic"], "jobs=4 produced a different index"
    sequential = payload["runs"][0]
    assert sequential["jobs"] == 1
    assert sequential["executor"] == "serial"
    assert sequential["meta_documents"] > 1
    if single_cpu:
        assert len(payload["runs"]) == 1
        return
    parallel = payload["runs"][1]
    assert parallel["jobs"] == 4
    assert parallel["executor"] == "process"
    assert parallel["meta_documents"] == sequential["meta_documents"]
    assert parallel["speedup"] > 0
    if payload["effective_cpus"] >= 4 and sequential["wall_seconds"] >= 0.3:
        assert parallel["speedup"] > 1.0
