"""Ablation A3: index build time vs collection size.

Section 2.2: "the time to build HOPI superlinearly increases with
increasing number of documents", while PPO "takes time O(|E|)".  This
suite builds the three core strategies over growing DBLP corpora and
asserts the scaling relationship: HOPI's growth factor dominates PPO's.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import BenchTable
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.datasets.dblp import DblpSpec, generate_dblp

SIZES = [100, 200, 400]

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
