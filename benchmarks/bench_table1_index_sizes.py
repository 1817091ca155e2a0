"""Table 1 reproduction: database storage required by each index.

Paper (section 6, Table 1) on 6,210 DBLP documents / 168,991 elements /
25,368 links:

    index        HOPI   APEX   PPO-naive  HOPI-5000  HOPI-20000  MaximalPPO
    size [MB]    (largest) ...            ~2x APEX   ...         (smallest)

with the transitive closure "more than an order of magnitude" above HOPI.
This suite rebuilds every index fresh (measuring build cost on the way) and
asserts the size ordering the paper reports:

* closure >> monolithic HOPI,
* monolithic HOPI >> every FliX configuration,
* partitioned HOPI in the same ballpark as (about twice) APEX,
* the PPO-based configurations smallest.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import BenchTable
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.storage.sizing import format_bytes

_SIZES = {}


def _build_and_record(benchmark, name, build):
    flix = benchmark.pedantic(build, rounds=1, iterations=1)
    _SIZES[name] = flix.size_bytes()
    benchmark.extra_info["index_bytes"] = flix.size_bytes()
    benchmark.extra_info["meta_documents"] = len(flix.meta_documents)
    return flix


def test_build_transitive_closure(benchmark, dblp_collection, oracle_node_limit):
    if dblp_collection.node_count > oracle_node_limit:
        pytest.skip("materializing the closure at this scale needs gigabytes")
    _build_and_record(
        benchmark,
        "TransitiveClosure",
        lambda: Flix.build(
            dblp_collection, FlixConfig.monolithic("transitive_closure")
        ),
    )


def test_monolithic_hopi_build(benchmark, dblp_collection):
    _build_and_record(
        benchmark,
        "HOPI",
        lambda: Flix.build(dblp_collection, FlixConfig.monolithic("hopi")),
    )


def test_monolithic_apex_build(benchmark, dblp_collection):
    _build_and_record(
        benchmark,
        "APEX",
        lambda: Flix.build(dblp_collection, FlixConfig.monolithic("apex")),
    )


def test_build_ppo_naive(benchmark, dblp_collection):
    _build_and_record(
        benchmark,
        "PPO-naive",
        lambda: Flix.build(dblp_collection, FlixConfig.naive()),
    )


def test_build_hopi_small_partitions(benchmark, dblp_collection, partition_sizes):
    small, _large = partition_sizes
    _build_and_record(
        benchmark,
        f"HOPI-{small}",
        lambda: Flix.build(dblp_collection, FlixConfig.unconnected_hopi(small)),
    )


def test_build_hopi_large_partitions(benchmark, dblp_collection, partition_sizes):
    _small, large = partition_sizes
    _build_and_record(
        benchmark,
        f"HOPI-{large}",
        lambda: Flix.build(dblp_collection, FlixConfig.unconnected_hopi(large)),
    )


def test_build_maximal_ppo(benchmark, dblp_collection):
    _build_and_record(
        benchmark,
        "MaximalPPO",
        lambda: Flix.build(dblp_collection, FlixConfig.maximal_ppo()),
    )


def test_table1_shape(benchmark, partition_sizes):
    """Render the table and assert the paper's size ordering."""
    small, large = partition_sizes
    assert len(_SIZES) >= 6, "build benchmarks must run first (same module)"

    table = BenchTable(
        "Table 1 (reproduced): index sizes", ["index", "size", "bytes"]
    )
    for name, size in sorted(_SIZES.items(), key=lambda kv: -kv[1]):
        table.add_row(name, format_bytes(size), size)
    benchmark.pedantic(table.render, rounds=1, iterations=1)
    print()
    print(table.render())

    hopi = _SIZES["HOPI"]
    apex = _SIZES["APEX"]
    flix_configs = [
        _SIZES["PPO-naive"],
        _SIZES[f"HOPI-{small}"],
        _SIZES[f"HOPI-{large}"],
        _SIZES["MaximalPPO"],
    ]
    # "more than an order of magnitude smaller than ... the closure"
    if "TransitiveClosure" in _SIZES:
        assert _SIZES["TransitiveClosure"] > 5 * hopi
    # "using FliX can save a lot of space as compared to the HOPI index"
    for size in flix_configs:
        assert size < hopi
    # "HOPI-5000 requires only about twice as much space as APEX"
    assert _SIZES[f"HOPI-{small}"] < 4 * apex
    # "Maximal PPO is as space efficient as PPO"
    assert _SIZES["MaximalPPO"] <= 1.2 * _SIZES["PPO-naive"]
