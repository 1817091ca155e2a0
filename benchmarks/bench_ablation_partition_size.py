"""Ablation A1: Unconnected-HOPI partition-size sweep.

The paper evaluates two partition sizes (5,000 and 20,000 nodes) and
observes the trade-off qualitatively: larger partitions mean fewer run-time
link traversals (more of the connection structure is inside one index) at
the cost of larger indexes; smaller partitions are leaner and faster to the
first result.  This ablation sweeps the size knob across a factor of 64 and
asserts the monotone parts of that trade-off.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import BenchTable
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix

FRACTIONS = [0.01, 0.04, 0.16, 0.64]

_ROWS = {}


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_partition_size(benchmark, dblp_collection, fig5, fraction):
    size = max(20, round(dblp_collection.node_count * fraction))
    flix = Flix.build(dblp_collection, FlixConfig.unconnected_hopi(size))
    start, tag = fig5

    def run():
        return list(flix.query_stream(QueryRequest.descendants(start, tag=tag)))

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert results
    stats = flix.query(QueryRequest.descendants(start, tag=tag)).stats
    _ROWS[fraction] = {
        "partition_size": size,
        "meta_documents": len(flix.meta_documents),
        "index_bytes": flix.size_bytes(),
        "residual_links": flix.report.residual_link_count,
        "link_traversals": stats.link_traversals,
        "query_seconds": benchmark.stats.stats.mean,
    }
    benchmark.extra_info.update(_ROWS[fraction])


def test_partition_size_tradeoff(benchmark):
    assert len(_ROWS) == len(FRACTIONS)
    table = BenchTable(
        "Ablation: Unconnected HOPI partition size",
        ["size", "meta docs", "bytes", "residual links", "link traversals"],
    )
    for fraction in FRACTIONS:
        row = _ROWS[fraction]
        table.add_row(
            row["partition_size"],
            row["meta_documents"],
            row["index_bytes"],
            row["residual_links"],
            row["link_traversals"],
        )
    benchmark.pedantic(table.render, rounds=1, iterations=1)
    print()
    print(table.render())

    ordered = [_ROWS[f] for f in FRACTIONS]
    # larger partitions -> fewer meta documents and fewer residual links
    meta_counts = [row["meta_documents"] for row in ordered]
    assert meta_counts == sorted(meta_counts, reverse=True)
    residuals = [row["residual_links"] for row in ordered]
    assert residuals == sorted(residuals, reverse=True)
    # larger partitions -> fewer run-time link traversals for the query
    assert ordered[-1]["link_traversals"] <= ordered[0]["link_traversals"]
