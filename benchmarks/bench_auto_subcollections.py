"""Ablation A5: automatic subcollection partitioning (section 7).

The paper's stated goal is that FliX "can itself determine the optimal
configuration for the actual application or, if the collection is too
heterogeneous, automatically build homogeneous partitions of the
collection."  This bench builds a deliberately heterogeneous collection —
a flat, link-free record corpus glued to a densely interlinked web — and
compares the automatic subcollection pipeline against every fixed
configuration.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import BenchTable
from repro.collection.builder import build_collection
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.subcollections import identify_subcollections
from repro.datasets.dblp import DblpSpec, generate_dblp_documents
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_documents

_RESULTS = {}


@pytest.fixture(scope="module")
def heterogeneous_collection():
    flat = generate_dblp_documents(DblpSpec(documents=120, mean_citations=0.0))
    dense = generate_synthetic_documents(
        SyntheticSpec(
            documents=30,
            mean_document_size=30,
            links_per_document=4.0,
            deep_link_fraction=0.5,
            intra_links_per_document=0.5,
            seed=99,
        )
    )
    return build_collection(flat + dense)


@pytest.fixture(scope="module")
def probe(heterogeneous_collection):
    return heterogeneous_collection.document_root(
        sorted(heterogeneous_collection.documents)[0]
    )


def _measure(benchmark, name, flix, probe):
    def run():
        return list(flix.query_stream(QueryRequest.descendants(probe)))

    benchmark.pedantic(run, rounds=3, iterations=1)
    _RESULTS[name] = {
        "bytes": flix.size_bytes(),
        "residual": flix.report.residual_link_count,
        "meta_documents": len(flix.meta_documents),
        "seconds": benchmark.stats.stats.mean,
    }
    benchmark.extra_info.update(_RESULTS[name])


@pytest.mark.parametrize(
    "config_name", ["naive", "maximal_ppo", "unconnected_hopi", "hybrid"]
)
def test_fixed_configs(benchmark, heterogeneous_collection, probe, config_name):
    makers = {
        "naive": FlixConfig.naive,
        "maximal_ppo": FlixConfig.maximal_ppo,
        "unconnected_hopi": lambda: FlixConfig.unconnected_hopi(500),
        "hybrid": lambda: FlixConfig.hybrid(500),
    }
    flix = Flix.build(heterogeneous_collection, makers[config_name]())
    _measure(benchmark, config_name, flix, probe)


def test_auto_subcollections(benchmark, heterogeneous_collection, probe):
    flix = Flix.build(
        heterogeneous_collection,
        FlixConfig.auto_subcollections(partition_size=500),
    )
    subcollections = identify_subcollections(
        heterogeneous_collection, partition_size=500
    )
    print()
    print("identified subcollections:")
    for subcollection in subcollections:
        print(f"  {subcollection.summary()}")
    _measure(benchmark, "auto", flix, probe)
    benchmark.extra_info["subcollections"] = len(subcollections)
    assert len(subcollections) >= 2  # the two families must separate


def test_auto_shape(benchmark, heterogeneous_collection):
    assert len(_RESULTS) == 5
    table = BenchTable(
        "Ablation: automatic subcollections on a heterogeneous collection",
        ["system", "bytes", "residual", "meta docs", "query ms"],
    )
    for name, row in sorted(_RESULTS.items()):
        table.add_row(
            name,
            row["bytes"],
            row["residual"],
            row["meta_documents"],
            round(row["seconds"] * 1000, 3),
        )
    benchmark.pedantic(table.render, rounds=1, iterations=1)
    print()
    print(table.render())

    auto = _RESULTS["auto"]
    sizes = {name: row["bytes"] for name, row in _RESULTS.items()}
    # auto never stores more than the most expensive fixed configuration
    assert auto["bytes"] <= max(
        size for name, size in sizes.items() if name != "auto"
    )
    # and absorbs more links than the most PPO-constrained configuration
    assert auto["residual"] <= _RESULTS["maximal_ppo"]["residual"] * 1.5
