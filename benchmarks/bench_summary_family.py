"""Ablation A6: the structure-summary design space (paper §2.2).

The Index Definition Scheme spans a precision/size spectrum — A(0) (label
partition, what APEX-0 uses) through A(k) to the 1-index, the F&B index,
plus the DataGuide and Index Fabric path structures.  The paper's rule of
thumb: "if all paths are short or do not contain wildcards, APEX or an
instance of the Index Definition Scheme will do fine."  This ablation
quantifies the spectrum on the DBLP corpus: class/state counts, build
times, and the size ordering A(0) <= A(1) <= ... <= 1-index <= F&B.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import BenchTable
from repro.indexes.dataguide import DataGuideIndex
from repro.indexes.fabric import FabricIndex
from repro.indexes.kindex import KBisimulationIndex
from repro.indexes.registry import build_index, pack_built

_ROWS = {}


@pytest.fixture(scope="module")
def graph_and_tags(dblp_collection):
    graph = dblp_collection.graph
    tags = {node: dblp_collection.tag(node) for node in graph}
    return graph, tags


def _record(benchmark, name, build, classes_of):
    """Time ``build`` (build + pack); the row's size is the packed
    index's, its FLXPACK blob."""
    index = benchmark.pedantic(build, rounds=1, iterations=1)
    _ROWS[name] = {
        "classes": classes_of(index),
        "bytes": index.size_bytes(),
        "seconds": benchmark.stats.stats.mean,
    }
    benchmark.extra_info.update(_ROWS[name])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_ak_index(benchmark, graph_and_tags, k):
    graph, tags = graph_and_tags
    _record(
        benchmark,
        f"A({k})",
        # build_index builds the default (k = None); A(k) packs a variant
        lambda: pack_built(KBisimulationIndex.build_k(graph, tags, k)),
        lambda index: index.class_count,
    )


def test_one_index(benchmark, graph_and_tags):
    graph, tags = graph_and_tags
    _record(
        benchmark,
        "1-index",
        lambda: build_index("kindex", graph, tags),
        lambda index: index.class_count,
    )


def test_fb_index(benchmark, graph_and_tags):
    graph, tags = graph_and_tags
    _record(
        benchmark,
        "F&B",
        lambda: build_index("fbindex", graph, tags),
        lambda index: index.class_count,
    )


def test_dataguide(benchmark, graph_and_tags):
    graph, tags = graph_and_tags
    guide = DataGuideIndex.build(graph, tags)
    _record(
        benchmark,
        "DataGuide",
        lambda: build_index("dataguide", graph, tags),
        lambda index: guide.state_count,
    )


def test_fabric_on_tree_view(benchmark, dblp_collection):
    """Fabric indexes the documents' *tree* structure (its design target);
    see test_fabric_blows_up_on_link_graph for why not the full graph."""
    tree = dblp_collection.tree_graph()
    tags = {node: dblp_collection.tag(node) for node in tree}
    fabric = FabricIndex.build(tree, tags)
    _record(
        benchmark,
        "Fabric",
        lambda: build_index("fabric", tree, tags),
        lambda index: fabric.path_count,
    )


def test_fabric_blows_up_on_link_graph(benchmark, graph_and_tags):
    """On the citation DAG, root paths multiply combinatorially: the key
    budget trips — the concrete form of the paper's point that no single
    index suits all collection shapes."""
    from repro.indexes.base import IndexNotApplicableError

    graph, tags = graph_and_tags

    def try_build():
        try:
            FabricIndex.build_bounded(graph, tags, 40_000)
            return False
        except IndexNotApplicableError:
            return True

    tripped = benchmark.pedantic(try_build, rounds=1, iterations=1)
    assert tripped


def test_family_shape(benchmark, dblp_collection):
    assert len(_ROWS) >= 7
    table = BenchTable(
        "Structure-summary family on DBLP "
        f"({dblp_collection.node_count} elements)",
        ["summary", "classes/states", "bytes", "build s"],
    )
    order = ["A(0)", "A(1)", "A(2)", "1-index", "F&B", "DataGuide", "Fabric"]
    for name in order:
        row = _ROWS[name]
        table.add_row(name, row["classes"], row["bytes"], round(row["seconds"], 4))
    benchmark.pedantic(table.render, rounds=1, iterations=1)
    print()
    print(table.render())

    # refinement is monotone: A(0) <= A(1) <= A(2) <= 1-index <= F&B
    counts = [
        _ROWS[name]["classes"]
        for name in ("A(0)", "A(1)", "A(2)", "1-index", "F&B")
    ]
    assert counts == sorted(counts)
    # A(0) is the label partition: one class per distinct tag
    assert _ROWS["A(0)"]["classes"] == len(dblp_collection.tags())