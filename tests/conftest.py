"""Shared fixtures and hypothesis strategies for the FliX test suite."""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.datasets.dblp import DblpSpec, generate_dblp
from repro.datasets.movies import generate_movie_collection
from repro.datasets.synthetic import generate_figure1_collection
from repro.graph.digraph import Digraph

# ----------------------------------------------------------------------
# deterministic example graphs
# ----------------------------------------------------------------------


def diamond_graph() -> Digraph:
    """0 -> {1, 2} -> 3: the smallest multi-path DAG."""
    return Digraph([(0, 1), (0, 2), (1, 3), (2, 3)])


def chain_graph(length: int) -> Digraph:
    return Digraph([(i, i + 1) for i in range(length)])


def cycle_graph(length: int) -> Digraph:
    return Digraph([(i, (i + 1) % length) for i in range(length)])


def random_digraph(seed: int, nodes: int, edge_factor: float = 1.5) -> Digraph:
    rng = random.Random(seed)
    graph = Digraph()
    for i in range(nodes):
        graph.add_node(i)
    for _ in range(int(nodes * edge_factor)):
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            graph.add_edge(u, v)
    return graph


def random_tree(seed: int, nodes: int) -> Digraph:
    rng = random.Random(seed)
    graph = Digraph()
    graph.add_node(0)
    for i in range(1, nodes):
        graph.add_edge(rng.randrange(i), i)
    return graph


def random_tags(seed: int, nodes: int, alphabet: str = "abcd") -> dict:
    rng = random.Random(seed)
    return {i: rng.choice(alphabet) for i in range(nodes)}


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

# (seed, node count) pairs from which tests derive deterministic graphs;
# keeping randomness inside random_digraph keeps shrinking effective.
graph_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=30),
)

tree_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=40),
)

xml_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True)

# Text that is safe in XML content after escaping (the serializer escapes
# &, <, >; control characters are out of scope for the subset we parse).
xml_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"),
    ),
    max_size=40,
)


# ----------------------------------------------------------------------
# mutation documents and whole-API parity (durability / follower tests)
# ----------------------------------------------------------------------


def added_documents(count: int) -> List[XmlDocument]:
    """``count`` tiny chained documents: ``incr_i`` cites ``incr_i-1``.

    The chain keeps each addition small while giving compaction
    inter-meta residual links to absorb.
    """
    documents = []
    for i in range(count):
        cite = (
            f'<cite xlink:href="incr_{i - 1:04d}.xml"/>' if i else ""
        )
        documents.append(
            XmlDocument.from_text(
                f"incr_{i:04d}.xml",
                f"<incremental>{cite}<title>inc {i}</title></incremental>",
            )
        )
    return documents


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


# ----------------------------------------------------------------------
# failing index builds; format-1 saves (migration tests)
# ----------------------------------------------------------------------


@pytest.fixture()
def break_build(monkeypatch):
    """``break_build(index_class, first=None, record=None)`` makes
    ``index_class.build`` raise ``RuntimeError`` — on every call, or on its
    first ``first`` calls only: a bug injected where a build can fail, at
    the strategy.  Each failing call appends the id of the process it ran
    in to the file ``record``, when given.  Process-pool workers forked
    after the patch inherit it."""
    import itertools
    import os

    from repro.core.ib import shutdown_build_pool

    def install(index_class, first=None, record=None):
        real = index_class.build
        calls = itertools.count()

        def build(cls, graph, tags):
            if first is None or next(calls) < first:
                if record is not None:
                    with open(record, "a") as log:
                        log.write(f"{os.getpid()}\n")
                raise RuntimeError(
                    f"injected {cls.strategy_name} build failure"
                )
            return real(graph, tags)

        monkeypatch.setattr(index_class, "build", classmethod(build))
        # a warm pool forked before the patch builds with the real class
        shutdown_build_pool()

    yield install
    # ... and one forked after it would outlive the patch
    shutdown_build_pool()


#: saves the format-1 writer made of the figure-1 collection (their
#: README says how): ``hybrid`` (blobs + ``framework.sqlite``),
#: ``closure`` (a ``monolithic("transitive_closure")`` meta as tables) and
#: ``tables`` (``hybrid`` with every entry ``"packed": false``)
FORMAT1_FIXTURES = Path(__file__).parent / "fixtures" / "format1"
FORMAT1_CONFIGS = {
    "hybrid": lambda: FlixConfig.hybrid(60),
    "closure": lambda: FlixConfig.monolithic("transitive_closure"),
    "tables": lambda: FlixConfig.hybrid(60),
    "summary": lambda: FlixConfig.monolithic("apex"),
}


def copy_format1_save(name, directory) -> Path:
    """A writable copy of the named format-1 save under ``directory``."""
    target = Path(directory) / name
    shutil.copytree(FORMAT1_FIXTURES / name, target)
    return target


# ----------------------------------------------------------------------
# collection fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def dblp_collection():
    """A small but structurally faithful DBLP corpus (150 records)."""
    return generate_dblp(DblpSpec(documents=150))


@pytest.fixture(scope="session")
def movie_collection():
    return generate_movie_collection()


@pytest.fixture(scope="session")
def figure1_collection():
    return generate_figure1_collection()


@pytest.fixture()
def tiny_collection():
    """Three hand-written documents with one inter- and one intra-doc link."""
    docs = [
        XmlDocument.from_text(
            "a.xml",
            '<doc id="r"><sec id="s1"><p>alpha</p></sec>'
            '<sec id="s2"><ref idref="s1"/></sec></doc>',
        ),
        XmlDocument.from_text(
            "b.xml",
            '<doc><sec><link xlink:href="a.xml#s2"/></sec></doc>',
        ),
        XmlDocument.from_text(
            "c.xml",
            '<doc><link xlink:href="b.xml"/><p>gamma</p></doc>',
        ),
    ]
    return build_collection(docs)
