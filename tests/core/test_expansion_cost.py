"""One Figure-4 expansion asks its index set-sized questions, not |L_i| ones.

A deterministic cost guard (call counts, no timing): on a packed-HOPI meta
document with hundreds of residual-link elements of which the entry
reaches a handful, expanding one entry is one ``L(a)`` lookup and one
coverage question — never one ``distance`` per link element or one
``reachable`` per earlier entry point.  Plus the isolation the shared
index object owes readers of an older layout.
"""

from collections import Counter

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.meta_document import MetaDocument
from repro.core.pee import PathExpressionEvaluator, QueryStats
from repro.graph.digraph import Digraph
from repro.indexes.registry import build_index

PROBES = ("reachable", "distance", "reachable_subset", "reaching_subset",
          "coverage")

ROOT, ENTRY, EARLIER = 0, 1, 2
#: the entry's own subtree: the only link elements it reaches / that
#: reach it
NEAR = (10, 11, 12)
#: link elements under a sibling the entry has no path to or from
FAR = tuple(range(100, 420))
OUTSIDE = 1000  # residual-link neighbour in some other meta document


def count_calls(index):
    """Wrap every probing method of ``index`` in a call counter."""
    calls = Counter()
    for name in PROBES:
        def counted(*args, _inner=getattr(index, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        setattr(index, name, counted)
    return calls


@pytest.fixture()
def link_rich_meta():
    """ROOT -> ENTRY -> NEAR and ROOT -> EARLIER -> FAR, every NEAR and
    FAR element carrying one outgoing and one incoming residual link."""
    graph = Digraph([(ROOT, ENTRY), (ROOT, EARLIER)])
    for node in NEAR:
        graph.add_edge(ENTRY, node)
    for node in FAR:
        graph.add_edge(EARLIER, node)
    tags = {node: "e" for node in graph}
    index = build_index("hopi", graph, tags)
    linked = NEAR + FAR
    meta = MetaDocument(
        meta_id=0,
        nodes=frozenset(graph),
        index=index,
        strategy="hopi",
        outgoing_links={node: [OUTSIDE] for node in linked},
        incoming_links={node: [OUTSIDE] for node in linked},
    )
    meta.finalize_links()
    return meta


@pytest.mark.parametrize(
    "forward, entry, expected_pushes",
    [
        (True, ENTRY, len(NEAR)),  # L(a): the link sources below the entry
        (False, NEAR[0], 1),  # backward: the link targets above it (itself)
    ],
)
def test_one_expansion_is_one_lookup_and_one_coverage(
    link_rich_meta, forward, entry, expected_pushes
):
    meta = link_rich_meta
    assert len(meta.link_sources) >= 300
    pee = PathExpressionEvaluator([meta], {node: 0 for node in meta.nodes})
    # promote before counting: the packed index binds its probe closures
    # as instance attributes on first use
    meta.index.distance(entry, entry)
    meta.index.find_descendants_by_tag(entry, None)
    calls = count_calls(meta.index)
    stats = QueryStats()
    emit, pushes = pee.expand_entry(
        0, entry, 0, None, forward, (), None, [EARLIER], stats
    )
    assert len(pushes) == expected_pushes
    assert emit
    subset = "reachable_subset" if forward else "reaching_subset"
    # nothing else: no ``distance`` per link element, no ``reachable`` per
    # earlier entry point
    assert calls == {subset: 1, "coverage": 1}
    # one coverage question for the entry, one per match
    assert stats.covered_probes == 1 + len(emit) + stats.results_suppressed


def test_old_layout_keeps_its_link_answers_after_add_document():
    """The index object is shared between a layout and its successor
    (``MetaDocument.copy_links``): what a reader pinned to the old layout
    gets for ``L(a)`` must not depend on the newer layout's link sets."""
    documents = [
        XmlDocument.from_text(
            f"d{i}.xml",
            f'<doc><sec><l xlink:href="d{(i + 1) % 4}.xml"/></sec>'
            f'<sec><l xlink:href="later.xml"/><p>t{i}</p></sec></doc>',
        )
        for i in range(4)
    ]
    for config in (FlixConfig.unconnected_hopi(8), FlixConfig.maximal_ppo()):
        flix = Flix.build(build_collection(list(documents)), config)
        old = flix.layout

        def link_answers():
            return [
                (
                    meta.index.reachable_subset(node, meta.link_sources),
                    meta.index.reaching_subset(node, meta.link_targets),
                )
                for meta in old.iter_live()
                for node in sorted(meta.nodes)
            ]

        before = link_answers()
        assert any(out for out, _in in before)
        # resolves every dangling ``later.xml`` link: each meta document
        # that holds one is republished with a larger L_i, same index
        flix.add_document(
            XmlDocument.from_text(
                "later.xml", '<doc><l xlink:href="d0.xml"/></doc>'
            )
        )
        new = flix.layout
        assert new.generation > old.generation
        assert any(
            fresh is not stale
            and fresh.index is stale.index
            and fresh.link_sources != stale.link_sources
            for fresh, stale in zip(new.slots, old.slots)
            if fresh is not None and stale is not None
        )
        assert link_answers() == before
