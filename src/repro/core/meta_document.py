"""Meta documents: the units FliX indexes (section 3.1).

A meta document "contains some or all of the links between its documents";
links that are not represented in its index — because they cross meta
documents, or because including them would break the chosen index's
applicability (a link that would destroy tree shape under PPO) — are
*residual* and followed by the PEE at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.graph.digraph import Digraph
from repro.indexes.base import NodeId, PathIndex

Edge = Tuple[NodeId, NodeId]


@dataclass
class MetaDocumentSpec:
    """The MDB's output for one meta document, before indexing.

    ``nodes`` is a distinct subset of the collection's elements;
    ``internal_edges`` are the edges (tree edges and links) the meta
    document's index will represent.  Every collection edge that is not
    internal to some meta document becomes a residual link.
    """

    meta_id: int
    nodes: Set[NodeId]
    internal_edges: List[Edge]

    def build_graph(self) -> Digraph:
        graph = Digraph()
        for node in self.nodes:
            graph.add_node(node)
        for u, v in self.internal_edges:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(
                    f"internal edge {(u, v)} leaves meta document {self.meta_id}"
                )
            graph.add_edge(u, v)
        return graph


@dataclass
class MetaDocument:
    """An indexed meta document plus its residual-link bookkeeping.

    ``outgoing_links[u]`` lists the targets of residual links whose source
    ``u`` lies in this meta document (targets may be anywhere, including
    this same meta document).  ``link_sources`` is the set ``L_i`` of
    section 4.2; ``incoming_targets`` is the mirror needed for ancestor
    evaluation.
    """

    meta_id: int
    nodes: FrozenSet[NodeId]
    index: PathIndex
    strategy: str
    outgoing_links: Dict[NodeId, List[NodeId]] = field(default_factory=dict)
    incoming_links: Dict[NodeId, List[NodeId]] = field(default_factory=dict)
    _link_sources_cache: FrozenSet[NodeId] = field(default=None, repr=False)
    _link_targets_cache: FrozenSet[NodeId] = field(default=None, repr=False)

    def finalize_links(self) -> None:
        """Freeze the residual-link sets and hand L_i to the index.

        Called by the Index Builder once all residual links are wired (and
        again after incremental growth touches this meta document).  The
        frozen set keeps its identity across queries, which lets indexes
        with a prepared fast path (PPO) recognize it cheaply.
        """
        self._link_sources_cache = frozenset(self.outgoing_links)
        self._link_targets_cache = frozenset(self.incoming_links)
        if self.index is not None:
            self.index.prepare_link_candidates(self._link_sources_cache)

    def copy_links(self) -> "MetaDocument":
        """A clone with deep-copied residual-link maps, same index object.

        Copy-on-write support for the incremental maintenance verbs: a
        published :class:`~repro.core.layout.IndexLayout` is immutable, so
        a mutation that needs to rewire a meta document's residual links
        works on a clone and publishes it in the next layout, while
        in-flight queries keep reading the original's frozen link sets.
        The (expensive, content-immutable) index object is shared.
        """
        return MetaDocument(
            meta_id=self.meta_id,
            nodes=self.nodes,
            index=self.index,
            strategy=self.strategy,
            outgoing_links={
                source: list(targets)
                for source, targets in self.outgoing_links.items()
            },
            incoming_links={
                target: list(sources)
                for target, sources in self.incoming_links.items()
            },
        )

    @property
    def link_sources(self) -> FrozenSet[NodeId]:
        """L_i: elements of this meta document with outgoing residual links."""
        if self._link_sources_cache is not None:
            return self._link_sources_cache
        return frozenset(self.outgoing_links)

    @property
    def link_targets(self) -> FrozenSet[NodeId]:
        """Elements of this meta document with incoming residual links."""
        if self._link_targets_cache is not None:
            return self._link_targets_cache
        return frozenset(self.incoming_links)

    @property
    def residual_out_degree(self) -> int:
        return sum(len(targets) for targets in self.outgoing_links.values())

    def __contains__(self, node: NodeId) -> bool:
        return node in self.nodes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetaDocument(id={self.meta_id}, nodes={len(self.nodes)}, "
            f"strategy={self.strategy!r}, residual_links={self.residual_out_degree})"
        )
