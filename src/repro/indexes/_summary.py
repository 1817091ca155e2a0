"""Shared builder machinery for structure summaries (APEX, 1-index, A(k), ...).

These indexes partition the elements into equivalence classes and keep a
*structure graph* over the classes such that every data edge is covered by a
class edge.  They answer path queries by traversing the (small) structure
graph and — because class-level reachability over-approximates element-level
reachability — verify candidates with a structure-pruned BFS over the data
edges.  That is how database-backed implementations of these indexes
evaluate the descendants axis, and it is why the paper finds none of them
"explicitly optimized for the descendants-or-self axis" (section 2.2): long
paths mean long guided traversals.

The builders here compute the partition and the structure graph;
:func:`repro.indexes.packed.summary.pack_summary` stores them with the
data edges, and :class:`repro.indexes.packed.summary.PackedSummaryIndex`
runs the pruned BFS: a branch is abandoned as soon as its node's class
cannot reach any class containing the requested tag.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.graph.digraph import Digraph
from repro.indexes.base import NodeId

ClassId = int


def refine_partition_once(
    graph: Digraph,
    class_of: Dict[NodeId, ClassId],
    direction: str = "backward",
) -> Tuple[Dict[NodeId, ClassId], bool]:
    """One bisimulation refinement round.

    ``backward`` regroups nodes by (current class, set of predecessor
    classes) — iterating to a fixpoint yields the 1-index partition, ``k``
    rounds the A(k)-index.  ``forward`` uses successor classes instead;
    alternating both to a joint fixpoint yields the F&B index, which is
    precise for branching path queries (Kaushik et al. [12]).
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown refinement direction {direction!r}")
    signatures: Dict[Tuple[ClassId, frozenset], ClassId] = {}
    refined: Dict[NodeId, ClassId] = {}
    for node in sorted(graph.nodes()):
        neighbours = (
            graph.predecessors(node)
            if direction == "backward"
            else graph.successors(node)
        )
        signature = (class_of[node], frozenset(class_of[n] for n in neighbours))
        if signature not in signatures:
            signatures[signature] = len(signatures)
        refined[node] = signatures[signature]
    changed = len(set(refined.values())) != len(set(class_of.values()))
    return refined, changed


class SummaryIndex:
    """Builder base class: class partition + structure graph."""

    strategy_name = "summary"

    def __init__(self) -> None:
        self._graph: Digraph = Digraph()
        self._tags: Dict[NodeId, str] = {}
        self._class_of: Dict[NodeId, ClassId] = {}
        self._structure = Digraph()
        self._nodes: frozenset = frozenset()

    def _initialize(
        self,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        class_of: Dict[NodeId, ClassId],
    ) -> None:
        self._graph = graph
        self._tags = dict(tags)
        self._class_of = class_of
        self._nodes = frozenset(graph.nodes())
        for cls in set(class_of.values()):
            self._structure.add_node(cls)
        for u, v in graph.edges():
            self._structure.add_edge(class_of[u], class_of[v])


def label_partition(
    graph: Digraph,
    tags: Mapping[NodeId, str],
) -> Dict[NodeId, ClassId]:
    """The base partition of the family: one class per element label,
    numbered in node-id order."""
    class_ids: Dict[str, ClassId] = {}
    class_of: Dict[NodeId, ClassId] = {}
    for node in sorted(graph.nodes()):
        tag = tags[node]
        if tag not in class_ids:
            class_ids[tag] = len(class_ids)
        class_of[node] = class_ids[tag]
    return class_of
