"""The pre/postorder (PPO) index of Grust [10, 11].

One depth-first traversal assigns each element its preorder rank ``pre(e)``
and subtree size; ``v`` is a descendant-or-self of ``u`` iff
``pre(u) <= pre(v) < pre(u) + size(u)`` (the interval formulation is
equivalent to the paper's ``pre(x) < pre(y) and post(x) > post(y)`` test and
needs one comparison less).  With the "slight additions" the paper mentions —
storing each node's depth and parent — the index also answers distance
queries (``depth(v) - depth(u)`` along the unique tree path) and ancestor
walks.

Build time O(|E|), space O(|V|): the fastest and smallest of all strategies,
but only applicable when the element graph is a forest of rooted trees —
which is exactly why FliX's Maximal PPO configuration works so hard to carve
tree-shaped meta documents out of a linked collection (section 4.3).

This module is the builder: it numbers the forest, and
:func:`repro.indexes.packed.ppo.pack_ppo` lays the numbering out by
preorder rank for :class:`repro.indexes.packed.ppo.PackedPpoIndex`, which
answers every probe.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph.digraph import Digraph
from repro.graph.treecheck import forest_roots, is_forest
from repro.indexes.base import IndexNotApplicableError, NodeId


class PpoIndex:
    """Builder of the pre/postorder numbering of a forest-shaped graph."""

    strategy_name = "ppo"

    def __init__(self) -> None:
        self._pre: Dict[NodeId, int] = {}
        self._size: Dict[NodeId, int] = {}
        self._depth: Dict[NodeId, int] = {}
        self._parent: Dict[NodeId, Optional[NodeId]] = {}
        self._node_at_pre: List[NodeId] = []
        # tag -> list of (pre, node), sorted by pre, for interval scans
        self._tag_pres: Dict[str, List[Tuple[int, NodeId]]] = {}
        # pre rank of each tree's first node, ascending; tree i spans
        # [starts[i], starts[i+1]) in preorder
        self._tree_starts: List[int] = []

    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "PpoIndex":
        if not is_forest(graph):
            raise IndexNotApplicableError(
                "PPO requires a forest: some node has in-degree > 1 or the "
                "graph contains a cycle"
            )
        index = cls()
        counter = 0
        for root in forest_roots(graph):
            index._tree_starts.append(counter)
            counter = index._number_tree(graph, tags, root, counter)
        for entries in index._tag_pres.values():
            entries.sort()
        return index

    def _number_tree(
        self,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        root: NodeId,
        counter: int,
    ) -> int:
        """Assign pre ranks/sizes/depths for one tree; returns next rank."""
        # Frames: (node, depth, parent); sizes fixed up after the subtree.
        order: List[NodeId] = []
        stack: List[Tuple[NodeId, int, Optional[NodeId]]] = [(root, 0, None)]
        while stack:
            node, depth, parent = stack.pop()
            self._pre[node] = counter + len(order)
            order.append(node)
            self._depth[node] = depth
            self._parent[node] = parent
            children = sorted(graph.successors(node))
            for child in reversed(children):
                stack.append((child, depth + 1, node))
        # Subtree sizes: children appear after parents in preorder; process
        # in reverse preorder and fold child sizes upward.
        for node in reversed(order):
            size = 1
            for child in graph.successors(node):
                size += self._size[child]
            self._size[node] = size
        for node in order:
            self._node_at_pre.append(node)
            self._tag_pres.setdefault(tags[node], []).append(
                (self._pre[node], node)
            )
        return counter + len(order)
