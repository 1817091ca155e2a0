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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph.digraph import Digraph
from repro.graph.treecheck import forest_roots, is_forest
from repro.indexes.base import (
    IndexNotApplicableError,
    NodeId,
    PathIndex,
    ScoredNode,
    sort_scored,
)


class PpoIndex(PathIndex):
    """Pre/postorder interval index for forest-shaped element graphs."""

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
        # residual-link candidates prepared for interval probing
        self._prepared_candidates: Optional[frozenset] = None
        self._prepared_pres: List[Tuple[int, NodeId]] = []
        self._nodes: frozenset = frozenset()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
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
        index._nodes = frozenset(index._pre)
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

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _node_set(self) -> frozenset:
        return self._nodes

    def _interval(self, source: NodeId) -> Tuple[int, int]:
        pre = self._pre[source]
        return pre, pre + self._size[source]

    def reachable(self, source: NodeId, target: NodeId) -> bool:
        if source not in self._pre or target not in self._pre:
            return False
        low, high = self._interval(source)
        return low <= self._pre[target] < high

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        if not self.reachable(source, target):
            return None
        return self._depth[target] - self._depth[source]

    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        if source not in self._pre:
            return []
        low, high = self._interval(source)
        base_depth = self._depth[source]
        if tag is None:
            nodes = self._node_at_pre[low:high]
        else:
            entries = self._tag_pres.get(tag, [])
            lo = bisect_left(entries, (low, -1))
            hi = bisect_left(entries, (high, -1))
            nodes = [node for _, node in entries[lo:hi]]
        return sort_scored((node, self._depth[node] - base_depth) for node in nodes)

    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        if source not in self._pre:
            return []
        result: List[ScoredNode] = []
        node: Optional[NodeId] = source
        dist = 0
        while node is not None:
            if tag is None or self._matches_tag(node, tag):
                result.append((node, dist))
            node = self._parent[node]
            dist += 1
        return result  # parent walk is already ascending-distance

    def _matches_tag(self, node: NodeId, tag: str) -> bool:
        entries = self._tag_pres.get(tag, [])
        pre = self._pre[node]
        i = bisect_left(entries, (pre, -1))
        return i < len(entries) and entries[i][0] == pre

    # ------------------------------------------------------------------
    # residual-link fast path
    # ------------------------------------------------------------------
    def prepare_link_candidates(self, candidates: frozenset) -> None:
        """Sort ``L_i`` by preorder so ``reachable_subset`` is one bisect.

        With this, the Figure 4 step "compute the set L(a) of reachable
        link elements" costs O(log n + |answer|) on PPO meta documents
        instead of one interval probe per candidate.
        """
        self._prepared_candidates = candidates
        self._prepared_pres = sorted(
            (self._pre[c], c) for c in candidates if c in self._pre
        )

    def reachable_subset(self, source: NodeId, candidates) -> List[ScoredNode]:
        if (
            self._prepared_candidates is None
            or candidates is not self._prepared_candidates
            or source not in self._pre
        ):
            return super().reachable_subset(source, candidates)
        low, high = self._interval(source)
        lo = bisect_left(self._prepared_pres, (low, -1))
        hi = bisect_left(self._prepared_pres, (high, -1))
        base_depth = self._depth[source]
        return sort_scored(
            (node, self._depth[node] - base_depth)
            for _pre, node in self._prepared_pres[lo:hi]
        )

    # ------------------------------------------------------------------
    # PPO extras
    # ------------------------------------------------------------------
    def preorder(self, node: NodeId) -> int:
        return self._pre[node]

    def postorder(self, node: NodeId) -> int:
        """The classic post rank (pre + size - 1 in the interval encoding)."""
        return self._pre[node] + self._size[node] - 1

    def depth(self, node: NodeId) -> int:
        return self._depth[node]

    def parent(self, node: NodeId) -> Optional[NodeId]:
        return self._parent[node]

    # ------------------------------------------------------------------
    # the remaining XPath axes — "All XPath axes can be evaluated using
    # these numbers" (section 2.2); each returns document order
    # ------------------------------------------------------------------
    def _tree_span(self, node: NodeId) -> Tuple[int, int]:
        """The preorder range [start, end) of the tree containing ``node``."""
        pre = self._pre[node]
        i = bisect_right(self._tree_starts, pre) - 1
        start = self._tree_starts[i]
        end = (
            self._tree_starts[i + 1]
            if i + 1 < len(self._tree_starts)
            else len(self._node_at_pre)
        )
        return start, end

    def children(self, node: NodeId) -> List[NodeId]:
        """XPath ``child``: direct children in document order."""
        result: List[NodeId] = []
        pre = self._pre[node] + 1
        end = self._pre[node] + self._size[node]
        while pre < end:
            child = self._node_at_pre[pre]
            result.append(child)
            pre += self._size[child]
        return result

    def following(self, node: NodeId) -> List[NodeId]:
        """XPath ``following``: nodes after the subtree, same tree."""
        _start, tree_end = self._tree_span(node)
        begin = self._pre[node] + self._size[node]
        return self._node_at_pre[begin:tree_end]

    def preceding(self, node: NodeId) -> List[NodeId]:
        """XPath ``preceding``: nodes wholly before ``node``, same tree
        (ancestors excluded, per the XPath definition)."""
        tree_start, _end = self._tree_span(node)
        pre = self._pre[node]
        return [
            candidate
            for candidate in self._node_at_pre[tree_start:pre]
            if self._pre[candidate] + self._size[candidate] <= pre
        ]

    def following_siblings(self, node: NodeId) -> List[NodeId]:
        """XPath ``following-sibling``."""
        parent = self._parent[node]
        if parent is None:
            return []
        siblings = self.children(parent)
        position = siblings.index(node)
        return siblings[position + 1 :]

    def preceding_siblings(self, node: NodeId) -> List[NodeId]:
        """XPath ``preceding-sibling`` (document order)."""
        parent = self._parent[node]
        if parent is None:
            return []
        siblings = self.children(parent)
        return siblings[: siblings.index(node)]
