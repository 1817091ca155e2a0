"""Materialized transitive closure as a PathIndex.

The paper's size strawman: "the HOPI index is huge, but it is still more
than an order of magnitude smaller than storing the complete transitive
closure" (section 6).  Storing the closure gives O(1) reachability and the
fastest possible descendant enumeration — at a storage cost that Table 1's
reproduction (``bench_table1_index_sizes``) shows dwarfing every other
strategy.  It doubles as the correctness oracle in the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.base import NodeId, PathIndex, ScoredNode, sort_scored


class TransitiveClosureIndex(PathIndex):
    """Full (ancestor, descendant, distance) relation, fully materialized."""

    strategy_name = "transitive_closure"

    def __init__(self) -> None:
        self._descendants: Dict[NodeId, Dict[NodeId, int]] = {}
        self._ancestors: Dict[NodeId, Dict[NodeId, int]] = {}
        self._tags: Dict[NodeId, str] = {}
        self._nodes: frozenset = frozenset()

    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "TransitiveClosureIndex":
        index = cls()
        index._tags = dict(tags)
        closure = transitive_closure(graph)
        index._descendants = {node: dict(closure.descendants(node)) for node in graph}
        for src, row in index._descendants.items():
            for dst, dist in row.items():
                index._ancestors.setdefault(dst, {})[src] = dist
        for node in graph:
            index._ancestors.setdefault(node, {})
        index._nodes = frozenset(graph.nodes())
        return index

    def _node_set(self) -> frozenset:
        return self._nodes

    def reachable(self, source: NodeId, target: NodeId) -> bool:
        row = self._descendants.get(source)
        return row is not None and target in row

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        row = self._descendants.get(source)
        if row is None:
            return None
        return row.get(target)

    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        row = self._descendants.get(source, {})
        if tag is None:
            return sort_scored(row.items())
        return sort_scored(
            (node, dist) for node, dist in row.items() if self._tags.get(node) == tag
        )

    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        row = self._ancestors.get(source, {})
        if tag is None:
            return sort_scored(row.items())
        return sort_scored(
            (node, dist) for node, dist in row.items() if self._tags.get(node) == tag
        )

    @property
    def pair_count(self) -> int:
        return sum(len(row) for row in self._descendants.values())
