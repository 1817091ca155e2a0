"""Materialized transitive closure: the builder of the closure strategy.

The paper's size strawman: "the HOPI index is huge, but it is still more
than an order of magnitude smaller than storing the complete transitive
closure" (section 6).  Storing the closure gives O(1) reachability and the
fastest possible descendant enumeration — at a storage cost that Table 1's
reproduction (``bench_table1_index_sizes``) shows dwarfing every other
strategy.  This builder materializes the ``(ancestor, descendant,
distance)`` relation; :func:`repro.indexes.packed.closure.pack_closure`
stores it as CSR columns for :class:`repro.indexes.packed.closure
.PackedClosureIndex`, which answers the probes.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.graph.closure import transitive_closure
from repro.graph.digraph import Digraph
from repro.indexes.base import NodeId


class TransitiveClosureIndex:
    """Builder of the full (ancestor, descendant, distance) relation."""

    strategy_name = "transitive_closure"

    def __init__(self) -> None:
        self._descendants: Dict[NodeId, Dict[NodeId, int]] = {}
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
        index._nodes = frozenset(graph.nodes())
        return index

    @property
    def pair_count(self) -> int:
        return sum(len(row) for row in self._descendants.values())
