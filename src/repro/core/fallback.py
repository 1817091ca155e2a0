"""On-the-fly BFS fallback index for degraded meta documents.

When a meta document's index is missing (a failed per-meta build that the
builder could not repair) or starts raising
:class:`~repro.storage.errors.StorageError` at query time, the PEE swaps
in a :class:`BfsFallbackIndex`: the same :class:`~repro.indexes.base
.PathIndex` query interface, answered by breadth-first search over the
meta document's *internal* edges reconstructed from the collection graph.

The reconstruction subtracts residual links (``meta.outgoing_links``)
from the induced subgraph, so the fallback sees exactly the edge set the
real index represented — reachability and distances match, only the cost
profile changes (per-probe BFS instead of precomputed lookups).  Queries
that touch a fallback are flagged ``degraded`` on their
:class:`~repro.core.pee.QueryStats`, never silently slower.

Per-source BFS results are memoized, so repeated probes against the same
entry element (the common case: coverage checks + probe + link subset all
share the entry) pay for one traversal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from dataclasses import dataclass
from typing import Callable, Union

from repro.graph.digraph import Digraph
from repro.indexes.base import NodeId, ScoredNode, sort_scored


@dataclass(frozen=True)
class FallbackContext:
    """What the PEE needs to improvise an index: the collection's element
    graph and a node -> tag lookup (a callable or a mapping)."""

    graph: Digraph
    tags: Union[Callable[[NodeId], str], Mapping[NodeId, str]]

    def build_for(self, meta) -> "BfsFallbackIndex":
        return BfsFallbackIndex.for_meta(meta, self.graph, self.tags)


class BfsFallbackIndex:
    """BFS-backed stand-in for a meta document's unavailable index.

    Implements the read side of the :class:`~repro.indexes.base.PathIndex`
    contract (``reachable`` / ``distance`` / ``find_*_by_tag`` /
    ``reachable_subset`` / ``reaching_subset`` / ``coverage``); it is
    ephemeral by design and never persisted.
    """

    strategy_name = "bfs_fallback"

    def __init__(
        self,
        nodes: Iterable[NodeId],
        forward: Mapping[NodeId, Iterable[NodeId]],
        tags: Mapping[NodeId, str],
    ) -> None:
        self._nodes = frozenset(nodes)
        self._forward: Dict[NodeId, Tuple[NodeId, ...]] = {
            node: tuple(sorted(forward.get(node, ()))) for node in self._nodes
        }
        reverse: Dict[NodeId, List[NodeId]] = {node: [] for node in self._nodes}
        for source, targets in self._forward.items():
            for target in targets:
                reverse[target].append(source)
        self._reverse: Dict[NodeId, Tuple[NodeId, ...]] = {
            node: tuple(sorted(preds)) for node, preds in reverse.items()
        }
        self._tags = {node: tags[node] for node in self._nodes}
        # memoized per-source distance maps (descendants / ancestors)
        self._down: Dict[NodeId, Dict[NodeId, int]] = {}
        self._up: Dict[NodeId, Dict[NodeId, int]] = {}

    @classmethod
    def for_meta(cls, meta, graph: Digraph, tags) -> "BfsFallbackIndex":
        """Rebuild the internal-edge view of ``meta`` from the collection.

        Internal edges are the collection edges between two of the meta
        document's nodes *minus* its residual links: a residual link is
        followed by the PEE itself, so representing it here too would
        shortcut distances the real index never knew.
        """
        nodes = meta.nodes
        forward: Dict[NodeId, List[NodeId]] = {}
        residual = meta.outgoing_links
        for node in nodes:
            residual_targets = residual.get(node, ())
            forward[node] = [
                succ
                for succ in graph.successors(node)
                if succ in nodes and succ not in residual_targets
            ]
        lookup = tags if callable(tags) else tags.__getitem__
        return cls(nodes, forward, {node: lookup(node) for node in nodes})

    # ------------------------------------------------------------------
    # traversal core
    # ------------------------------------------------------------------
    def _distances(self, source: NodeId, forward: bool) -> Dict[NodeId, int]:
        cache = self._down if forward else self._up
        found = cache.get(source)
        if found is not None:
            return found
        adjacency = self._forward if forward else self._reverse
        found = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: List[NodeId] = []
            for node in frontier:
                for neighbour in adjacency[node]:
                    if neighbour not in found:
                        found[neighbour] = depth
                        next_frontier.append(neighbour)
            frontier = next_frontier
        cache[source] = found
        return found

    def _require(self, node: NodeId) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node} is not part of this meta document")

    # ------------------------------------------------------------------
    # PathIndex query interface
    # ------------------------------------------------------------------
    def reachable(self, source: NodeId, target: NodeId) -> bool:
        if source not in self._nodes or target not in self._nodes:
            return False
        return target in self._distances(source, forward=True)

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        if source not in self._nodes or target not in self._nodes:
            return None
        return self._distances(source, forward=True).get(target)

    def find_descendants_by_tag(
        self, source: NodeId, tag: Optional[str]
    ) -> List[ScoredNode]:
        self._require(source)
        return sort_scored(
            (node, dist)
            for node, dist in self._distances(source, forward=True).items()
            if tag is None or self._tags[node] == tag
        )

    def find_ancestors_by_tag(
        self, source: NodeId, tag: Optional[str]
    ) -> List[ScoredNode]:
        self._require(source)
        return sort_scored(
            (node, dist)
            for node, dist in self._distances(source, forward=False).items()
            if tag is None or self._tags[node] == tag
        )

    def reachable_subset(
        self, source: NodeId, candidates: Iterable[NodeId]
    ) -> List[ScoredNode]:
        return self._subset(source, candidates, forward=True)

    def reaching_subset(
        self, target: NodeId, candidates: Iterable[NodeId]
    ) -> List[ScoredNode]:
        return self._subset(target, candidates, forward=False)

    def _subset(
        self, node: NodeId, candidates: Iterable[NodeId], forward: bool
    ) -> List[ScoredNode]:
        distances = self._distances(node, forward)
        return sort_scored(
            (candidate, distances[candidate])
            for candidate in candidates
            if candidate in distances
        )

    def coverage(self, previous: Sequence[NodeId], forward: bool):
        # forward: ``node`` is below a previous entry; backward: above one
        # — either way a lookup in that entry's (memoized) BFS map
        reached = [
            self._distances(entry, forward)
            for entry in reversed(previous)
            if entry in self._nodes
        ]

        def covers(node: NodeId) -> bool:
            return any(node in distances for distances in reached)

        return covers

    def prepare_link_candidates(self, candidates: frozenset) -> None:
        """No preparation: every probe is a (memoized) BFS anyway."""

    def contains(self, node: NodeId) -> bool:
        return node in self._nodes

    def _node_set(self) -> frozenset:
        return self._nodes

    def size_bytes(self) -> int:
        return 0

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BfsFallbackIndex nodes={len(self._nodes)}>"
