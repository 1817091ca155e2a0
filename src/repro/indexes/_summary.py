"""Shared machinery for structure-summary indexes (APEX, 1-index, A(k), ...).

These indexes partition the elements into equivalence classes and keep a
*structure graph* over the classes such that every data edge is covered by a
class edge.  They answer path queries by traversing the (small) structure
graph and — because class-level reachability over-approximates element-level
reachability — verify candidates with a structure-pruned BFS over the data
edge table.  That is how database-backed implementations of these indexes
evaluate the descendants axis, and it is why the paper finds none of them
"explicitly optimized for the descendants-or-self axis" (section 2.2): long
paths mean long guided traversals.

The pruning is what the index buys: a BFS branch is abandoned as soon as its
node's class cannot reach any class containing the requested tag.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.graph.digraph import Digraph
from repro.indexes.base import NodeId, PathIndex, ScoredNode, sort_scored

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


class SummaryIndex(PathIndex):
    """Base class: class partition + structure graph + guided BFS."""

    strategy_name = "summary"

    def __init__(self) -> None:
        self._graph: Digraph = Digraph()
        self._tags: Dict[NodeId, str] = {}
        self._class_of: Dict[NodeId, ClassId] = {}
        self._structure = Digraph()
        self._class_reach: Dict[ClassId, Set[ClassId]] = {}
        self._class_coreach: Dict[ClassId, Set[ClassId]] = {}
        self._classes_with_tag: Dict[str, Set[ClassId]] = {}
        self._nodes: frozenset = frozenset()

    # ------------------------------------------------------------------
    # construction helpers for subclasses
    # ------------------------------------------------------------------
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
        self._compute_class_reachability()
        for node, cls in class_of.items():
            self._classes_with_tag.setdefault(self._tags[node], set()).add(cls)

    def _compute_class_reachability(self) -> None:
        """Reflexive-transitive reachability on the (small) structure graph."""
        for cls in self._structure:
            reach = {cls}
            queue = deque([cls])
            while queue:
                current = queue.popleft()
                for succ in self._structure.successors(current):
                    if succ not in reach:
                        reach.add(succ)
                        queue.append(succ)
            self._class_reach[cls] = reach
        for cls in self._structure:
            self._class_coreach[cls] = {
                other for other, reach in self._class_reach.items() if cls in reach
            }

    # ------------------------------------------------------------------
    # PathIndex interface via structure-pruned BFS
    # ------------------------------------------------------------------
    def _node_set(self) -> frozenset:
        return self._nodes

    @property
    def class_count(self) -> int:
        return self._structure.node_count

    def class_of(self, node: NodeId) -> ClassId:
        return self._class_of[node]

    def reachable(self, source: NodeId, target: NodeId) -> bool:
        return self.distance(source, target) is not None

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        if source not in self._nodes or target not in self._nodes:
            return None
        target_class = self._class_of[target]
        if target_class not in self._class_reach[self._class_of[source]]:
            return None  # index-only negative answer: the summary refutes it
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == target:
                return dist[node]
            for succ in self._graph.successors(node):
                if succ in dist:
                    continue
                if target_class not in self._class_reach[self._class_of[succ]]:
                    continue  # branch cannot lead to the target's class
                dist[succ] = dist[node] + 1
                queue.append(succ)
        return None

    def _guided_bfs(
        self,
        source: NodeId,
        tag: Optional[str],
        forward: bool,
    ) -> List[ScoredNode]:
        if source not in self._nodes:
            return []
        if tag is None:
            goal_classes: Optional[Set[ClassId]] = None
        else:
            goal_classes = self._classes_with_tag.get(tag, set())
            if not goal_classes:
                return []
        reach = self._class_reach if forward else self._class_coreach

        def viable(node: NodeId) -> bool:
            if goal_classes is None:
                return True
            return not reach[self._class_of[node]].isdisjoint(goal_classes)

        results: List[ScoredNode] = []
        if not viable(source):
            return []
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if tag is None or self._tags[node] == tag:
                results.append((node, dist[node]))
            neighbours = (
                self._graph.successors(node)
                if forward
                else self._graph.predecessors(node)
            )
            for nxt in sorted(neighbours):
                if nxt not in dist and viable(nxt):
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        return sort_scored(results)

    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        return self._guided_bfs(source, tag, forward=True)

    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        return self._guided_bfs(source, tag, forward=False)
