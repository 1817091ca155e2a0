"""Size-bounded graph partitioning with few cut edges.

Two FliX components need this (sections 4.1 and 4.3):

* the first step of HOPI's divide-and-conquer index builder "builds
  partitions of the XML graph such that each partition does not exceed a
  configurable size and the number of partition-crossing edges is small";
* the *Unconnected HOPI* configuration stops after that step and turns the
  partitions directly into meta documents.

Exact minimum-cut balanced partitioning is NP-hard, so — like the original
HOPI implementation — we use a greedy heuristic: grow partitions by
best-first expansion (preferring the frontier node with the most edges into
the partition, i.e. locally minimizing new cut edges), then run a boundary
refinement pass that moves nodes whose cut gain is positive
(Kernighan–Lin-style, single sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Set, Tuple

from repro.graph.digraph import Digraph

Node = Hashable


@dataclass
class Partitioning:
    """A disjoint cover of a graph's nodes.

    ``blocks[i]`` is the node set of partition ``i``; ``block_of`` maps each
    node to its partition index; ``cut_edges`` are the partition-crossing
    directed edges.
    """

    blocks: List[Set[Node]]
    block_of: Dict[Node, int]
    cut_edges: List[Tuple[Node, Node]] = field(default_factory=list)

    @property
    def cut_size(self) -> int:
        return len(self.cut_edges)

    def validate(self, graph: Digraph) -> None:
        """Assert the partitioning is a disjoint cover of ``graph``."""
        seen: Set[Node] = set()
        for i, block in enumerate(self.blocks):
            if block & seen:
                raise ValueError(f"partition {i} overlaps an earlier one")
            seen |= block
        missing = set(graph.nodes()) - seen
        if missing:
            raise ValueError(f"{len(missing)} nodes not covered")


def _undirected_neighbours(graph: Digraph, node: Node) -> Set[Node]:
    return graph.successors(node) | graph.predecessors(node)


def _grow_blocks(graph: Digraph, max_size: int) -> Tuple[List[Set[Node]], Dict[Node, int]]:
    """Initial blocks: consecutive segments of an undirected DFS post-order.

    Post-order packing keeps subtrees (and locally dense neighbourhoods)
    contiguous, so it never strands leaves in singleton blocks the way
    frontier-gain growth does; the refinement sweep then polishes the cut.
    Components are visited root-first (lowest in-degree seeds), matching
    the document-rooted structure of XML element graphs.
    """
    seen: Set[Node] = set()
    blocks: List[Set[Node]] = []
    current: Set[Node] = set()
    seeds = sorted(graph.nodes(), key=lambda n: (graph.in_degree(n), repr(n)))
    for seed in seeds:
        if seed in seen:
            continue
        seen.add(seed)
        stack = [(seed, iter(sorted(_undirected_neighbours(graph, seed), key=repr)))]
        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for nb in neighbours:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(
                        (nb, iter(sorted(_undirected_neighbours(graph, nb), key=repr)))
                    )
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            current.add(node)
            if len(current) >= max_size:
                blocks.append(current)
                current = set()
    if current:
        blocks.append(current)
    block_of = {node: i for i, block in enumerate(blocks) for node in block}
    return blocks, block_of


def _refine(
    graph: Digraph,
    blocks: List[Set[Node]],
    block_of: Dict[Node, int],
    max_size: int,
) -> None:
    """One Kernighan–Lin-style sweep moving boundary nodes that reduce cut."""
    boundary = [
        node
        for node in graph.nodes()
        if any(block_of[nb] != block_of[node] for nb in _undirected_neighbours(graph, node))
    ]
    for node in sorted(boundary, key=repr):
        home = block_of[node]
        if len(blocks[home]) == 1:
            continue  # never empty a block
        tally: Dict[int, int] = {}
        for nb in _undirected_neighbours(graph, node):
            tally[block_of[nb]] = tally.get(block_of[nb], 0) + 1
        here = tally.get(home, 0)
        best_bid, best_cnt = home, here
        for bid, cnt in tally.items():
            if bid == home or len(blocks[bid]) >= max_size:
                continue
            if cnt > best_cnt or (cnt == best_cnt and bid < best_bid):
                best_bid, best_cnt = bid, cnt
        if best_bid != home and best_cnt > here:
            blocks[home].discard(node)
            blocks[best_bid].add(node)
            block_of[node] = best_bid


def _merge_small_blocks(
    graph: Digraph,
    blocks: List[Set[Node]],
    block_of: Dict[Node, int],
    max_size: int,
) -> None:
    """Fold fragment blocks into an adjacent block that has room.

    Best-first growth can strand small leftovers once most of the graph is
    consumed; each fragment is merged into the neighbouring block it shares
    the most edges with, provided the size bound holds.
    """
    small_threshold = max(1, max_size // 4)
    for bid, block in enumerate(blocks):
        if not block or len(block) > small_threshold:
            continue
        tally: Dict[int, int] = {}
        for node in block:
            for nb in _undirected_neighbours(graph, node):
                other = block_of[nb]
                if other != bid:
                    tally[other] = tally.get(other, 0) + 1
        best = None
        for other, count in sorted(tally.items()):
            if len(blocks[other]) + len(block) > max_size:
                continue
            if best is None or count > tally[best]:
                best = other
        if best is not None:
            for node in block:
                block_of[node] = best
            blocks[best] |= block
            block.clear()


def partition_graph(graph: Digraph, max_size: int, refine: bool = True) -> Partitioning:
    """Partition ``graph`` into blocks of at most ``max_size`` nodes.

    The heuristic never splits a node set it can keep together under the
    size bound, and a refinement sweep shrinks the edge cut further.  The
    result is the input of both HOPI's divide-and-conquer build and the
    Unconnected HOPI meta-document configuration.
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    blocks, block_of = _grow_blocks(graph, max_size)
    if refine:
        _merge_small_blocks(graph, blocks, block_of, max_size)
        _refine(graph, blocks, block_of, max_size)
    blocks = [b for b in blocks if b]
    block_of = {}
    for i, block in enumerate(blocks):
        for node in block:
            block_of[node] = i
    cut = [(u, v) for u, v in graph.edges() if block_of[u] != block_of[v]]
    return Partitioning(blocks=blocks, block_of=block_of, cut_edges=cut)
