"""HOPI: a 2-hop connection index with distance information [18, 6].

Every node ``v`` carries two label sets: ``L_in(v)`` (hubs that reach ``v``)
and ``L_out(v)`` (hubs reachable from ``v``), each entry annotated with the
hop distance.  Then

* ``u`` reaches ``v``  iff  ``L_out(u)`` and ``L_in(v)`` share a hub, and
* ``dist(u, v) = min over shared hubs h of d(u, h) + d(h, v)``.

Two builders are provided:

``HopiIndex.build``
    Centralized construction via *pruned landmark labeling*: process nodes
    in descending-degree order; from each landmark run one forward and one
    backward BFS, pruned wherever the labels built so far already certify a
    distance at least as small.  This yields a correct and small 2-hop cover
    with exact distances (the greedy set-cover construction of Cohen et al.
    is approximated by the degree-ordered pruning, as in practical 2-hop
    implementations).

``HopiIndex.build_divide_and_conquer``
    The paper's three-step HOPI builder (section 2.2): (1) partition the
    graph into size-bounded blocks with few crossing edges, (2) label each
    partition independently, (3) *join* the partition indexes.  The join
    forms a weighted *skeleton graph* over the endpoints of
    partition-crossing edges (cross edges at weight 1, intra-partition
    endpoint-to-endpoint shortest paths), computes shortest paths on it,
    and promotes every cross-edge head to a global hub.  The result
    answers exactly the same queries as the centralized build — the test
    suite asserts equality against BFS ground truth for both.

Stopping after step (2) gives the per-partition indexes that FliX's
*Unconnected HOPI* configuration uses as meta-document indexes.

This module is the builder: :func:`repro.indexes.packed.hopi.pack_hopi`
stores the finished labels and their inverted lists as CSR columns, and
:class:`repro.indexes.packed.hopi.PackedHopiIndex` answers every probe.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Set, Tuple

from repro.graph.digraph import Digraph
from repro.graph.partition import partition_graph
from repro.graph.traversal import bfs_distances, bfs_reverse_distances, dijkstra
from repro.indexes.base import NodeId

Label = Dict[NodeId, int]  # hub -> distance


class HopiIndex:
    """Builder of 2-hop reachability/distance labels over any digraph."""

    strategy_name = "hopi"

    def __init__(self) -> None:
        self._in: Dict[NodeId, Label] = {}
        self._out: Dict[NodeId, Label] = {}
        # hub -> {node: dist} — inverted labels for enumeration
        self._hub_descendants: Dict[NodeId, Dict[NodeId, int]] = {}
        self._hub_ancestors: Dict[NodeId, Dict[NodeId, int]] = {}
        self._tags: Dict[NodeId, str] = {}
        self._nodes: frozenset = frozenset()

    # ==================================================================
    # centralized construction (pruned landmark labeling)
    # ==================================================================
    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "HopiIndex":
        index = cls()
        index._tags = dict(tags)
        index._in = {node: {} for node in graph}
        index._out = {node: {} for node in graph}
        order = sorted(
            graph.nodes(),
            key=lambda n: (-(graph.in_degree(n) + graph.out_degree(n)), n),
        )
        for landmark in order:
            index._label_from(graph, landmark, forward=True)
            index._label_from(graph, landmark, forward=False)
        index._finish()
        return index

    def _label_from(self, graph: Digraph, landmark: NodeId, forward: bool) -> None:
        """One pruned BFS; forward fills L_in of reached nodes, backward L_out."""
        target_labels = self._in if forward else self._out
        queue = deque([(landmark, 0)])
        visited = {landmark}
        while queue:
            node, dist = queue.popleft()
            if node != landmark and self._query_distance_capped(landmark, node, dist, forward):
                continue  # an earlier landmark already certifies <= dist
            target_labels[node][landmark] = dist
            neighbours = (
                graph.successors(node) if forward else graph.predecessors(node)
            )
            for nxt in neighbours:
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append((nxt, dist + 1))

    def _query_distance_capped(
        self,
        landmark: NodeId,
        node: NodeId,
        cap: int,
        forward: bool,
    ) -> bool:
        """True iff current labels already give dist(landmark→node) <= cap
        (forward) or dist(node→landmark) <= cap (backward)."""
        if forward:
            out, inn = self._out[landmark], self._in[node]
        else:
            out, inn = self._out[node], self._in[landmark]
        if len(out) > len(inn):
            out, inn = inn, out
        for hub, d1 in out.items():
            d2 = inn.get(hub)
            if d2 is not None and d1 + d2 <= cap:
                return True
        return False

    # ==================================================================
    # divide-and-conquer construction (the HOPI builder)
    # ==================================================================
    @classmethod
    def build_divide_and_conquer(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        partition_size: int,
    ) -> "HopiIndex":
        partitioning = partition_graph(graph, partition_size)
        blocks = [graph.subgraph(block) for block in partitioning.blocks]
        locals_ = [
            cls.build(sub, {n: tags[n] for n in block})
            for sub, block in zip(blocks, partitioning.blocks)
        ]

        index = cls()
        index._tags = dict(tags)
        # Start from the union of the partition-local labels.
        index._in = {node: {} for node in graph}
        index._out = {node: {} for node in graph}
        for local in locals_:
            for node, label in local._in.items():
                index._in[node].update(label)
            for node, label in local._out.items():
                index._out[node].update(label)

        index._join_partitions(
            partitioning.block_of, partitioning.cut_edges, blocks
        )
        index._finish()
        return index

    def _join_partitions(
        self,
        block_of: Dict[NodeId, int],
        cut_edges: List[Tuple[NodeId, NodeId]],
        blocks: List[Digraph],
    ) -> None:
        """Step 3 of the HOPI builder: join partition indexes via a skeleton.

        Skeleton nodes are the endpoints of cut edges.  Skeleton edges are
        the cut edges themselves (weight 1) plus, within each partition, an
        edge between every ordered endpoint pair at its local shortest-path
        distance — the distance the partition's labels encode, found by a
        BFS inside its subgraph ``blocks[i]``.  Every cut-edge *head*
        becomes a global hub: it is added to ``L_out`` of each node that
        reaches it (local prefix + skeleton path) and to ``L_in`` of each
        node it reaches locally.  A cross-partition path enters its final
        partition through such a head, so the head is a shared hub for every
        cross-partition pair — making the joined labels a complete,
        distance-exact 2-hop cover.
        """
        if not cut_edges:
            return
        heads = sorted({v for _, v in cut_edges})
        skeleton_nodes: Set[NodeId] = {u for u, _ in cut_edges} | set(heads)

        # Weighted skeleton adjacency.
        adjacency: Dict[NodeId, Dict[NodeId, int]] = {s: {} for s in skeleton_nodes}

        def relax(a: NodeId, b: NodeId, w: int) -> None:
            current = adjacency[a].get(b)
            if current is None or w < current:
                adjacency[a][b] = w

        for u, v in cut_edges:
            relax(u, v, 1)
        by_block: Dict[int, List[NodeId]] = {}
        for s in skeleton_nodes:
            by_block.setdefault(block_of[s], []).append(s)
        for block_id, members in by_block.items():
            for a in members:
                local = bfs_distances(blocks[block_id], a)
                for b in members:
                    if a != b and b in local:
                        relax(a, b, local[b])

        # Shortest skeleton distances from every skeleton node to every head.
        head_set = set(heads)
        to_heads: Dict[NodeId, Dict[NodeId, int]] = {}
        for s in skeleton_nodes:
            dist = dijkstra(
                len(skeleton_nodes), s, lambda n: adjacency.get(n, {}).items()
            )
            to_heads[s] = {h: d for h, d in dist.items() if h in head_set}

        # L_in side: every head labels its local descendants.
        for head in heads:
            for node, d in bfs_distances(blocks[block_of[head]], head).items():
                label = self._in[node]
                if head not in label or d < label[head]:
                    label[head] = d

        # L_out side: every node that locally reaches a skeleton node in its
        # own partition gets labels for all heads reachable on the skeleton.
        for block_id, members in by_block.items():
            for s in members:
                reach = to_heads.get(s)
                if not reach:
                    continue
                prefixes = bfs_reverse_distances(blocks[block_id], s)
                for node, d_prefix in prefixes.items():
                    label = self._out[node]
                    for head, d_skel in reach.items():
                        total = d_prefix + d_skel
                        if head not in label or total < label[head]:
                            label[head] = total

    # ==================================================================
    # shared finishing: the inverted lists
    # ==================================================================
    def _finish(self) -> None:
        self._nodes = frozenset(self._in)
        for node, label in self._in.items():
            for hub, dist in label.items():
                self._hub_descendants.setdefault(hub, {})[node] = dist
        for node, label in self._out.items():
            for hub, dist in label.items():
                self._hub_ancestors.setdefault(hub, {})[node] = dist
