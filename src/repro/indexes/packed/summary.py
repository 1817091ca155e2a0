"""Array-backed structure summaries (APEX, 1-index/A(k), F&B, DataGuide).

The packed form keeps the summary family's three ingredients as columns:

* the class partition — per-node class positions plus *extents as
  contiguous node-id runs* (``extent_offsets``/``extent_nodes``, nodes
  grouped by class), the layout APEX answers refined label paths from;
* the data edges — forward and backward CSR adjacency over node
  *positions*, successor runs sorted by node id (exactly the
  ``sorted(neighbours)`` order the object guided BFS visits);
* the structure graph — class-position edge pairs, from which the
  class-reachability sets the BFS prunes with are rebuilt lazily on
  first probe (the structure graph is small by design).

Queries run the same structure-pruned BFS as
:class:`repro.indexes._summary.SummaryIndex` and return identical
results; only the memory they walk is flat.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.indexes.base import NodeId, ScoredNode, sort_scored
from repro.indexes.packed.base import PackedIndex
from repro.indexes.packed.blob import BlobWriter, PackedBlob

#: summary-family strategy names packed by this module
SUMMARY_STRATEGIES = ("apex", "kindex", "fbindex", "dataguide", "fabric")


def pack_summary(index) -> bytes:
    """Serialize a built summary-family index to blob bytes."""
    nodes = sorted(index._nodes)
    pos = {node: i for i, node in enumerate(nodes)}
    classes = sorted(set(index._class_of.values()))
    cls_pos = {cls: i for i, cls in enumerate(classes)}
    class_col = [cls_pos[index._class_of[node]] for node in nodes]
    tags = sorted(set(index._tags[node] for node in nodes))
    tag_index = {tag: i for i, tag in enumerate(tags)}
    tag_ids = [tag_index[index._tags[node]] for node in nodes]

    def adjacency_csr(neighbours_of):
        offsets = [0]
        targets: List[int] = []
        for node in nodes:
            for other in sorted(neighbours_of(node)):
                targets.append(pos[other])
            offsets.append(len(targets))
        return offsets, targets

    succ_off, succ_pos = adjacency_csr(index._graph.successors)
    pred_off, pred_pos = adjacency_csr(index._graph.predecessors)

    struct_src: List[int] = []
    struct_dst: List[int] = []
    for u, v in sorted(index._structure.edges()):
        struct_src.append(cls_pos[u])
        struct_dst.append(cls_pos[v])

    extent_off = [0]
    extent_nodes: List[int] = []
    by_class: Dict[int, List[int]] = {}
    for node in nodes:
        by_class.setdefault(cls_pos[index._class_of[node]], []).append(node)
    for c in range(len(classes)):
        extent_nodes.extend(by_class.get(c, ()))
        extent_off.append(len(extent_nodes))

    writer = BlobWriter(
        index.strategy_name,
        meta={"tags": tags, "nodes": len(nodes), "classes": len(classes)},
    )
    writer.add_column("nodes", nodes)
    writer.add_column("class_pos", class_col)
    writer.add_column("tag_ids", tag_ids)
    writer.add_column("classes", classes)
    writer.add_column("succ_offsets", succ_off)
    writer.add_column("succ_pos", succ_pos)
    writer.add_column("pred_offsets", pred_off)
    writer.add_column("pred_pos", pred_pos)
    writer.add_column("struct_src", struct_src)
    writer.add_column("struct_dst", struct_dst)
    writer.add_column("extent_offsets", extent_off)
    writer.add_column("extent_nodes", extent_nodes)
    return writer.to_bytes()


class PackedSummaryIndex(PackedIndex):
    """Zero-copy structure-pruned BFS over an attached FLXPACK blob."""

    strategy_name = "summary"

    # Pre-promotion placeholders live on the *class*: _hot() rebinds the
    # instance attributes wholesale on first probe (nothing mutates
    # these in place), so attach assigns only the blob reference and
    # cold attach touches no column bytes (and no metadata JSON).
    _tag_index: Optional[Dict[str, int]] = None
    _pos: Optional[Dict[NodeId, int]] = None
    _node_col: List[int] = []
    _clspos_col: List[int] = []
    _tagid_col: List[int] = []
    _classes: List[int] = []
    _succ_lists: List[tuple] = []
    _pred_lists: List[tuple] = []
    _nodes: Optional[frozenset] = None
    _reach: Optional[List[Set[int]]] = None
    _coreach: Optional[List[Set[int]]] = None
    _tag_classes: Optional[List[Set[int]]] = None

    def __init__(self, blob: PackedBlob) -> None:
        super().__init__(blob)
        self.strategy_name = blob.strategy

    # ------------------------------------------------------------------
    # derived lookups
    # ------------------------------------------------------------------
    def _pos_lookup(self) -> Dict[NodeId, int]:
        pos = self._pos
        if pos is None:
            pos = self._hot()
        return pos

    def _hot(self) -> Dict[NodeId, int]:
        """First-probe promotion: columns → lists, CSR → per-node tuples.

        The guided BFS spends its time on neighbour iteration and class
        lookups; promoting the CSR runs to per-node tuples (still in the
        runs' sorted order) and the class/tag columns to lists makes both
        native-speed while cold attach stays O(1).
        """
        blob = self._blob
        node_col = self._node_col = blob.column_list("nodes")
        self._clspos_col = blob.column_list("class_pos")
        self._tagid_col = blob.column_list("tag_ids")
        self._classes = blob.column_list("classes")

        def adjacency_tuples(off_name, pos_name):
            off = blob.column_list(off_name)
            targets = blob.column_list(pos_name)
            return [
                tuple(targets[off[i] : off[i + 1]])
                for i in range(len(off) - 1)
            ]

        self._succ_lists = adjacency_tuples("succ_offsets", "succ_pos")
        self._pred_lists = adjacency_tuples("pred_offsets", "pred_pos")
        pos = self._pos = {node: i for i, node in enumerate(node_col)}
        return pos

    def _node_set(self) -> frozenset:
        # reads only the node column — load-time routing must not force
        # the full hot-path promotion
        nodes = self._nodes
        if nodes is None:
            nodes = frozenset(self._blob.column_list("nodes"))
            self._nodes = nodes
        return nodes

    def _class_reachability(self) -> Tuple[List[Set[int]], List[Set[int]]]:
        """Reflexive-transitive reachability over the structure graph,
        rebuilt once per attach (mirrors ``_compute_class_reachability``)."""
        if self._reach is None:
            self._pos_lookup()
            struct_src = self._blob.column_list("struct_src")
            struct_dst = self._blob.column_list("struct_dst")
            count = len(self._classes)
            adjacency: List[List[int]] = [[] for _ in range(count)]
            for k in range(len(struct_src)):
                adjacency[struct_src[k]].append(struct_dst[k])
            reach: List[Set[int]] = []
            for cls in range(count):
                seen = {cls}
                queue = deque([cls])
                while queue:
                    current = queue.popleft()
                    for succ in adjacency[current]:
                        if succ not in seen:
                            seen.add(succ)
                            queue.append(succ)
                reach.append(seen)
            coreach: List[Set[int]] = [set() for _ in range(count)]
            for cls, seen in enumerate(reach):
                for other in seen:
                    coreach[other].add(cls)
            self._reach = reach
            self._coreach = coreach
        return self._reach, self._coreach

    def _tag_lookup(self) -> Dict[str, int]:
        # tag names live in the blob's metadata JSON, parsed on first
        # tag-axis query, never at attach time
        tag_index = self._tag_index
        if tag_index is None:
            tag_index = self._tag_index = {
                tag: i for i, tag in enumerate(self._blob.meta["tags"])
            }
        return tag_index

    def _classes_with_tag(self, tag_id: int) -> Set[int]:
        table = self._tag_classes
        if table is None:
            self._pos_lookup()
            table = [set() for _ in self._tag_lookup()]
            clspos_col = self._clspos_col
            tagid_col = self._tagid_col
            for i in range(len(self._node_col)):
                table[tagid_col[i]].add(clspos_col[i])
            self._tag_classes = table
        return table[tag_id]

    # ------------------------------------------------------------------
    # core queries (same pruned BFS as the object SummaryIndex)
    # ------------------------------------------------------------------
    def reachable(self, source: NodeId, target: NodeId) -> bool:
        return self.distance(source, target) is not None

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        pos = self._pos_lookup()
        i = pos.get(source)
        if i is None:
            return None
        j = pos.get(target)
        if j is None:
            return None
        clspos_col = self._clspos_col
        reach, _ = self._class_reachability()
        target_class = clspos_col[j]
        if target_class not in reach[clspos_col[i]]:
            return None  # index-only negative answer: the summary refutes it
        succ_lists = self._succ_lists
        dist = {i: 0}
        queue = deque([i])
        while queue:
            p = queue.popleft()
            if p == j:
                return dist[p]
            base = dist[p] + 1
            for q in succ_lists[p]:
                if q in dist:
                    continue
                if target_class not in reach[clspos_col[q]]:
                    continue  # branch cannot lead to the target's class
                dist[q] = base
                queue.append(q)
        return None

    def _guided_bfs(
        self,
        source: NodeId,
        tag: Optional[str],
        forward: bool,
    ) -> List[ScoredNode]:
        pos = self._pos_lookup()
        i = pos.get(source)
        if i is None:
            return []
        want: Optional[int] = None
        goal_classes: Optional[Set[int]] = None
        if tag is not None:
            want = self._tag_lookup().get(tag)
            if want is None:
                return []
            goal_classes = self._classes_with_tag(want)
            if not goal_classes:
                return []
        reach_fwd, reach_bwd = self._class_reachability()
        reach = reach_fwd if forward else reach_bwd
        adjacency = self._succ_lists if forward else self._pred_lists
        clspos_col = self._clspos_col
        tagid_col = self._tagid_col
        node_col = self._node_col

        if goal_classes is not None and reach[clspos_col[i]].isdisjoint(
            goal_classes
        ):
            return []
        results: List[ScoredNode] = []
        dist = {i: 0}
        queue = deque([i])
        while queue:
            p = queue.popleft()
            if want is None or tagid_col[p] == want:
                results.append((node_col[p], dist[p]))
            base = dist[p] + 1
            # adjacency runs are sorted by node id: the object BFS's
            # ``sorted(neighbours)`` visit order, preserved for free
            for q in adjacency[p]:
                if q in dist:
                    continue
                if goal_classes is not None and reach[
                    clspos_col[q]
                ].isdisjoint(goal_classes):
                    continue
                dist[q] = base
                queue.append(q)
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

    # ------------------------------------------------------------------
    # summary extras (class partition + contiguous extents)
    # ------------------------------------------------------------------
    @property
    def class_count(self) -> int:
        self._pos_lookup()
        return len(self._classes)

    def class_of(self, node: NodeId) -> int:
        pos = self._pos_lookup()[node]
        return self._classes[self._clspos_col[pos]]

    def extent(self, cls: int) -> List[NodeId]:
        """The class extent as its contiguous node-id run."""
        from bisect import bisect_left

        self._pos_lookup()
        classes = self._classes
        c = bisect_left(classes, cls)
        if c >= len(classes) or classes[c] != cls:
            return []
        extent_off = self._blob.column_list("extent_offsets")
        extent_nodes = self._blob.column("extent_nodes")
        return list(extent_nodes[extent_off[c] : extent_off[c + 1]])
