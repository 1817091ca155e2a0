"""Array-backed transitive closure: (src, dst, dist) CSR columns.

The packed layout keeps exactly the relation the builder
:class:`repro.indexes.transitive.TransitiveClosureIndex` materializes:

* ``nodes`` — the indexed node ids, ascending; a node's position is its
  row number;
* ``offsets``/``dst``/``dist`` — one CSR row per source position, its
  targets (self included, at distance 0) ascending by node id, so
  ``reachable`` / ``distance`` are one ``bisect`` into the row;
* ``tag_ids`` — per node position, an index into the metadata's sorted
  tag list.

Only the forward rows are stored.  The ancestor rows the reverse axis
enumerates are inverted from them on first use, so the blob stays the
size of the closure itself — Table 1's strawman.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.indexes.base import NodeId, ScoredNode, sort_scored
from repro.indexes.packed.base import PackedIndex
from repro.indexes.packed.blob import BlobWriter

#: the blob header's strategy field (16 bytes at most)
CLOSURE_BLOB_STRATEGY = "closure"


def pack_closure(index) -> bytes:
    """Serialize a built :class:`~repro.indexes.transitive
    .TransitiveClosureIndex` to blob bytes."""
    nodes = sorted(index._nodes)
    tags = sorted(set(index._tags[node] for node in nodes))
    tag_index = {tag: i for i, tag in enumerate(tags)}
    offsets = [0]
    dst: List[int] = []
    dist: List[int] = []
    for node in nodes:
        for target, d in sorted(index._descendants.get(node, {}).items()):
            dst.append(target)
            dist.append(d)
        offsets.append(len(dst))
    writer = BlobWriter(
        CLOSURE_BLOB_STRATEGY, meta={"tags": tags, "nodes": len(nodes)}
    )
    writer.add_column("nodes", nodes)
    writer.add_column("tag_ids", [tag_index[index._tags[n]] for n in nodes])
    writer.add_column("offsets", offsets)
    writer.add_column("dst", dst)
    writer.add_column("dist", dist)
    return writer.to_bytes()


class PackedClosureIndex(PackedIndex):
    """Bisect probes over an attached closure blob."""

    strategy_name = "transitive_closure"

    # Pre-promotion placeholders live on the *class*: _hot() rebinds the
    # instance attributes on first probe, so attach touches no column.
    _pos: Optional[Dict[NodeId, int]] = None
    _offsets: List[int] = []
    _dst: List[int] = []
    _dist: List[int] = []
    _tagid_col: List[int] = []
    _tag_index: Optional[Dict[str, int]] = None
    _nodes: Optional[frozenset] = None
    _ancestors: Optional[List[List[Tuple[NodeId, int]]]] = None

    def _pos_lookup(self) -> Dict[NodeId, int]:
        pos = self._pos
        if pos is None:
            with self._promotion:
                pos = self._pos
                if pos is None:
                    pos = self._hot()
        return pos

    def _hot(self) -> Dict[NodeId, int]:
        """First-probe promotion: the CSR columns become lists."""
        blob = self._blob
        self._offsets = blob.column_list("offsets")
        self._dst = blob.column_list("dst")
        self._dist = blob.column_list("dist")
        self._tagid_col = blob.column_list("tag_ids")
        self._tag_index = {
            tag: i for i, tag in enumerate(blob.meta["tags"])
        }
        pos = self._pos = {
            node: i for i, node in enumerate(blob.column_list("nodes"))
        }
        return pos

    def _node_set(self) -> frozenset:
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = frozenset(self._blob.column_list("nodes"))
        return nodes

    def _find(self, source: NodeId, target: NodeId) -> Optional[int]:
        """Position of ``target`` in ``source``'s row, or ``None``."""
        row = self._pos_lookup().get(source)
        if row is None:
            return None
        lo, hi = self._offsets[row], self._offsets[row + 1]
        i = bisect_left(self._dst, target, lo, hi)
        if i < hi and self._dst[i] == target:
            return i
        return None

    def reachable(self, source: NodeId, target: NodeId) -> bool:
        return self._find(source, target) is not None

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        i = self._find(source, target)
        return None if i is None else self._dist[i]

    def _matching(self, pairs, tag: Optional[str]) -> List[ScoredNode]:
        if tag is None:
            return sort_scored(pairs)
        want = self._tag_index.get(tag)
        if want is None:
            return []
        pos = self._pos
        tagid_col = self._tagid_col
        return sort_scored(
            (node, d) for node, d in pairs if tagid_col[pos[node]] == want
        )

    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        row = self._pos_lookup().get(source)
        if row is None:
            return []
        lo, hi = self._offsets[row], self._offsets[row + 1]
        return self._matching(zip(self._dst[lo:hi], self._dist[lo:hi]), tag)

    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        row = self._pos_lookup().get(source)
        if row is None:
            return []
        return self._matching(self._ancestor_rows()[row], tag)

    def _ancestor_rows(self) -> List[List[Tuple[NodeId, int]]]:
        """Per target position, its (source, distance) pairs — the forward
        rows inverted once, on the first ancestor query."""
        rows = self._ancestors
        if rows is None:
            with self._promotion:
                rows = self._ancestors
                if rows is None:
                    pos = self._pos
                    offsets, dst, dist = self._offsets, self._dst, self._dist
                    nodes = self._blob.column_list("nodes")
                    rows = [[] for _ in nodes]
                    for row, source in enumerate(nodes):
                        for i in range(offsets[row], offsets[row + 1]):
                            rows[pos[dst[i]]].append((source, dist[i]))
                    self._ancestors = rows
        return rows
