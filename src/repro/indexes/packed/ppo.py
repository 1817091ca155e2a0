"""Array-backed PPO: preorder-sorted int64 columns + bisect interval scans.

The packed layout stores the interval encoding the builder
:class:`repro.indexes.ppo.PpoIndex` computes, laid out by preorder rank
so every probe is integer arithmetic over flat columns:

* ``node_at_pre``/``size_at_pre``/``depth_at_pre`` — one entry per pre
  rank; a descendant test is interval arithmetic over these columns, and
  the first probe promotes them to per-source target maps so steady-state
  probes are a single hash lookup (see ``_hot``);
* ``parent_pos_at_pre`` — the parent's pre rank (-1 at roots), so the
  ancestor walk never leaves the columns;
* ``tag_id_at_pre`` + per-tag preorder runs (``tag_offsets``/``tag_pres``)
  — a tag extent scan is two ``bisect`` calls into one contiguous run;
* ``tree_starts`` — the preorder rank of each tree's first node (part
  of the format; no probe reads it).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.indexes.base import NodeId, ScoredNode, sort_scored
from repro.indexes.packed.base import PackedIndex
from repro.indexes.packed.blob import BlobWriter

#: ceiling on total per-source distance-map entries (the sum of subtree
#: sizes); beyond it the hot-path promotion keeps interval arithmetic
#: instead of materializing the per-source target maps
_DIST_MAP_CAP = 1_000_000


def pack_ppo(index) -> bytes:
    """Serialize a built :class:`~repro.indexes.ppo.PpoIndex` to blob bytes."""
    node_at_pre = list(index._node_at_pre)
    n = len(node_at_pre)
    size_at_pre = [index._size[node] for node in node_at_pre]
    depth_at_pre = [index._depth[node] for node in node_at_pre]
    parent_pos = [
        -1 if index._parent[node] is None else index._pre[index._parent[node]]
        for node in node_at_pre
    ]
    tags = sorted(index._tag_pres)
    tag_id_at_pre = [0] * n
    tag_offsets = [0]
    tag_pres: List[int] = []
    for tag_id, tag in enumerate(tags):
        for pre, _node in index._tag_pres[tag]:  # already pre-sorted
            tag_pres.append(pre)
            tag_id_at_pre[pre] = tag_id
        tag_offsets.append(len(tag_pres))

    writer = BlobWriter("ppo", meta={"tags": tags, "nodes": n})
    writer.add_column("node_at_pre", node_at_pre)
    writer.add_column("size_at_pre", size_at_pre)
    writer.add_column("depth_at_pre", depth_at_pre)
    writer.add_column("parent_pos_at_pre", parent_pos)
    writer.add_column("tag_id_at_pre", tag_id_at_pre)
    writer.add_column("tag_offsets", tag_offsets)
    writer.add_column("tag_pres", tag_pres)
    writer.add_column("tree_starts", index._tree_starts)
    return writer.to_bytes()


class PackedPpoIndex(PackedIndex):
    """Zero-copy PPO probes over an attached FLXPACK blob."""

    strategy_name = "ppo"

    # Pre-promotion placeholders live on the *class*: every derived
    # lookup is built on first use (_hot() rebinds the instance
    # attributes wholesale, nothing mutates these in place), so attach
    # assigns only what it needs and cold attach stays O(1).
    _pre_of: Optional[Dict[NodeId, int]] = None
    _tag_index: Optional[Dict[str, int]] = None
    _node_col: List[int] = []
    _size_col: List[int] = []
    _depth_col: List[int] = []
    _parent_col: List[int] = []
    _tagid_col: List[int] = []
    _tag_off: List[int] = []
    _tag_pres: List[int] = []
    _nodes: Optional[frozenset] = None
    _prepared_candidates: Optional[frozenset] = None
    _prepared_pres: List[Tuple[int, NodeId]] = []

    # ------------------------------------------------------------------
    # derived lookups
    # ------------------------------------------------------------------
    def _pre_lookup(self) -> Dict[NodeId, int]:
        pre_of = self._pre_of
        if pre_of is None:
            # serving threads that race the first probe wait for one
            # promotion instead of each repeating it
            with self._promotion:
                pre_of = self._pre_of
                if pre_of is None:
                    pre_of = self._hot()
        return pre_of

    def _tag_lookup(self) -> Dict[str, int]:
        # tag names live in the blob's metadata JSON, parsed on first
        # tag-axis query, never at attach time
        tag_index = self._tag_index
        if tag_index is None:
            tag_index = self._tag_index = {
                tag: i for i, tag in enumerate(self._blob.meta["tags"])
            }
        return tag_index

    def _hot(self) -> Dict[NodeId, int]:
        """First-probe promotion: columns → lists, probes → closures.

        Runs once per attached index.  The point probes (``reachable``,
        ``distance``) are replaced by instance-level closures that answer
        from per-source target maps materialized off the interval columns
        (or from interval arithmetic above ``_DIST_MAP_CAP``),
        eliminating every per-call attribute load.
        """
        blob = self._blob
        node_col = self._node_col = blob.column_list("node_at_pre")
        size_col = self._size_col = blob.column_list("size_at_pre")
        depth_col = self._depth_col = blob.column_list("depth_at_pre")
        self._parent_col = blob.column_list("parent_pos_at_pre")
        self._tagid_col = blob.column_list("tag_id_at_pre")
        self._tag_off = blob.column_list("tag_offsets")
        self._tag_pres = blob.column_list("tag_pres")
        pre_of = {node: i for i, node in enumerate(node_col)}
        # subtree end per pre rank, precomputed so the probe does one
        # list load instead of a load plus an add
        end_col = [i + size for i, size in enumerate(size_col)]

        # Point probes are specialized one of two ways.  The preferred
        # form materializes, per source node, the map ``target -> depth
        # difference`` over its subtree interval — the *answer* of both
        # probes — so a probe is one dict subscript plus one C-level
        # dict operation (``in`` / ``.get``).  The maps hold exactly
        # ``sum(size_at_pre)`` entries (total subtree mass, i.e. nodes
        # times mean depth); above ``_DIST_MAP_CAP`` entries the
        # promotion falls back to interval arithmetic, which stays
        # O(nodes) in memory.  Both forms are stateless after
        # construction, so concurrent serving workers can share them.
        if sum(size_col) <= _DIST_MAP_CAP:
            dist_of: Dict[NodeId, Dict[NodeId, int]] = {}
            for i, node in enumerate(node_col):
                base_depth = depth_col[i]
                dist_of[node] = {
                    node_col[p]: depth_col[p] - base_depth
                    for p in range(i, end_col[i])
                }

            def reachable(
                source: NodeId, target: NodeId, _dist=dist_of
            ) -> bool:
                try:
                    return target in _dist[source]
                except KeyError:
                    return False

            def distance(
                source: NodeId, target: NodeId, _dist=dist_of
            ) -> Optional[int]:
                try:
                    return _dist[source].get(target)
                except KeyError:
                    return None

        else:  # pragma: no cover - exercised only by very deep corpora
            # ``pre_of[x]`` + KeyError beats two ``.get`` calls: probes
            # are overwhelmingly for present nodes, where the happy path
            # is two plain subscripts and no bound-method calls.
            def reachable(source: NodeId, target: NodeId) -> bool:
                try:
                    ps = pre_of[source]
                    pt = pre_of[target]
                except KeyError:
                    return False
                return ps <= pt < end_col[ps]

            def distance(source: NodeId, target: NodeId) -> Optional[int]:
                try:
                    ps = pre_of[source]
                    pt = pre_of[target]
                except KeyError:
                    return None
                if ps <= pt < end_col[ps]:
                    return depth_col[pt] - depth_col[ps]
                return None

        self.reachable = reachable  # type: ignore[method-assign]
        self.distance = distance  # type: ignore[method-assign]
        # published last: ``_pre_of`` is what ``_pre_lookup`` tests
        # without the lock, so a thread that sees it set also sees the
        # closures (it would otherwise recurse through the class-level
        # ``reachable`` / ``distance`` until they appear)
        self._pre_of = pre_of
        return pre_of

    def _node_set(self) -> frozenset:
        # reads only the node column — load-time routing must not force
        # the full hot-path promotion
        nodes = self._nodes
        if nodes is None:
            nodes = frozenset(self._blob.column_list("node_at_pre"))
            self._nodes = nodes
        return nodes

    def _tag_run(self, tag_id: int) -> Tuple[int, int]:
        return self._tag_off[tag_id], self._tag_off[tag_id + 1]

    # ------------------------------------------------------------------
    # core queries
    # ------------------------------------------------------------------
    def reachable(self, source: NodeId, target: NodeId) -> bool:
        self._pre_lookup()  # installs the specialized closure
        return self.reachable(source, target)

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        self._pre_lookup()  # installs the specialized closure
        return self.distance(source, target)

    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        pre_of = self._pre_of
        if pre_of is None:
            pre_of = self._pre_lookup()
        ps = pre_of.get(source)
        if ps is None:
            return []
        low = ps
        high = ps + self._size_col[ps]
        base_depth = self._depth_col[ps]
        depth_col = self._depth_col
        node_col = self._node_col
        if tag is None:
            return sort_scored(
                (node_col[p], depth_col[p] - base_depth)
                for p in range(low, high)
            )
        tag_id = self._tag_lookup().get(tag)
        if tag_id is None:
            return []
        run = self._tag_pres
        start, end = self._tag_run(tag_id)
        lo = bisect_left(run, low, start, end)
        hi = bisect_left(run, high, start, end)
        return sort_scored(
            (node_col[run[i]], depth_col[run[i]] - base_depth)
            for i in range(lo, hi)
        )

    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        pre_of = self._pre_of
        if pre_of is None:
            pre_of = self._pre_lookup()
        pos = pre_of.get(source)
        if pos is None:
            return []
        want = None
        if tag is not None:
            want = self._tag_lookup().get(tag)
            if want is None:
                return []
        node_col = self._node_col
        parent_col = self._parent_col
        tagid_col = self._tagid_col
        result: List[ScoredNode] = []
        dist = 0
        while pos != -1:
            if want is None or tagid_col[pos] == want:
                result.append((node_col[pos], dist))
            pos = parent_col[pos]
            dist += 1
        return result  # parent walk is already ascending-distance

    # ------------------------------------------------------------------
    # residual-link fast path
    # ------------------------------------------------------------------
    def prepare_link_candidates(self, candidates: frozenset) -> None:
        """Sort ``L_i`` by preorder so ``reachable_subset`` is one bisect.

        With this, the Figure 4 step "compute the set L(a) of reachable
        link elements" costs O(log n + |answer|) on PPO meta documents
        instead of one interval probe per candidate.
        """
        pre_of = self._pre_lookup()
        self._prepared_candidates = candidates
        self._prepared_pres = sorted(
            (pre_of[c], c) for c in candidates if c in pre_of
        )

    def reachable_subset(self, source: NodeId, candidates) -> List[ScoredNode]:
        pre_of = self._pre_of
        if pre_of is None:
            pre_of = self._pre_lookup()
        if (
            self._prepared_candidates is None
            or candidates is not self._prepared_candidates
            or source not in pre_of
        ):
            return super().reachable_subset(source, candidates)
        ps = pre_of[source]
        low = ps
        high = ps + self._size_col[ps]
        prepared = self._prepared_pres
        lo = bisect_left(prepared, (low, -1))
        hi = bisect_left(prepared, (high, -1))
        base_depth = self._depth_col[ps]
        depth_col = self._depth_col
        return sort_scored(
            (node, depth_col[pre] - base_depth)
            for pre, node in prepared[lo:hi]
        )

    def reaching_subset(self, target: NodeId, candidates) -> List[ScoredNode]:
        # the candidates above ``target`` lie on its parent walk: O(depth),
        # not one probe per link target of the forest
        return [
            pair
            for pair in self.find_ancestors_by_tag(target, None)
            if pair[0] in candidates
        ]
