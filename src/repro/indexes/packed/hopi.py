"""Array-backed HOPI: per-node sorted hub/distance runs in the blob.

The 2-hop labels become four CSR-style column groups:

* ``out_offsets``/``out_hubs``/``out_dists`` — ``L_out`` per node, hubs
  sorted ascending within each node's run (``in_*`` analogously);
* ``hub_desc_*``/``hub_anc_*`` — the inverted lists (hub → labelled
  nodes) the enumeration and ``L(a)`` subset queries walk, nodes sorted
  within each hub run.

That sorted-run form is what persists and what cold attach maps; on the
first probe the runs are promoted to per-node hub hash maps (plus a
composite-int lane for singleton ``L_out`` labels, the dominant shape on
meta-document graphs), because in CPython a C-level dict probe beats an
interpreted merge over column slices.  A probe is then Cohen et al.'s
2-hop intersection — smaller side iterated against the larger — with
``min`` over shared hubs, which is order-independent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.indexes.base import NodeId, ScoredNode, sort_scored
from repro.indexes.packed.base import PackedIndex
from repro.indexes.packed.blob import BlobWriter


def pack_hopi(index) -> bytes:
    """Serialize a built :class:`~repro.indexes.hopi.HopiIndex` to blob bytes."""
    nodes = sorted(index._nodes)
    tags = sorted(set(index._tags[node] for node in nodes))
    tag_index = {tag: i for i, tag in enumerate(tags)}
    tag_ids = [tag_index[index._tags[node]] for node in nodes]

    def label_csr(labels):
        offsets = [0]
        hubs: List[int] = []
        dists: List[int] = []
        for node in nodes:
            for hub, dist in sorted(labels.get(node, {}).items()):
                hubs.append(hub)
                dists.append(dist)
            offsets.append(len(hubs))
        return offsets, hubs, dists

    out_off, out_hubs, out_dists = label_csr(index._out)
    in_off, in_hubs, in_dists = label_csr(index._in)

    hubs_sorted = sorted(
        set(index._hub_descendants) | set(index._hub_ancestors)
    )

    def inverted_csr(inverted):
        offsets = [0]
        members: List[int] = []
        dists: List[int] = []
        for hub in hubs_sorted:
            for node, dist in sorted(inverted.get(hub, {}).items()):
                members.append(node)
                dists.append(dist)
            offsets.append(len(members))
        return offsets, members, dists

    hd_off, hd_nodes, hd_dists = inverted_csr(index._hub_descendants)
    ha_off, ha_nodes, ha_dists = inverted_csr(index._hub_ancestors)

    writer = BlobWriter("hopi", meta={"tags": tags, "nodes": len(nodes)})
    writer.add_column("nodes", nodes)
    writer.add_column("tag_ids", tag_ids)
    writer.add_column("out_offsets", out_off)
    writer.add_column("out_hubs", out_hubs)
    writer.add_column("out_dists", out_dists)
    writer.add_column("in_offsets", in_off)
    writer.add_column("in_hubs", in_hubs)
    writer.add_column("in_dists", in_dists)
    writer.add_column("hubs", hubs_sorted)
    writer.add_column("hub_desc_offsets", hd_off)
    writer.add_column("hub_desc_nodes", hd_nodes)
    writer.add_column("hub_desc_dists", hd_dists)
    writer.add_column("hub_anc_offsets", ha_off)
    writer.add_column("hub_anc_nodes", ha_nodes)
    writer.add_column("hub_anc_dists", ha_dists)
    return writer.to_bytes()


class PackedHopiIndex(PackedIndex):
    """Zero-copy 2-hop probes over an attached FLXPACK blob."""

    strategy_name = "hopi"

    # Pre-promotion placeholders live on the *class*: _hot() rebinds the
    # instance attributes wholesale on first probe (nothing mutates
    # these in place), so attach assigns only the blob reference and
    # cold attach touches no column bytes (and no metadata JSON).
    _tag_index: Optional[Dict[str, int]] = None
    _pos: Optional[Dict[NodeId, int]] = None
    _node_col: List[int] = []
    _tagid_col: List[int] = []
    _out_off: List[int] = []
    _out_hubs: List[int] = []
    _out_dists: List[int] = []
    _in_off: List[int] = []
    _in_hubs: List[int] = []
    _in_dists: List[int] = []
    _hub_col: List[int] = []
    _hd_off: List[int] = []
    _hd_nodes: List[int] = []
    _hd_dists: List[int] = []
    _ha_off: List[int] = []
    _ha_nodes: List[int] = []
    _ha_dists: List[int] = []
    _tag_of: Dict[NodeId, int] = {}
    _hd_maps: Optional[Dict[int, Dict[NodeId, int]]] = None
    _ha_maps: Optional[Dict[int, Dict[NodeId, int]]] = None
    _nodes: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # derived lookups
    # ------------------------------------------------------------------
    def _pos_lookup(self) -> Dict[NodeId, int]:
        pos = self._pos
        if pos is None:
            # serving threads that race the first probe wait for one
            # promotion instead of each repeating it
            with self._promotion:
                pos = self._pos
                if pos is None:
                    pos = self._hot()
        return pos

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
        """First-probe promotion: columns → lists, point probes → closures.

        2-hop labels over meta-document graphs are overwhelmingly
        singletons (one hub covers the node), so besides the per-node
        hub maps the promotion extracts a *singleton lane*: node → the
        lone ``(dist, hub)`` packed into one int.  A probe from a
        singleton label is three dict operations and no loop; fatter
        labels intersect their hub maps smaller-into-larger.
        """
        blob = self._blob
        node_col = self._node_col = blob.column_list("nodes")
        tagid_col = self._tagid_col = blob.column_list("tag_ids")
        self._tag_of = dict(zip(node_col, tagid_col))
        out_off = self._out_off = blob.column_list("out_offsets")
        out_hubs = self._out_hubs = blob.column_list("out_hubs")
        out_dists = self._out_dists = blob.column_list("out_dists")
        in_off = self._in_off = blob.column_list("in_offsets")
        in_hubs = self._in_hubs = blob.column_list("in_hubs")
        in_dists = self._in_dists = blob.column_list("in_dists")
        self._hub_col = blob.column_list("hubs")
        self._hd_off = blob.column_list("hub_desc_offsets")
        self._hd_nodes = blob.column_list("hub_desc_nodes")
        self._hd_dists = blob.column_list("hub_desc_dists")
        self._ha_off = blob.column_list("hub_anc_offsets")
        self._ha_nodes = blob.column_list("hub_anc_nodes")
        self._ha_dists = blob.column_list("hub_anc_dists")
        pos = {node: i for i, node in enumerate(node_col)}
        pos_get = pos.get

        # Probe accelerators, all derived from the sorted runs:
        #
        # * ``out_maps``/``in_maps`` — node → {hub: dist}, the label as a
        #   hash map so the smaller side iterates at C speed into the
        #   larger;
        # * ``out_single`` — node → ``dist << 40 | hub`` for singleton
        #   ``L_out`` labels (the overwhelmingly common shape), making
        #   the frequent probe three dict operations with no loop.
        #
        # The composite singleton lane needs ids in [0, 2**40); other id
        # ranges simply skip that lane — the hub maps handle any ints.
        shiftable = not node_col or (
            node_col[0] >= 0 and node_col[-1] < (1 << 40)
        )
        mask = (1 << 40) - 1

        def lane_maps(off, hubs, dists):
            single: Dict[NodeId, int] = {}
            maps: Dict[NodeId, Dict[int, int]] = {}
            for i in range(len(off) - 1):
                a0 = off[i]
                a1 = off[i + 1]
                node = node_col[i]
                if shiftable and a1 - a0 == 1:
                    single[node] = dists[a0] << 40 | hubs[a0]
                entry = maps[node] = {}
                for k in range(a0, a1):
                    entry[hubs[k]] = dists[k]
            return single.get, maps.get

        out_single_get, out_maps_get = lane_maps(out_off, out_hubs, out_dists)
        _in_single_get, in_maps_get = lane_maps(in_off, in_hubs, in_dists)

        def distance(source: NodeId, target: NodeId) -> Optional[int]:
            entry = out_single_get(source)
            if entry is not None:
                inn = in_maps_get(target)
                if inn is None:
                    return None
                d2 = inn.get(entry & mask)
                return None if d2 is None else (entry >> 40) + d2
            out = out_maps_get(source)
            if out is None:
                return None
            inn = in_maps_get(target)
            if inn is None:
                return None
            # iterate the smaller hub map, hash-probe the larger; min
            # over shared hubs
            if len(out) > len(inn):
                best = None
                for hub, d2 in inn.items():
                    d1 = out.get(hub)
                    if d1 is not None and (best is None or d1 + d2 < best):
                        best = d1 + d2
                return best
            best = None
            for hub, d1 in out.items():
                d2 = inn.get(hub)
                if d2 is not None and (best is None or d1 + d2 < best):
                    best = d1 + d2
            return best

        def reachable(source: NodeId, target: NodeId) -> bool:
            # existence needs no min: first shared hub wins
            entry = out_single_get(source)
            if entry is not None:
                inn = in_maps_get(target)
                return inn is not None and (entry & mask) in inn
            out = out_maps_get(source)
            if out is None:
                return False
            inn = in_maps_get(target)
            if inn is None:
                return False
            if len(out) > len(inn):
                out, inn = inn, out
            for hub in out:
                if hub in inn:
                    return True
            return False

        def coverage(previous, forward: bool):
            # ∃e ∈ previous: L_out(e) ∩ L_in(node) ≠ ∅ (forward; labels
            # swapped backward) — ``reachable`` over all of ``previous``
            # at once: their hubs are unioned here, once per expansion,
            # and each tested node costs one C-level pass over its own
            # label.  Entries or nodes outside the index have no label
            # and cover / are covered by nothing, as in ``reachable``.
            entry_maps, node_maps = (
                (out_maps_get, in_maps_get) if forward
                else (in_maps_get, out_maps_get)
            )
            hubs = set().union(*filter(None, map(entry_maps, previous)))
            disjoint = hubs.isdisjoint

            def covers(node: NodeId) -> bool:
                label = node_maps(node)
                return label is not None and not disjoint(label)

            return covers

        self.distance = distance  # type: ignore[method-assign]
        self.reachable = reachable  # type: ignore[method-assign]
        self.coverage = coverage  # type: ignore[method-assign]
        # published last: ``_pos`` is what ``_pos_lookup`` tests without
        # the lock, so a thread that sees it set also sees the closures
        # (it would otherwise recurse through the class-level
        # ``distance`` / ``reachable`` until they appear)
        self._pos = pos
        return pos

    def _inverted_maps(self, forward: bool) -> Dict[int, Dict[NodeId, int]]:
        """The inverted lists promoted to hub → ``{node: dist}`` maps.

        Built lazily on the first enumeration query (the probe path never
        needs them), so cold attach and pure point-probe workloads pay
        nothing.  Promoting the runs to dicts removes the per-entry
        column subscripts from the enumeration.
        """
        maps = self._hd_maps if forward else self._ha_maps
        if maps is None:
            self._pos_lookup()
            off = self._hd_off if forward else self._ha_off
            inv_nodes = self._hd_nodes if forward else self._ha_nodes
            inv_dists = self._hd_dists if forward else self._ha_dists
            maps = {}
            for h, hub in enumerate(self._hub_col):
                maps[hub] = {
                    inv_nodes[m]: inv_dists[m]
                    for m in range(off[h], off[h + 1])
                }
            if forward:
                self._hd_maps = maps
            else:
                self._ha_maps = maps
        return maps

    def _node_set(self) -> frozenset:
        # reads only the node column — load-time routing must not force
        # the full hot-path promotion
        nodes = self._nodes
        if nodes is None:
            nodes = frozenset(self._blob.column_list("nodes"))
            self._nodes = nodes
        return nodes

    # ------------------------------------------------------------------
    # core queries
    # ------------------------------------------------------------------
    def reachable(self, source: NodeId, target: NodeId) -> bool:
        self._pos_lookup()  # installs the specialized closure
        return self.reachable(source, target)

    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        self._pos_lookup()  # installs the specialized closure
        return self.distance(source, target)

    def coverage(self, previous, forward: bool):
        self._pos_lookup()  # installs the specialized closure
        return self.coverage(previous, forward)

    def _install_enumerators(self) -> None:
        """First-enumeration promotion, mirroring the probe closures.

        Both directions' enumerators and ``L(a)`` subset lookups are bound
        as instance attributes with every lookup (position map, inverted
        maps, tag tables) captured in the closure — no per-call promotion
        checks or attribute loads remain on the hot path.  Installation is
        idempotent (closures over the same immutable promoted state), so
        a racing first call from two serving threads is harmless.
        """
        hd_maps = self._inverted_maps(forward=True)
        ha_maps = self._inverted_maps(forward=False)
        self._pos_lookup()  # force column promotion
        tag_of = self._tag_of
        tag_lookup = self._tag_lookup()
        node_count = len(self._node_col)

        def make(label_off, label_hubs, label_dists, inv_maps):
            # the label's hubs resolve to their inverted maps *here*,
            # once — per call the loop walks source → ((d1, inv), ...)
            # with no column subscripts or hub lookups left
            inv_get = inv_maps.get
            resolved = []
            for i in range(node_count):
                entry = []
                for k in range(label_off[i], label_off[i + 1]):
                    inv = inv_get(label_hubs[k])
                    if inv is not None:
                        entry.append((label_dists[k], inv))
                resolved.append(tuple(entry))
            resolved_of = dict(zip(self._node_col, resolved)).get
            want_get = tag_lookup.get

            def enumerate_(
                source: NodeId, tag: Optional[str]
            ) -> List[ScoredNode]:
                pairs = resolved_of(source)
                if pairs is None:
                    return []
                best: Dict[NodeId, int] = {}
                if pairs:
                    # singleton labels dominate: the first (usually
                    # only) hub's inverted map fills the result in one
                    # C-level comprehension
                    d1, inv = pairs[0]
                    best = {node: d1 + d2 for node, d2 in inv.items()}
                    for d1, inv in pairs[1:]:
                        best_get = best.get
                        for node, d2 in inv.items():
                            total = d1 + d2
                            current = best_get(node)
                            if current is None or total < current:
                                best[node] = total
                if tag is not None:
                    want = want_get(tag)
                    if want is None:
                        return []
                    return sort_scored(
                        (node, d)
                        for node, d in best.items()
                        if tag_of[node] == want
                    )
                return sort_scored(best.items())

            def subset(source: NodeId, candidates) -> List[ScoredNode]:
                # L(a) of section 4.2: the same walk as the enumeration,
                # restricted to ``candidates`` — per hub the smaller of
                # inverted list and candidate set is iterated (in C)
                # against the larger, so the cost follows the answer,
                # not |L_i|
                pairs = resolved_of(source)
                if not pairs:
                    return []
                if not isinstance(candidates, (set, frozenset)):
                    candidates = frozenset(candidates)
                size = len(candidates)
                best: Dict[NodeId, int] = {}
                for d1, inv in pairs:
                    common = (
                        candidates.intersection(inv) if len(inv) < size
                        else inv.keys() & candidates
                    )
                    if not best:
                        # singleton labels dominate: no min to take
                        best = {node: d1 + inv[node] for node in common}
                        continue
                    best_get = best.get
                    for node in common:
                        total = d1 + inv[node]
                        current = best_get(node)
                        if current is None or total < current:
                            best[node] = total
                return sort_scored(best.items())

            return enumerate_, subset

        (
            self.find_descendants_by_tag,  # type: ignore[method-assign]
            self.reachable_subset,  # type: ignore[method-assign]
        ) = make(self._out_off, self._out_hubs, self._out_dists, hd_maps)
        (
            self.find_ancestors_by_tag,  # type: ignore[method-assign]
            self.reaching_subset,  # type: ignore[method-assign]
        ) = make(self._in_off, self._in_hubs, self._in_dists, ha_maps)

    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        self._install_enumerators()  # installs the specialized closure
        return self.find_descendants_by_tag(source, tag)

    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        self._install_enumerators()  # installs the specialized closure
        return self.find_ancestors_by_tag(source, tag)

    def reachable_subset(self, source: NodeId, candidates) -> List[ScoredNode]:
        self._install_enumerators()  # installs the specialized closure
        return self.reachable_subset(source, candidates)

    def reaching_subset(self, target: NodeId, candidates) -> List[ScoredNode]:
        self._install_enumerators()  # installs the specialized closure
        return self.reaching_subset(target, candidates)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def label_entry_count(self) -> int:
        """Total 2-hop label entries — the classic 2-hop size measure."""
        self._pos_lookup()
        return len(self._in_hubs) + len(self._out_hubs)


