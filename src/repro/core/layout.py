"""Immutable index-layout snapshots for maintenance under serving.

``Flix`` used to mutate ``meta_documents``, ``meta_of``, and ``self.pee``
in place while other threads were evaluating queries — a query could
observe a half-updated ``meta_of``.
:class:`IndexLayout` fixes that with copy-on-write snapshots:

* the whole mutable layout — the meta-document slot list, the
  node→meta-id map, the evaluator built over them — lives on one frozen
  object;
* every maintenance verb (``add_document``, ``add_documents``,
  ``remove_document``, ``update_document``, ``compact``) builds a *new*
  layout off to the side and publishes it with a single reference
  assignment (atomic under CPython), bumping ``generation`` and the
  shared result cache's generation in the same step;
* a query pins ``flix._layout`` **once** when it starts and uses that
  snapshot for its whole lifetime, so an in-flight query always finishes
  against exactly one layout generation — never a mix.

Tombstones
----------

``slots`` is indexed by ``meta_id`` and may contain ``None`` where a
meta document was removed (``remove_document``) or absorbed into a
compacted meta (``compact``).  Keeping the slot preserves the invariant
``slots[meta_of[node]] is the node's meta document`` that the PEE's
inner loop relies on; ``meta_of`` never maps a live node to a
tombstoned slot.  ``tombstones`` records those ids explicitly so
persistence can round-trip a mutated layout, and ``incremental_meta_ids``
remembers which live metas were produced by incremental growth — the
self-tuner's compaction candidates (see ``docs/MAINTENANCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.meta_document import MetaDocument
from repro.indexes.base import NodeId


@dataclass(frozen=True)
class IndexLayout:
    """One immutable snapshot of the queryable index state."""

    #: meta documents indexed by ``meta_id``; ``None`` marks a tombstone
    slots: Tuple[Optional[MetaDocument], ...]
    #: node id -> meta id (live nodes only; never points at a tombstone)
    meta_of: Dict[NodeId, int]
    #: the evaluator built over exactly this snapshot
    pee: object
    #: monotonically increasing layout version; bumped on every publish
    generation: int = 0
    #: meta ids whose slot is ``None`` (removed or compacted away)
    tombstones: FrozenSet[int] = frozenset()
    #: live meta ids created by incremental growth (compaction candidates)
    incremental_meta_ids: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def live_metas(self) -> List[MetaDocument]:
        """The live meta documents in ascending ``meta_id`` order."""
        return [meta for meta in self.slots if meta is not None]

    def iter_live(self) -> Iterator[MetaDocument]:
        return (meta for meta in self.slots if meta is not None)

    @property
    def live_count(self) -> int:
        return sum(1 for meta in self.slots if meta is not None)

    @property
    def next_meta_id(self) -> int:
        """The id the next incrementally added meta document gets."""
        return len(self.slots)

    def meta(self, meta_id: int) -> MetaDocument:
        """The live meta document with this id (``KeyError`` on tombstones)."""
        if meta_id >= len(self.slots) or self.slots[meta_id] is None:
            raise KeyError(f"meta document {meta_id} is not part of this layout")
        return self.slots[meta_id]

    def meta_document_of(self, node: NodeId) -> MetaDocument:
        return self.slots[self.meta_of[node]]

    def compaction_candidates(self) -> List[int]:
        """Live incremental meta ids, ascending (what ``compact`` merges)."""
        return sorted(
            meta_id
            for meta_id in self.incremental_meta_ids
            if meta_id < len(self.slots) and self.slots[meta_id] is not None
        )

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_pee(self, pee: object) -> "IndexLayout":
        """The same layout with a replaced evaluator (same generation).

        The ``Flix.pee`` setter calls this when the bench spine wraps the
        evaluator in its span-recording ``TracedEvaluator``: what is
        indexed does not change, so the generation is deliberately kept,
        because cached results remain valid.
        """
        return replace(self, pee=pee)


__all__ = ["IndexLayout"]
