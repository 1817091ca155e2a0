"""Probe pruning and EXPLAIN for the Path Expression Evaluator.

Two pieces live here (``docs/PLANNING.md`` has the details):

* :class:`ProbeFrontier` — per-query duplicate-pruning state, part of the
  Figure-4 loop itself (:func:`repro.core.pee.figure4_search`).  The loop
  re-discovers entry elements through converging residual links; §5.1
  alone only drops them after popping them and paying
  ``index.reachable`` probes to prove coverage.  The frontier proves the
  *exact-duplicate* case for free: a node popped once is always covered
  on a later pop (descendants-or-self — every entry reaches itself), and
  a node already enqueued at priority ``p`` covers any later enqueue at
  priority ``>= p`` (the earlier copy pops first and its coverage
  persists).  Pruning those pops and pushes changes **no** emitted result
  and no completeness: the surviving pop sequence is exactly the one
  §5.1 alone would expand, minus pops it would have dropped as covered
  anyway.

* :func:`plan` — the static :class:`QueryPlan` the EXPLAIN surface
  returns: which meta documents a request's Figure-4 loop can probe and
  which it provably never reaches, read off the layout's residual-link
  graph.  It holds only what the layout proves — no estimates — so it is
  an upper bound on what an evaluation of the same request touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.indexes.base import NodeId

#: query kinds the Figure-4 priority-queue loop evaluates; the rest run
#: on the element graph directly and have nothing for the planner to do
PLANNED_KINDS = ("descendants", "ancestors", "path", "test")


class ProbeFrontier:
    """Per-query exact-duplicate pruning over the Figure-4 loop.

    Correctness argument (why pruning is byte-identical):

    * ``admit_pop`` refuses a node popped before.  Left to §5.1 alone
      that second pop always reaches the coverage check and is
      dropped: after the first pop the node is either in its
      meta's ``previous`` list (and ``reachable(node, node)`` holds —
      descendants-or-self) or was itself dropped because some earlier
      entry covers it, and that cover persists.  A dropped pop emits
      nothing and pushes nothing, so skipping it — and the
      ``index.reachable`` probes proving it — changes no output.
    * ``admit_push`` refuses a neighbour that was already popped (its
      queued copy would pop later, at ``>=`` priority, and be dropped as
      above) or already enqueued at a priority ``<=`` the new one (the
      earlier copy pops first; by the time the new copy would pop, the
      node is popped).  A push at a *smaller* priority than any seen
      must be admitted — it pops first and the stale copies get pruned
      on pop instead.

    Heap tie-break counters shift when pushes are pruned, but a counter
    only orders entries of equal priority, and every pruned entry would
    have contributed nothing — the surviving pop sequence, and hence the
    emitted stream, is unchanged.
    """

    __slots__ = ("_pushed", "_popped")

    def __init__(self) -> None:
        #: node -> smallest priority it was ever enqueued with
        self._pushed: Dict[NodeId, int] = {}
        self._popped: Set[NodeId] = set()

    def admit_pop(self, node: NodeId) -> bool:
        """True when this pop must be expanded; False when a previous pop
        of the same node provably covers it."""
        if node in self._popped:
            return False
        self._popped.add(node)
        return True

    def admit_push(self, node: NodeId, priority: int) -> bool:
        """True when the push can still contribute; False when an earlier
        pop or an earlier ``<=``-priority push provably covers it."""
        if node in self._popped:
            return False
        best = self._pushed.get(node)
        if best is not None and best <= priority:
            return False
        self._pushed[node] = priority
        return True


# ----------------------------------------------------------------------
# the EXPLAIN artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbePlanEntry:
    """One meta document the Figure-4 loop can probe."""

    meta_id: int
    #: index strategy serving it
    strategy: str
    #: outgoing residual-link endpoints
    fan_out: int

    def to_dict(self) -> dict:
        return {
            "meta_id": self.meta_id,
            "strategy": self.strategy,
            "fan_out": self.fan_out,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProbePlanEntry":
        return cls(
            meta_id=int(data["meta_id"]),
            strategy=str(data["strategy"]),
            fan_out=int(data["fan_out"]),
        )


@dataclass(frozen=True)
class QueryPlan:
    """The static plan EXPLAIN returns for one :class:`QueryRequest`.

    ``mode`` is ``"planned"`` (the kind runs the Figure-4 loop) or
    ``"direct"`` (the kind runs on the element graph / child axis and
    never enters the loop).  ``probes`` are the live meta documents some
    residual-link path from a source meta reaches, ascending meta id;
    ``pruned_metas`` are the rest, which the loop can never probe.
    """

    kind: str
    mode: str
    generation: int
    source_metas: Tuple[int, ...] = ()
    probes: Tuple[ProbePlanEntry, ...] = ()
    pruned_metas: Tuple[int, ...] = ()
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "generation": self.generation,
            "source_metas": list(self.source_metas),
            "probes": [probe.to_dict() for probe in self.probes],
            "pruned_metas": list(self.pruned_metas),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryPlan":
        return cls(
            kind=str(data["kind"]),
            mode=str(data["mode"]),
            generation=int(data["generation"]),
            source_metas=tuple(int(m) for m in data.get("source_metas", ())),
            probes=tuple(
                ProbePlanEntry.from_dict(probe)
                for probe in data.get("probes", ())
            ),
            pruned_metas=tuple(int(m) for m in data.get("pruned_metas", ())),
            provenance=dict(data.get("provenance", {})),
        )


# ----------------------------------------------------------------------
# static planning (the EXPLAIN surface)
# ----------------------------------------------------------------------
def plan(
    request: Any,
    layout: Any,
    seeds: Optional[Sequence[NodeId]] = None,
) -> QueryPlan:
    """The static :class:`QueryPlan` for ``request`` over ``layout``.

    ``seeds`` are the resolved seed nodes for the type-query form (the
    caller owns tag-table access).  A source or target outside the
    layout raises the ``KeyError`` evaluating the request would.
    """
    kind = getattr(request, "kind", "?")
    provenance: Dict[str, Any] = {"layout_generation": layout.generation}
    if kind not in PLANNED_KINDS:
        # children / connections / cost run on the element graph (or
        # the child axis) directly — the Figure-4 loop never runs
        provenance["engine"] = "graph"
        return QueryPlan(
            kind=kind,
            mode="direct",
            generation=layout.generation,
            provenance=provenance,
        )

    meta_of = layout.meta_of
    if seeds is not None:
        sources: List[NodeId] = list(seeds)
    else:
        _require_known(request, meta_of)
        sources = [request.source]
    source_metas = sorted({meta_of[node] for node in sources})
    successors, predecessors = _meta_adjacency(layout)
    reachable = _reachable_metas(
        source_metas, predecessors if kind == "ancestors" else successors
    )
    live_ids = {meta.meta_id for meta in layout.slots if meta is not None}
    probes = tuple(
        ProbePlanEntry(
            meta_id=meta_id,
            strategy=layout.slots[meta_id].strategy,
            fan_out=layout.slots[meta_id].residual_out_degree,
        )
        for meta_id in sorted(reachable)
    )
    return QueryPlan(
        kind=kind,
        mode="planned",
        generation=layout.generation,
        source_metas=tuple(source_metas),
        probes=probes,
        pruned_metas=tuple(sorted(live_ids - reachable)),
        provenance=provenance,
    )


def _require_known(request: Any, meta_of: Mapping[NodeId, int]) -> None:
    """Raise the evaluator's ``KeyError`` for an unknown endpoint."""
    if request.kind == "test":
        if request.source not in meta_of or request.target not in meta_of:
            raise KeyError("both endpoints must belong to the collection")
    elif request.source not in meta_of:
        raise KeyError(f"node {request.source} is not part of the collection")


def _meta_adjacency(layout: Any) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Forward and reverse adjacency of the meta-level residual-link graph."""
    successors: Dict[int, Set[int]] = {}
    predecessors: Dict[int, Set[int]] = {}
    meta_of = layout.meta_of
    for meta in layout.slots:
        if meta is None:
            continue
        successors.setdefault(meta.meta_id, set())
        predecessors.setdefault(meta.meta_id, set())
    for meta in layout.slots:
        if meta is None:
            continue
        for targets in meta.outgoing_links.values():
            for target in targets:
                target_meta = meta_of.get(target)
                if target_meta is None:
                    continue
                successors[meta.meta_id].add(target_meta)
                predecessors.setdefault(target_meta, set()).add(meta.meta_id)
    return successors, predecessors


def _reachable_metas(
    roots: Sequence[int], adjacency: Mapping[int, Set[int]]
) -> Set[int]:
    """Meta ids reachable from ``roots`` over ``adjacency`` (roots included)."""
    seen: Set[int] = set()
    stack = [root for root in roots if root in adjacency]
    while stack:
        meta_id = stack.pop()
        if meta_id in seen:
            continue
        seen.add(meta_id)
        stack.extend(
            succ for succ in adjacency.get(meta_id, ()) if succ not in seen
        )
    return seen


__all__ = [
    "ProbeFrontier",
    "ProbePlanEntry",
    "QueryPlan",
    "plan",
]
