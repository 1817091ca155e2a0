"""Probe pruning, ordering and EXPLAIN for the Path Expression Evaluator.

In the spirit of the path-summary/statistics work surveyed by Mahboubi &
Darmont and DescribeX's extent summaries (see ``PAPERS.md``): prune the
PEE's probes per query, and optionally order them using estimated result
sizes, per-meta index selectivity, and residual-link fan-out.

Three cooperating pieces live here (``docs/PLANNING.md`` has the full
cost model):

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

* :class:`LayoutStatistics` / :class:`MetaStatistics` — per-meta
  selectivity statistics, collected lazily (when cost order ranks or
  EXPLAIN asks) and, for ``order="cost"`` deployments, persisted next to
  the manifest as ``planner_stats.json``: node and per-tag counts (index
  selectivity), residual-link fan-out/fan-in, and a Cohen-estimator
  transitive-closure size over the *meta-level* link graph
  (:func:`repro.graph.estimation.estimate_meta_reach`) — how many
  downstream meta documents a probe of this meta can pull in.

* :class:`ProbePlanner` — combines a :class:`~repro.core.config
  .PlannerConfig` with the lazily collected statistics.  It hands the
  evaluator a per-meta rank map for the ``order="cost"`` mode (heap ties
  break toward metas with higher estimated yield; result *sets* stay
  identical, reported distances may differ), and builds the static
  :class:`QueryPlan` the EXPLAIN surface returns.

The statistics are strictly advisory: damaged or stale statistics can
only cost performance, never correctness, which is why the sidecar is
not part of the manifest's integrity map.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.config import PlannerConfig
from repro.graph.digraph import Digraph
from repro.graph.estimation import estimate_meta_reach
from repro.indexes.base import NodeId

#: file name of the statistics sidecar, next to ``flix_manifest.json``
STATISTICS_FILENAME = "planner_stats.json"
#: bump when the sidecar schema changes (unknown versions are ignored)
STATISTICS_VERSION = 1
#: tags tracked exactly per meta document; the long tail aggregates into
#: ``MetaStatistics.other_tag_nodes``
TAG_TOP = 32

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
# per-meta selectivity statistics (the persisted sidecar)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetaStatistics:
    """Build-time selectivity statistics for one meta document."""

    meta_id: int
    #: elements in the meta document
    nodes: int
    #: index strategy serving it (provenance for EXPLAIN)
    strategy: str
    #: outgoing residual-link endpoints (targets, with multiplicity)
    fan_out: int
    #: incoming residual-link endpoints (sources, with multiplicity)
    fan_in: int
    #: estimated meta documents reachable through residual links,
    #: including this one (Cohen estimator over the meta-level graph)
    reach: float
    #: exact per-tag element counts for the ``TAG_TOP`` most common tags
    tag_counts: Mapping[str, int] = field(default_factory=dict)
    #: elements whose tag fell outside ``tag_counts``
    other_tag_nodes: int = 0

    def estimated_matches(self, tag: Optional[str]) -> float:
        """Expected matches a probe of this meta yields for ``tag``
        (``None`` = wildcard)."""
        if tag is None:
            return float(self.nodes)
        exact = self.tag_counts.get(tag)
        if exact is not None:
            return float(exact)
        if self.other_tag_nodes:
            # the tag is in the untracked long tail: assume a uniform
            # spread over at least TAG_TOP further distinct tags
            return max(1.0, self.other_tag_nodes / TAG_TOP)
        return 0.0

    def to_dict(self) -> dict:
        return {
            "meta_id": self.meta_id,
            "nodes": self.nodes,
            "strategy": self.strategy,
            "fan_out": self.fan_out,
            "fan_in": self.fan_in,
            "reach": self.reach,
            "tag_counts": dict(self.tag_counts),
            "other_tag_nodes": self.other_tag_nodes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetaStatistics":
        return cls(
            meta_id=int(data["meta_id"]),
            nodes=int(data["nodes"]),
            strategy=str(data["strategy"]),
            fan_out=int(data["fan_out"]),
            fan_in=int(data["fan_in"]),
            reach=float(data["reach"]),
            tag_counts={
                str(tag): int(count)
                for tag, count in dict(data.get("tag_counts", {})).items()
            },
            other_tag_nodes=int(data.get("other_tag_nodes", 0)),
        )


@dataclass(frozen=True)
class LayoutStatistics:
    """All live metas' statistics, stamped with the layout generation.

    The generation stamp is the staleness check: statistics describing
    an older layout are recollected lazily (``Flix.planner_statistics``)
    rather than trusted — they are advisory either way.
    """

    generation: int
    rounds: int
    metas: Mapping[int, MetaStatistics] = field(default_factory=dict)
    version: int = STATISTICS_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "generation": self.generation,
            "rounds": self.rounds,
            "metas": {
                str(meta_id): stats.to_dict()
                for meta_id, stats in sorted(self.metas.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LayoutStatistics":
        version = int(data.get("version", 0))
        if version != STATISTICS_VERSION:
            raise ValueError(
                f"unsupported planner statistics version {version}"
            )
        return cls(
            generation=int(data["generation"]),
            rounds=int(data.get("rounds", 8)),
            metas={
                int(meta_id): MetaStatistics.from_dict(stats)
                for meta_id, stats in dict(data.get("metas", {})).items()
            },
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "LayoutStatistics":
        return cls.from_dict(json.loads(text))


def collect_layout_statistics(
    slots: Sequence[Optional[Any]],
    meta_of: Mapping[NodeId, int],
    tag_of: Callable[[NodeId], str],
    generation: int,
    rounds: int = 8,
) -> LayoutStatistics:
    """Collect :class:`LayoutStatistics` over one layout snapshot.

    ``slots`` / ``meta_of`` are the layout's tables; ``tag_of`` resolves an
    element's tag (the collection's lookup).  Cost is linear in nodes and
    residual links plus one Cohen estimation over the (small) meta-level
    link graph.
    """
    live = [meta for meta in slots if meta is not None]
    graph = Digraph()
    fan_in: Dict[int, int] = {}
    for meta in live:
        graph.add_node(meta.meta_id)
        fan_in[meta.meta_id] = 0
    edges: Set[Tuple[int, int]] = set()
    for meta in live:
        for targets in meta.outgoing_links.values():
            for target in targets:
                target_meta = meta_of.get(target)
                if target_meta is None:
                    continue  # dangling link target (racing removal)
                fan_in[target_meta] = fan_in.get(target_meta, 0) + 1
                edges.add((meta.meta_id, target_meta))
    for source_meta, target_meta in edges:
        graph.add_edge(source_meta, target_meta)
    reach = estimate_meta_reach(graph, rounds=rounds)

    metas: Dict[int, MetaStatistics] = {}
    for meta in live:
        counts: Dict[str, int] = {}
        for node in meta.nodes:
            tag = tag_of(node)
            counts[tag] = counts.get(tag, 0) + 1
        if len(counts) > TAG_TOP:
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            kept = dict(top[:TAG_TOP])
            other = sum(count for _, count in top[TAG_TOP:])
        else:
            kept, other = counts, 0
        metas[meta.meta_id] = MetaStatistics(
            meta_id=meta.meta_id,
            nodes=len(meta.nodes),
            strategy=meta.strategy,
            fan_out=meta.residual_out_degree,
            fan_in=fan_in.get(meta.meta_id, 0),
            reach=float(reach.get(meta.meta_id, 1.0)),
            tag_counts=kept,
            other_tag_nodes=other,
        )
    return LayoutStatistics(generation=generation, rounds=rounds, metas=metas)


# ----------------------------------------------------------------------
# the EXPLAIN artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbePlanEntry:
    """One meta document in a plan's probe order, with its cost estimates."""

    meta_id: int
    #: position in the planned order (0 = most promising)
    rank: int
    strategy: str
    #: expected matches a probe yields for the request's tag filter
    estimated_matches: float
    #: estimated downstream metas reachable through residual links
    estimated_reach: float
    #: outgoing residual-link endpoints
    fan_out: int

    def to_dict(self) -> dict:
        return {
            "meta_id": self.meta_id,
            "rank": self.rank,
            "strategy": self.strategy,
            "estimated_matches": self.estimated_matches,
            "estimated_reach": self.estimated_reach,
            "fan_out": self.fan_out,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProbePlanEntry":
        return cls(
            meta_id=int(data["meta_id"]),
            rank=int(data["rank"]),
            strategy=str(data["strategy"]),
            estimated_matches=float(data["estimated_matches"]),
            estimated_reach=float(data["estimated_reach"]),
            fan_out=int(data["fan_out"]),
        )


@dataclass(frozen=True)
class QueryPlan:
    """The static plan EXPLAIN returns for one :class:`QueryRequest`.

    ``mode`` is ``"planned"`` (the kind runs the Figure-4 loop) or
    ``"direct"`` (the kind runs on the element graph / child axis and
    never enters the loop).  ``pruned_metas`` are the live meta
    documents provably unable to contribute: no residual-link path from
    any source meta reaches them, so the loop can never probe them.
    """

    kind: str
    mode: str
    order: str
    generation: int
    source_metas: Tuple[int, ...] = ()
    probes: Tuple[ProbePlanEntry, ...] = ()
    pruned_metas: Tuple[int, ...] = ()
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "order": self.order,
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
            order=str(data["order"]),
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
# the planner
# ----------------------------------------------------------------------
class ProbePlanner:
    """Planner state shared by every query of one evaluator.

    ``statistics`` is either a :class:`LayoutStatistics` instance or a
    zero-argument callable returning one lazily (``Flix`` passes its
    memoized per-generation collector) — ``None`` (a bare evaluator, the
    sharded coordinator) leaves ranking off and EXPLAIN on layout-only
    estimates.  All methods are thread-safe.
    """

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        statistics: Any = None,
    ) -> None:
        self._config = config if config is not None else PlannerConfig()
        if callable(statistics):
            self._provider = statistics
        else:
            self._provider = lambda: statistics
        self._lock = threading.Lock()
        self._rank_cache: Dict[Tuple[int, Optional[str], bool], Dict[int, int]] = {}

    @property
    def config(self) -> PlannerConfig:
        return self._config

    @property
    def reorders(self) -> bool:
        return self._config.order == "cost"

    def statistics(self) -> Optional[LayoutStatistics]:
        """The current statistics, collecting them if need be, or ``None``
        (no provider, or collection failed — statistics are advisory and
        must never fail a query)."""
        try:
            return self._provider()
        except Exception:
            return None

    def rank_map(
        self, tag: Optional[str], forward: bool
    ) -> Optional[Dict[int, int]]:
        """Per-meta heap tie-break ranks for the ``order="cost"`` mode.

        Lower rank = higher expected yield: metas with more estimated
        matches for ``tag``, then larger estimated reach (backward:
        fan-in), expand first among equal-priority entries.  ``None``
        when reordering is off or no statistics are available.
        """
        if not self.reorders:
            return None
        stats = self.statistics()
        if stats is None or not stats.metas:
            return None
        key = (stats.generation, tag, forward)
        with self._lock:
            cached = self._rank_cache.get(key)
        if cached is not None:
            return cached
        ordered = sorted(
            stats.metas.values(),
            key=lambda m: (
                -m.estimated_matches(tag),
                -(m.reach if forward else float(m.fan_in)),
                m.meta_id,
            ),
        )
        ranks = {m.meta_id: rank for rank, m in enumerate(ordered)}
        with self._lock:
            if len(self._rank_cache) >= 64:
                self._rank_cache.clear()
            self._rank_cache[key] = ranks
        return ranks

    # ------------------------------------------------------------------
    # static planning (the EXPLAIN surface)
    # ------------------------------------------------------------------
    def plan(
        self,
        request: Any,
        layout: Any,
        seeds: Optional[Sequence[NodeId]] = None,
    ) -> QueryPlan:
        """The static :class:`QueryPlan` for ``request`` over ``layout``.

        ``seeds`` are the resolved seed nodes for the type-query form
        (the caller owns tag-table access).
        """
        cfg = self._config
        stats = self.statistics()
        provenance: Dict[str, Any] = {
            "planner": cfg.to_dict(),
            "layout_generation": layout.generation,
            "statistics_generation": (
                stats.generation if stats is not None else None
            ),
        }
        kind = getattr(request, "kind", "?")
        if kind not in PLANNED_KINDS:
            # children / connections / cost run on the element graph (or
            # the child axis) directly — the Figure-4 loop never runs
            provenance["engine"] = "graph"
            return QueryPlan(
                kind=kind,
                mode="direct",
                order=cfg.order,
                generation=layout.generation,
                provenance=provenance,
            )

        forward = kind != "ancestors"
        sources: List[NodeId] = []
        if seeds is not None:
            sources = list(seeds)
        elif request.source is not None:
            sources = [request.source]
        source_metas = sorted(
            {
                layout.meta_of[node]
                for node in sources
                if node in layout.meta_of
            }
        )
        successors, predecessors = _meta_adjacency(layout)
        reachable = _reachable_metas(
            source_metas, successors if forward else predecessors
        )
        if (
            kind == "test"
            and getattr(request, "bidirectional", False)
            and request.target in layout.meta_of
        ):
            # the backward half of the bidirectional test probes whatever
            # reaches the target meta
            reachable |= _reachable_metas(
                [layout.meta_of[request.target]], predecessors
            )
        live_ids = {
            meta.meta_id for meta in layout.slots if meta is not None
        }
        pruned = tuple(sorted(live_ids - reachable))

        tag = getattr(request, "tag", None)
        scored = []
        for meta_id in reachable:
            meta_stats = stats.metas.get(meta_id) if stats is not None else None
            if meta_stats is not None:
                matches = meta_stats.estimated_matches(tag)
                reach = meta_stats.reach
                fan_out = meta_stats.fan_out
                strategy = meta_stats.strategy
            else:
                meta = layout.slots[meta_id]
                matches = float(len(meta.nodes)) if tag is None else 0.0
                reach = 1.0
                fan_out = meta.residual_out_degree
                strategy = meta.strategy
            scored.append((matches, reach, fan_out, strategy, meta_id))
        scored.sort(key=lambda row: (-row[0], -row[1], row[4]))
        probes = tuple(
            ProbePlanEntry(
                meta_id=meta_id,
                rank=rank,
                strategy=strategy,
                estimated_matches=matches,
                estimated_reach=reach,
                fan_out=fan_out,
            )
            for rank, (matches, reach, fan_out, strategy, meta_id) in enumerate(
                scored
            )
        )
        return QueryPlan(
            kind=kind,
            mode="planned",
            order=cfg.order,
            generation=layout.generation,
            source_metas=tuple(source_metas),
            probes=probes,
            pruned_metas=pruned,
            provenance=provenance,
        )


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
    "STATISTICS_FILENAME",
    "STATISTICS_VERSION",
    "ProbeFrontier",
    "MetaStatistics",
    "LayoutStatistics",
    "collect_layout_statistics",
    "ProbePlanEntry",
    "QueryPlan",
    "ProbePlanner",
]
