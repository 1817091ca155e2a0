"""The unified query API: one request type, one response type.

FliX understands eight query shapes (descendants, ancestors, children,
type queries, multi-step paths, connections, connection cost, connection
test).  One method per shape cannot be queued, cached, retried, or
shipped to a worker pool uniformly — the serving layer needs *one* value
that fully describes a query and *one* value that fully describes its
answer.

:class:`QueryRequest` is that description: a frozen, hashable dataclass
naming the query ``kind`` plus every knob the kind understands.
:class:`QueryResponse` is the materialized answer: the result list (or
scalar ``value`` for connection cost/test kinds), the query's private
:class:`~repro.core.pee.QueryStats`, and the completeness flag.

``Flix.query(request)`` evaluates one request synchronously
(``Flix.query_stream`` lazily, for the streaming kinds);
``FlixService.submit(request)`` (:mod:`repro.serve`) queues it onto a
worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.connections import ConnectionModel
from repro.core.pee import QueryBudget, QueryStats
from repro.indexes.base import NodeId

#: every query kind the unified API understands
QUERY_KINDS = (
    "descendants",
    "ancestors",
    "children",
    "path",
    "connections",
    "cost",
    "test",
)

#: kinds whose answer is a scalar ``value`` instead of a result list
SCALAR_KINDS = ("cost", "test")

#: kinds that stream results lazily (``Flix.query_stream`` accepts these)
STREAMING_KINDS = ("descendants", "ancestors", "connections")


@dataclass(frozen=True)
class QueryRequest:
    """One fully-described query, ready to evaluate, queue, or cache.

    Which fields matter depends on ``kind``:

    ===============  =====================================================
    kind             meaning / required fields
    ===============  =====================================================
    ``descendants``  ``a//b``: ``source`` (or ``source_tag`` for the
                     ``A//B`` type-query form), optional ``tag``,
                     ``max_distance``, ``include_self``, ``exact_order``
    ``ancestors``    reverse axis from ``source``
    ``children``     direct successors of ``source``, optional ``tag``
    ``path``         multi-step ``source//t1//…//tn``: ``path`` holds the
                     step tags, ``max_distance`` bounds each step
    ``connections``  generalized connection search from ``source`` under
                     ``model``, bounded by ``max_cost``
    ``cost``         cheapest connection cost ``source`` → ``target``
    ``test``         reachability ``source`` → ``target`` (approximate
                     distance or None), optionally ``bidirectional``
    ===============  =====================================================

    ``limit`` truncates list-valued answers (top-k early stop); ``budget``
    attaches per-request work limits (deadline / link hops / queue pops)
    that override the evaluator's configured default for this query only.

    Instances are frozen and hashable, which is what makes them usable as
    cache keys and queue items without copying.
    """

    kind: str
    #: the start element (all kinds except the type-query form)
    source: Optional[NodeId] = None
    #: the end element (``cost`` / ``test``)
    target: Optional[NodeId] = None
    #: element-type filter on results (None = wildcard ``*``)
    tag: Optional[str] = None
    #: type-query form of ``descendants``: seed every element of this tag
    source_tag: Optional[str] = None
    #: step tags for the ``path`` kind
    path: Tuple[str, ...] = ()
    #: distance threshold (descendants/ancestors/test; per step for path)
    max_distance: Optional[int] = None
    #: cost threshold (connections / cost)
    max_cost: Optional[float] = None
    #: connection-cost model (connections / cost); None = plain descendants
    model: Optional[ConnectionModel] = None
    #: top-k early stop for list-valued kinds
    limit: Optional[int] = None
    #: may ``source`` itself qualify (descendants / ancestors)
    include_self: bool = False
    #: buffer results until exactly sorted by distance (descendants /
    #: ancestors) — section 7's first future-work item
    exact_order: bool = False
    #: alternate a forward and a backward search (``test`` kind, §5.2)
    bidirectional: bool = False
    #: per-request work limits, overriding the evaluator's default
    budget: Optional[QueryBudget] = None
    #: stamp the probe planner's :class:`~repro.core.planner.QueryPlan`
    #: onto ``QueryResponse.plan`` (the EXPLAIN surface; uncacheable)
    explain: bool = False

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive when set")
        if self.max_distance is not None and self.max_distance < 0:
            raise ValueError("max_distance must be non-negative when set")
        if self.max_cost is not None and self.max_cost < 0:
            raise ValueError("max_cost must be non-negative when set")
        if self.kind in ("descendants",):
            if (self.source is None) == (self.source_tag is None):
                raise ValueError(
                    "descendants queries need exactly one of source "
                    "(a//b) or source_tag (A//B)"
                )
        elif self.source is None:
            raise ValueError(f"{self.kind} queries need a source element")
        if self.kind in SCALAR_KINDS and self.target is None:
            raise ValueError(f"{self.kind} queries need a target element")
        if self.kind == "path" and not self.path:
            raise ValueError("path queries need at least one step tag")
        if self.kind != "path" and self.path:
            raise ValueError("path steps only apply to the path kind")
        if self.bidirectional and self.kind != "test":
            raise ValueError("bidirectional only applies to the test kind")

    # ------------------------------------------------------------------
    # named constructors (one per query shape)
    # ------------------------------------------------------------------
    @classmethod
    def descendants(
        cls,
        source: NodeId,
        tag: Optional[str] = None,
        max_distance: Optional[int] = None,
        limit: Optional[int] = None,
        include_self: bool = False,
        exact_order: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        return cls(
            kind="descendants", source=source, tag=tag,
            max_distance=max_distance, limit=limit, include_self=include_self,
            exact_order=exact_order, budget=budget,
        )

    @classmethod
    def ancestors(
        cls,
        source: NodeId,
        tag: Optional[str] = None,
        max_distance: Optional[int] = None,
        limit: Optional[int] = None,
        include_self: bool = False,
        exact_order: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        return cls(
            kind="ancestors", source=source, tag=tag,
            max_distance=max_distance, limit=limit, include_self=include_self,
            exact_order=exact_order, budget=budget,
        )

    @classmethod
    def children(
        cls, source: NodeId, tag: Optional[str] = None
    ) -> "QueryRequest":
        return cls(kind="children", source=source, tag=tag)

    @classmethod
    def type_query(
        cls,
        source_tag: str,
        tag: Optional[str] = None,
        max_distance: Optional[int] = None,
        limit: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        """The ``A//B`` form: descendants of any element tagged ``source_tag``."""
        return cls(
            kind="descendants", source_tag=source_tag, tag=tag,
            max_distance=max_distance, limit=limit, budget=budget,
        )

    @classmethod
    def find_path(
        cls,
        source: NodeId,
        steps: Sequence[str],
        max_distance_per_step: Optional[int] = None,
    ) -> "QueryRequest":
        return cls(
            kind="path", source=source, path=tuple(steps),
            max_distance=max_distance_per_step,
        )

    @classmethod
    def connections(
        cls,
        source: NodeId,
        tag: Optional[str] = None,
        model: Optional[ConnectionModel] = None,
        max_cost: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> "QueryRequest":
        return cls(
            kind="connections", source=source, tag=tag, model=model,
            max_cost=max_cost, limit=limit,
        )

    @classmethod
    def cost(
        cls,
        source: NodeId,
        target: NodeId,
        model: Optional[ConnectionModel] = None,
        max_cost: Optional[float] = None,
    ) -> "QueryRequest":
        return cls(
            kind="cost", source=source, target=target, model=model,
            max_cost=max_cost,
        )

    @classmethod
    def test(
        cls,
        source: NodeId,
        target: NodeId,
        max_distance: Optional[int] = None,
        bidirectional: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        return cls(
            kind="test", source=source, target=target,
            max_distance=max_distance, bidirectional=bidirectional,
            budget=budget,
        )

    # ------------------------------------------------------------------
    # serving / caching support
    # ------------------------------------------------------------------
    def with_budget(self, budget: Optional[QueryBudget]) -> "QueryRequest":
        return replace(self, budget=budget)

    def with_limit(self, limit: Optional[int]) -> "QueryRequest":
        return replace(self, limit=limit)

    def with_explain(self, explain: bool = True) -> "QueryRequest":
        return replace(self, explain=explain)

    @property
    def is_scalar(self) -> bool:
        return self.kind in SCALAR_KINDS

    def cache_key(self) -> Optional[tuple]:
        """The hashable identity of this request's *full* answer.

        ``limit`` is deliberately excluded: the cache stores complete
        result sets and serves limited requests by slicing the cached
        superset.  A budget-bearing request is **uncacheable** (returns
        ``None``): its answer may be truncated at an arbitrary point, and
        serving that truncation to an unbudgeted caller would silently
        lose results.  An ``explain`` request is uncacheable too — its
        plan describes *this* evaluation, and a replayed answer has none.
        """
        if self.budget is not None or self.explain:
            return None
        return (
            self.kind,
            self.source,
            self.target,
            self.tag,
            self.source_tag,
            self.path,
            self.max_distance,
            self.max_cost,
            self.model,
            self.include_self,
            self.exact_order,
            self.bidirectional,
        )


@dataclass
class QueryResponse:
    """The materialized answer to one :class:`QueryRequest`.

    ``results`` holds the (possibly ``limit``-truncated) result list —
    :class:`~repro.core.pee.QueryResult` rows for descendants, ancestors,
    children, and type queries; ``(node, distance)`` pairs for ``path``;
    ``(node, cost)`` pairs for ``connections``; empty for the scalar
    kinds, whose answer travels in ``value``.

    ``stats`` are this query's private counters.  For a cached response
    they describe the evaluation that originally produced the entry
    (``from_cache`` is then True and ``elapsed_seconds`` the replay time).

    ``layout_generation`` is the generation of the index-layout snapshot
    the whole answer was computed against (see ``docs/MAINTENANCE.md``):
    a query racing ``add_document``/``remove_document``/``compact`` is
    consistent with exactly one published layout, never a mix.
    """

    request: QueryRequest
    results: List[Any] = field(default_factory=list)
    value: Optional[float] = None
    stats: QueryStats = field(default_factory=QueryStats)
    from_cache: bool = False
    elapsed_seconds: float = 0.0
    layout_generation: int = 0
    #: the probe planner's :class:`~repro.core.planner.QueryPlan`, stamped
    #: only when the request set ``explain=True`` (``Flix.explain`` returns
    #: one without evaluating)
    plan: Optional[Any] = None

    @property
    def completeness(self) -> str:
        """``complete`` / ``truncated`` / ``degraded`` (worst wins)."""
        return self.stats.completeness

    @property
    def is_complete(self) -> bool:
        return self.stats.is_complete

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


__all__ = [
    "QUERY_KINDS",
    "SCALAR_KINDS",
    "STREAMING_KINDS",
    "QueryRequest",
    "QueryResponse",
]
