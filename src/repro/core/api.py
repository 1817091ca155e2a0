"""The unified query API: one request type, one response type.

FliX understands eight query shapes (descendants, ancestors, children,
type queries, multi-step paths, connections, connection cost, connection
test).  One method per shape cannot be cached, retried, or shipped to
a shard worker uniformly — serving needs *one* value that fully
describes a query and *one* value that fully describes its answer.

:class:`QueryRequest` is that description: a frozen, hashable dataclass
naming the query ``kind`` plus every knob the kind understands.
:class:`QueryResponse` is the materialized answer: the result list (or
scalar ``value`` for connection cost/test kinds), the query's private
:class:`~repro.core.pee.QueryStats`, and the completeness flag.

``Flix.query(request)`` evaluates one request synchronously
(``Flix.query_stream`` lazily, for the streaming kinds), on whichever
thread calls it; ``ShardCoordinator.query(request)`` (:mod:`repro.shard`)
answers the same request from shard worker processes.

What lies between a request and the Figure-4 loop exists once, here, for
``Flix.query``, ``Flix.query_stream`` and ``ShardCoordinator.query``
alike: :func:`open_request` dispatches the query kinds and
:class:`CacheSlot` is the result-cache policy.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.connections import ConnectionEvaluator, ConnectionModel
from repro.core.pee import (
    QueryBudget,
    QueryResult,
    QueryStats,
    QueryStream,
    evaluate_path,
)
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

#: kind -> the request fields its evaluation reads, besides ``budget``
#: and ``explain``, which every kind reads; setting any other field is
#: an error, not a silently ignored knob
KIND_FIELDS = {
    "descendants": ("source", "source_tag", "tag", "max_distance", "limit",
                    "include_self"),
    "ancestors": ("source", "tag", "max_distance", "limit", "include_self"),
    "children": ("source", "tag", "limit"),
    "path": ("source", "path", "max_distance", "limit"),
    "connections": ("source", "tag", "model", "max_cost", "limit"),
    "cost": ("source", "target", "model", "max_cost"),
    "test": ("source", "target", "max_distance"),
}
_KIND_SPECIFIC = frozenset(
    name for names in KIND_FIELDS.values() for name in names
)


def is_set(value: Any) -> bool:
    """Does a request field hold a value other than an unset default
    (``None``, ``()`` or ``False``)?"""
    return value is not None and value is not False and value != ()


@dataclass(frozen=True)
class QueryRequest:
    """One fully-described query, ready to evaluate, queue, or cache.

    Which fields matter depends on ``kind``:

    ===============  =====================================================
    kind             meaning / required fields
    ===============  =====================================================
    ``descendants``  ``a//b``: ``source`` (or ``source_tag`` for the
                     ``A//B`` type-query form), optional ``tag``,
                     ``max_distance``, ``limit``, ``include_self`` (with
                     ``source`` only)
    ``ancestors``    reverse axis from ``source``: optional ``tag``,
                     ``max_distance``, ``limit``, ``include_self``
    ``children``     direct successors of ``source``, optional ``tag``,
                     ``limit``
    ``path``         multi-step ``source//t1//…//tn``: ``path`` holds the
                     step tags, ``max_distance`` bounds each step,
                     optional ``limit``
    ``connections``  generalized connection search from ``source`` under
                     ``model``, bounded by ``max_cost``, optional ``tag``,
                     ``limit``
    ``cost``         cheapest connection cost ``source`` → ``target``
                     under ``model``, bounded by ``max_cost``
    ``test``         reachability ``source`` → ``target`` (approximate
                     distance or None), optional ``max_distance``
    ===============  =====================================================

    Every kind also reads ``budget`` and ``explain``; setting a field the
    kind does not read (:data:`KIND_FIELDS`) raises ``ValueError``.
    ``limit`` truncates list-valued answers (top-k early stop); ``budget``
    attaches per-request work limits (deadline / link hops / queue pops)
    for this query only.

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
    #: per-request work limits (deadline / link hops / queue pops)
    budget: Optional[QueryBudget] = None
    #: stamp the static :class:`~repro.core.planner.QueryPlan`
    #: onto ``QueryResponse.plan`` (the EXPLAIN surface; uncacheable)
    explain: bool = False

    def __post_init__(self) -> None:
        # a list of steps becomes the tuple form, so the request hashes
        # (as a cache key) and compares equal to it
        if not isinstance(self.path, tuple):
            object.__setattr__(self, "path", tuple(self.path))
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
        read = KIND_FIELDS[self.kind]
        for name in sorted(_KIND_SPECIFIC.difference(read)):
            if is_set(getattr(self, name)):
                raise ValueError(f"{self.kind} queries do not read {name}")
        if self.source_tag is not None and self.include_self:
            raise ValueError(
                "include_self only applies to descendants of a source"
            )

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
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        return cls(
            kind="descendants", source=source, tag=tag,
            max_distance=max_distance, limit=limit, include_self=include_self,
            budget=budget,
        )

    @classmethod
    def ancestors(
        cls,
        source: NodeId,
        tag: Optional[str] = None,
        max_distance: Optional[int] = None,
        limit: Optional[int] = None,
        include_self: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        return cls(
            kind="ancestors", source=source, tag=tag,
            max_distance=max_distance, limit=limit, include_self=include_self,
            budget=budget,
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
        budget: Optional[QueryBudget] = None,
    ) -> "QueryRequest":
        return cls(
            kind="test", source=source, target=target,
            max_distance=max_distance, budget=budget,
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
    #: the static :class:`~repro.core.planner.QueryPlan`, stamped
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


# ----------------------------------------------------------------------
# the one dispatcher
# ----------------------------------------------------------------------
def type_seeds(collection, meta_of, source_tag: str) -> List[NodeId]:
    """Seeds of an ``A//B`` type query.  The tag table is live: elements
    registered after the layout owning ``meta_of`` was pinned are
    filtered, so the answer stays consistent with one generation."""
    tagged = collection.nodes_with_tag(source_tag)
    return [node for node in tagged if node in meta_of]


def open_request(
    request: QueryRequest,
    budget: Optional[QueryBudget],
    engine,
    collection=None,
    meta_of=None,
    seeds_of: Optional[Callable[[str], Sequence[NodeId]]] = None,
) -> Tuple[Any, Callable[[], QueryStats]]:
    """Start evaluating ``request`` — the only place a query kind
    selects an evaluation.  Returns ``(answer, finish)``.

    ``engine`` offers the evaluator's four searches (``find_descendants``,
    ``find_ancestors``, ``evaluate_type_query``, ``connection_test``): a
    :class:`~repro.core.pee.PathExpressionEvaluator` or the coordinator's
    :class:`~repro.shard.distributed.DistributedEvaluator`.  The
    collection-graph kinds (children / connections / cost) and
    :func:`type_seeds` read ``collection`` and the pinned ``meta_of``; the
    coordinator has neither, passes the ``type_seeds`` RPC as ``seeds_of``
    and delegates those kinds before they get here.

    ``answer`` is a lazy iterator stopping at ``request.limit`` for the
    streaming kinds, else the finished payload: a scalar, or a list cut
    at ``request.limit`` as a cache hit would cut it.
    ``finish()``, called once consumption stops, closes a stream that was
    stopped early — so its stats are final — and returns the snapshot.
    """
    kind = request.kind
    if kind in STREAMING_KINDS:
        if kind == "connections":
            stream = _counted(
                ConnectionEvaluator(collection).find_connected(
                    request.source, tag=request.tag, model=request.model,
                    max_cost=request.max_cost,
                )
            )
        elif kind == "descendants" and request.source_tag is not None:
            seeds = (
                type_seeds(collection, meta_of, request.source_tag)
                if seeds_of is None else seeds_of(request.source_tag)
            )
            stream = engine.evaluate_type_query(
                seeds, request.tag, request.max_distance, budget=budget
            )
        else:
            search = (
                engine.find_descendants if kind == "descendants"
                else engine.find_ancestors
            )
            stream = search(
                request.source, request.tag, request.max_distance,
                request.include_self, budget=budget,
            )
        answer = iter(stream)
        if request.limit is not None:
            answer = itertools.islice(answer, request.limit)

        def finish() -> QueryStats:
            stream.close()
            return stream.stats.snapshot()

        return answer, finish
    if kind == "children":
        payload: Any = []
        for successor in sorted(collection.graph.successors(request.source)):
            meta_id = meta_of.get(successor)
            if meta_id is None:
                # the successor postdates the pinned layout (racing add);
                # skip it so the answer matches one generation
                continue
            if request.tag is None or collection.tag(successor) == request.tag:
                payload.append(QueryResult(successor, 1, meta_id))
        payload = payload[: request.limit]
        stats = QueryStats(results_returned=len(payload))
    elif kind == "path":
        payload, stats = evaluate_path(
            lambda node, tag: engine.find_descendants(
                node, tag, request.max_distance, budget=budget
            ),
            request.source,
            request.path,
        )
        payload = payload[: request.limit]
    elif kind == "cost":
        payload = ConnectionEvaluator(collection).connection_cost(
            request.source, request.target, model=request.model,
            max_cost=request.max_cost,
        )
        stats = QueryStats(results_returned=0 if payload is None else 1)
    else:  # "test"; QueryRequest validated the kind
        stats = QueryStats()
        payload = engine.connection_test(
            request.source, request.target, request.max_distance,
            stats=stats, budget=budget,
        )
        stats = stats.snapshot()
    return payload, lambda: stats


def _counted(pairs) -> QueryStream:
    """``(node, cost)`` pairs of a connection search as a stream that
    counts what it yields."""
    stats = QueryStats()

    def run():
        for pair in pairs:
            stats.results_returned += 1
            yield pair

    return QueryStream(run(), stats)


def evaluate_request(
    request: QueryRequest,
    budget: Optional[QueryBudget],
    engine,
    started: float,
    layout_generation: int,
    collection=None,
    meta_of=None,
    seeds_of: Optional[Callable[[str], Sequence[NodeId]]] = None,
) -> QueryResponse:
    """:func:`open_request`, consumed: the materialized, uncached
    response (``started`` is the caller's ``perf_counter`` reading)."""
    answer, finish = open_request(
        request, budget, engine, collection, meta_of, seeds_of
    )
    if request.kind in STREAMING_KINDS:
        answer = list(answer)
    stats = finish()
    results, value = ([], answer) if request.is_scalar else (answer, None)
    return QueryResponse(
        request, results, value, stats, False,
        time.perf_counter() - started,
        layout_generation=layout_generation,
    )


# ----------------------------------------------------------------------
# the one result-cache policy
# ----------------------------------------------------------------------
class CacheSlot:
    """One request's pass through the result cache — the policy every
    query surface shares (``Flix.query``, ``Flix.query_stream``,
    ``ShardCoordinator.query``); the store itself is a
    :class:`repro.core.cache.ShardedLRUCache`.

    * **Key**: :meth:`QueryRequest.cache_key` plus the generation of the
      layout the caller pinned, so a hit can only replay an answer
      computed on that very snapshot.  A request carrying its own
      ``budget`` or ``explain=True`` has no key: it is neither looked up
      nor stored.
    * **Lookup**: a stored answer is complete, so it is served to any
      caller — including one that passes a ``budget=`` argument (a budget
      bounds work and a replay does none).  A ``limit`` is served by
      slicing the stored full answer.
    * **Store**: only an answer that was evaluated *without any budget*,
      came back ``complete``, and is whole (scalar, or unlimited).  A
      budget-evaluated answer is never stored, complete or not; a
      truncated or degraded one must never be replayed to a later caller.
    * **Staleness**: the store is stamped with the cache generation
      captured here, *before* evaluation; a maintenance verb that
      invalidated the cache meanwhile makes the store a no-op.
    """

    __slots__ = ("_cache", "_key", "_stamp", "_request", "_generation")

    def __init__(self, cache, request: QueryRequest, layout_generation: int):
        base = request.cache_key() if cache is not None else None
        self._cache = cache
        self._request = request
        self._generation = layout_generation
        self._key = None if base is None else base + (layout_generation,)
        self._stamp = cache.generation if base is not None else 0

    @property
    def storable(self) -> bool:
        """Could this request's answer be stored?  (A stream consumer
        only collects results when it could.)"""
        return self._key is not None and (
            self._request.is_scalar or self._request.limit is None
        )

    def lookup(
        self, started: float, count: Callable[[str, bool], None]
    ) -> Optional[QueryResponse]:
        """The replayed response on a hit (``from_cache``; its stats are
        the original evaluation's), else ``None``.  ``count(kind, hit)``
        is the calling surface's own hit/miss counter."""
        if self._key is None:
            return None
        boxed = self._cache.get(self._key)
        count(self._request.kind, boxed is not None)
        if boxed is None:
            return None
        results, value, stats = boxed[0]
        return QueryResponse(
            self._request, results[: self._request.limit], value, stats,
            True, time.perf_counter() - started,
            layout_generation=self._generation,
        )

    def store(
        self,
        results: Sequence[Any],
        value: Any,
        stats: QueryStats,
        budget: Optional[QueryBudget],
    ) -> None:
        """Store if the policy allows; ``budget`` is what the evaluation
        ran under."""
        if self.storable and budget is None and stats.is_complete:
            self._cache.put(
                self._key, (list(results), value, stats),
                generation=self._stamp,
            )


__all__ = [
    "QUERY_KINDS",
    "SCALAR_KINDS",
    "STREAMING_KINDS",
    "QueryRequest",
    "QueryResponse",
    "CacheSlot",
    "KIND_FIELDS",
    "evaluate_request",
    "is_set",
    "open_request",
    "type_seeds",
]
