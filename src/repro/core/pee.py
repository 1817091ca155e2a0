"""The Path Expression Evaluator (PEE), section 5 and Figure 4.

The evaluator answers ``a//b``-style queries by interleaving per-meta-
document index lookups with run-time traversal of residual links:

1. a priority queue ``IE`` of *entry elements*, keyed by the minimal
   distance any of their descendants can have to the start node, ties
   popping in discovery order;
2. for the popped entry ``e``, the local index returns all matches inside
   ``e``'s meta document (one block, ascending local distance) and the set
   ``L(e)`` of link-carrying descendants, whose link targets are enqueued at
   priority ``dist(a, e) + dist(e, l) + 1``;
3. duplicate elimination (section 5.1) keeps, per meta document, the entry
   points visited so far: a new entry covered by an earlier one is dropped
   outright, and individual results are suppressed when they are descendants
   of an earlier entry point — all checked through the local index, with no
   per-result hash of the output.  The exact-duplicate share of that work
   (a node popped or enqueued before) is proven away by the loop's
   :class:`~repro.core.planner.ProbeFrontier` without touching an index.

The algorithm exists once, as :func:`figure4_search`, parameterised by an
*expander* that does one popped entry's index work: this module's
:class:`PathExpressionEvaluator` expands against the local indexes,
``repro.shard.distributed`` expands by RPC to the owning shard.  The
connection test (:func:`first_connection`) and multi-step paths
(:func:`evaluate_path`) are drivers over that same loop.

Results therefore stream in *approximately* ascending distance: within one
meta document they are exact, across meta documents the block-wise delivery
can invert neighbours (the error-rate experiment of section 6 quantifies
this at 8-13%).

**Statistics.**  Every query owns a private :class:`QueryStats` instance
that travels on its :class:`QueryStream` (and on the ``QueryResponse``
built from it) — concurrent queries never share counters.  The evaluator
keeps no copy: one instance may run any number of queries concurrently
from different threads, all search state lives in locals of the per-query
generator, and the only mutable evaluator-level state is the lazily-bound
metric instruments, guarded by a lock.  A request's :class:`QueryBudget`
is passed as a call argument, never stored on the evaluator.

**Observability.**  When the evaluator is built with an enabled
:class:`repro.obs.Observability` bundle, each query additionally emits a
``pee.query`` trace (with a ``pee.probe`` span per index probe and a
``pee.link_hop`` span per residual-link expansion) and publishes its
counters to the metrics registry on completion (``flix_queries_total``,
``flix_pee_*_total``, ``flix_query_seconds``).  The two per-entry spans
are recorded as :meth:`repro.obs.tracing.Trace.leaf` tuples — one append
each, no span object — and become :class:`~repro.obs.tracing.Span`
objects only when someone reads the trace.  The :class:`QueryStats`
numbers are the source of truth; the registry is a cumulative view over
them.  With observability disabled (the default for a bare evaluator)
every instrumentation branch is skipped.
"""

from __future__ import annotations

import copy
import heapq
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.meta_document import MetaDocument
from repro.core.planner import ProbeFrontier
from repro.indexes.base import NodeId
from repro.obs import OBS_OFF, Observability

#: completeness levels, worst-last (merging keeps the worst)
COMPLETENESS_LEVELS = ("complete", "truncated", "degraded")
_COMPLETENESS_RANK = {level: rank for rank, level in enumerate(COMPLETENESS_LEVELS)}

#: meta keys of the two per-entry trace leaves (see ``Trace.leaf``)
_PROBE_KEYS = ("meta_id", "priority", "matches")
_HOP_KEYS = ("meta_id", "hops")


@dataclass(frozen=True)
class QueryResult:
    """One streamed result: the element, its (approximate) distance to the
    query start, and the meta document it was found in."""

    node: NodeId
    distance: int
    meta_id: int


@dataclass(frozen=True)
class QueryBudget:
    """Per-query work limits (``docs/RESILIENCE.md``).

    A query that hits any limit stops expanding and finishes with whatever
    it found so far, flagged ``truncated`` on its :class:`QueryStats` —
    bounded work on runaway cross-meta traversals (cyclic residual-link
    graphs can otherwise enqueue forever) instead of an unbounded search.
    """

    #: wall-clock limit from the first consumption of the stream
    deadline_seconds: Optional[float] = None
    #: residual-link traversals allowed before the search stops
    max_link_hops: Optional[int] = None
    #: priority-queue pops allowed before the search stops
    max_queue_pops: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("deadline_seconds", "max_link_hops", "max_queue_pops"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")


@dataclass
class QueryStats:
    """Run-time counters for one query (read from ``QueryStream.stats``).

    The counters are plain ints mutated in the evaluator's inner loop (no
    locks, no registry calls on the hot path); when observability is on
    they are published to the metrics registry once, on query completion.
    """

    #: meta documents whose local index was actually probed (entries that
    #: survived duplicate elimination)
    meta_document_visits: int = 0
    #: residual links followed across meta-document boundaries: pushes
    #: the frontier *admitted* to the queue (pruned ones are counted in
    #: ``planner_pruned_pushes`` instead) — what ``max_link_hops`` budgets
    link_traversals: int = 0
    #: popped entry elements dropped because an earlier entry of the same
    #: meta document already covered them (section 5.1)
    entries_dropped: int = 0
    #: results yielded to the client
    results_returned: int = 0
    #: individual matches suppressed as descendants of an earlier entry
    #: point (per-result duplicate elimination)
    results_suppressed: int = 0
    #: coverage questions asked (section 5.1): one per popped entry or
    #: match tested against a non-empty list of earlier entry points,
    #: whatever the index spends answering it
    covered_probes: int = 0
    #: priority-queue pops, covered or not (total queue traffic)
    queue_pops: int = 0
    #: enqueues the loop's frontier pruned as provably covered (never
    #: counted in ``link_traversals``; see repro.core.planner)
    planner_pruned_pushes: int = 0
    #: pops the frontier pruned without index probes (these still count
    #: in ``queue_pops`` and ``entries_dropped`` — the §5.1 coverage
    #: check would have dropped them too, just more expensively)
    planner_pruned_pops: int = 0
    #: how trustworthy the result set is: ``complete`` (everything the
    #: index knows), ``truncated`` (a query budget stopped the search
    #: early, or a shard's entry could not be expanded), or ``degraded``
    #: (the sharded coordinator had no healthy shard to ask)
    completeness: str = "complete"

    def snapshot(self) -> "QueryStats":
        """An immutable-by-convention copy (what a finished request's
        ``QueryResponse`` and the result cache keep).

        ``copy.copy`` rather than ``dataclasses.replace``: the fields are
        all plain ints.
        """
        return copy.copy(self)

    @property
    def is_complete(self) -> bool:
        return self.completeness == "complete"

    def mark_truncated(self) -> None:
        self._mark("truncated")

    def mark_degraded(self) -> None:
        self._mark("degraded")

    def _mark(self, level: str) -> None:
        if _COMPLETENESS_RANK[level] > _COMPLETENESS_RANK[self.completeness]:
            self.completeness = level

    def absorb_expansion(self, delta: "QueryStats") -> None:
        """Fold one remote expansion's counter deltas into this query.

        The loop owns the loop-level counters (queue pops, link
        traversals, visits, results); a shard worker running one
        ``expand_entry``/``connection_probe`` on its behalf only touches
        the two coverage counters — those are shipped back as a delta and
        folded in here, keeping the distributed query's stats identical to
        serial evaluation.
        """
        self.covered_probes += delta.covered_probes
        self.results_suppressed += delta.results_suppressed

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters (multi-step evaluations)."""
        self.meta_document_visits += other.meta_document_visits
        self.link_traversals += other.link_traversals
        self.entries_dropped += other.entries_dropped
        self.results_returned += other.results_returned
        self.results_suppressed += other.results_suppressed
        self.covered_probes += other.covered_probes
        self.queue_pops += other.queue_pops
        self.planner_pruned_pushes += other.planner_pruned_pushes
        self.planner_pruned_pops += other.planner_pruned_pops
        self._mark(other.completeness)  # keep the worst completeness


class QueryStream:
    """An in-flight query: the result iterator plus its private stats.

    Each query owns its :class:`QueryStats` instance, so concurrent queries
    against one evaluator never share mutable counters; read ``.stats`` at
    (or after) any point of consumption for this query's numbers.

    ``close()`` is idempotent and guarantees the query's stats are
    finalized (its trace finished, its counters published to the metrics
    registry) exactly once — even when the underlying generator was
    abandoned mid-iteration or never started at all, in which case the
    generator's own ``finally`` block would not run.

    ``next(stream)`` works on the stream itself, but ``iter(stream)``
    hands out the underlying generator, not the stream (``for`` loops and
    ``list()`` then pay no extra call per result).  Closing that generator
    is not closing the stream: only ``stream.close()`` or ``with stream:``
    guarantees finalize-once for a stream that may never have started.
    """

    __slots__ = ("_iterator", "stats", "_finalize", "_closed")

    def __init__(
        self,
        iterator: Iterator[QueryResult],
        stats: QueryStats,
        finalize: Optional[Callable[[], None]] = None,
    ) -> None:
        self._iterator = iterator
        self.stats = stats
        self._finalize = finalize
        self._closed = False

    def __iter__(self) -> Iterator[QueryResult]:
        # the underlying generator itself: ``for`` loops and ``list()``
        # then pay no Python-level call per result; the generator's own
        # ``finally`` still finalizes, and ``close()`` still closes it
        return self._iterator

    def __next__(self) -> QueryResult:
        return next(self._iterator)

    @property
    def completeness(self) -> str:
        """Shortcut for ``stats.completeness`` (see :class:`QueryStats`)."""
        return self.stats.completeness

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._iterator.close()
        finally:
            # a never-started generator skips its finally block on close();
            # the finalizer below is idempotent, so completed streams whose
            # generator already published are unaffected
            if self._finalize is not None:
                self._finalize()

    def __enter__(self) -> "QueryStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ExpansionLost(RuntimeError):
    """An expander could not expand its entry at all: every replica of
    the owning shard is down.  The loop drops the entry — and the subtree
    it would have discovered — and flags the stream ``truncated``."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"no live replica can expand shard {shard_id}")
        self.shard_id = shard_id


#: ``expand(meta_id, entry, priority, previous)``: one popped entry's
#: index work.  Returns ``None`` when §5.1 coverage drops the entry
#: (``previous`` lists the meta document's earlier entry points, read
#: only), else ``(results_to_emit, link_pushes)`` with ``link_pushes`` as
#: ``(local_distance, neighbour)`` pairs; raises :class:`ExpansionLost`.
Expander = Callable[
    [int, NodeId, int, List[NodeId]],
    Optional[Tuple[Sequence, Sequence[Tuple[int, NodeId]]]],
]


def figure4_search(
    seeds: Sequence[NodeId],
    meta_of: Callable[[NodeId], int],
    expand: Expander,
    stats: QueryStats,
    max_distance: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> Iterator:
    """Figure 4: the one priority-queue loop every evaluation runs.

    The loop owns the queue, the per-meta entry-point lists, the
    :class:`~repro.core.planner.ProbeFrontier`, the budget and every
    loop-level counter of ``stats``; all index access is the *expander*'s
    — a local index probe (:class:`PathExpressionEvaluator`) or an RPC to
    the shard owning the entry
    (:class:`repro.shard.distributed.DistributedEvaluator`).  Both
    deployments therefore produce the same stream with the same stats by
    construction.  Equal-priority entries pop in discovery order (FIFO).
    """
    frontier = ProbeFrontier()
    # entry points already expanded, per meta document
    entries: Dict[int, List[NodeId]] = {}
    # (priority, counter, node): ties pop in discovery order
    heap: List[Tuple[int, int, NodeId]] = []
    for order, seed in enumerate(seeds):
        try:
            meta_of(seed)
        except KeyError:
            raise KeyError(
                f"node {seed} is not part of the collection"
            ) from None
        if not frontier.admit_push(seed, 0):
            continue  # duplicate seed
        heapq.heappush(heap, (0, order, seed))
    counter = len(seeds)
    deadline = None
    if budget is not None and budget.deadline_seconds is not None:
        deadline = time.monotonic() + budget.deadline_seconds

    while heap:
        if budget is not None and _budget_exhausted(budget, deadline, stats):
            stats.mark_truncated()
            break
        priority, _, entry = heapq.heappop(heap)
        stats.queue_pops += 1
        if max_distance is not None and priority > max_distance:
            break  # queue head beyond the client's threshold
        if not frontier.admit_pop(entry):
            # an earlier pop of this node provably covers it (§5.1,
            # descendants-or-self) — skip the index probes the coverage
            # check would spend proving that
            stats.entries_dropped += 1
            stats.planner_pruned_pops += 1
            continue
        meta_id = meta_of(entry)
        previous = entries.setdefault(meta_id, [])
        try:
            outcome = expand(meta_id, entry, priority, previous)
        except ExpansionLost:
            # the subtree behind this entry is unreachable: keep going on
            # the surviving shards, flag the stream truncated
            stats.mark_truncated()
            continue
        if outcome is None:
            stats.entries_dropped += 1
            continue
        stats.meta_document_visits += 1
        emit, link_pushes = outcome

        for result in emit:
            stats.results_returned += 1
            yield result

        previous.append(entry)
        for local_distance, neighbour in link_pushes:
            push_priority = priority + local_distance + 1
            if not frontier.admit_push(neighbour, push_priority):
                stats.planner_pruned_pushes += 1
                continue
            stats.link_traversals += 1
            counter += 1
            heapq.heappush(heap, (push_priority, counter, neighbour))


def _budget_exhausted(
    budget: QueryBudget, deadline: Optional[float], stats: QueryStats
) -> bool:
    if (
        budget.max_queue_pops is not None
        and stats.queue_pops >= budget.max_queue_pops
    ):
        return True
    if (
        budget.max_link_hops is not None
        and stats.link_traversals >= budget.max_link_hops
    ):
        return True
    return deadline is not None and time.monotonic() >= deadline


def first_connection(
    source: NodeId,
    meta_of: Callable[[NodeId], int],
    probe: Callable,
    stats: QueryStats,
    max_distance: Optional[int] = None,
    budget: Optional[QueryBudget] = None,
) -> Optional[int]:
    """Connection test (section 5.2): the Figure-4 loop from ``source``,
    stopped at its first yield.

    ``probe(meta_id, entry, priority, previous)`` is the connection-test
    expander: ``None`` when the entry is covered, else ``(found,
    link_pushes)`` where ``found`` is the distance to the target once the
    target's meta document reaches it.
    """

    def expand(meta_id, entry, priority, previous):
        outcome = probe(meta_id, entry, priority, previous)
        if outcome is None:
            return None
        found, link_pushes = outcome
        return (() if found is None else (found,)), link_pushes

    search = figure4_search(
        [source], meta_of, expand, stats, max_distance, budget=budget
    )
    try:
        return next(search, None)
    finally:
        search.close()


def evaluate_path(
    descend: Callable[[NodeId, str], QueryStream],
    source: NodeId,
    path: Sequence[str],
) -> Tuple[List[Tuple[NodeId, int]], QueryStats]:
    """Multi-step ``source//t1//…//tn``: one descendants search
    (``descend(node, tag)``) per frontier element and step, frontiers
    deduplicated by best distance (the unscored counterpart of the
    relaxed engine).  Returns the final step's ``(node, distance)`` pairs,
    ascending, and the sub-searches' merged stats."""
    aggregate = QueryStats()
    frontier: Dict[NodeId, int] = {source: 0}
    for tag in path:
        next_frontier: Dict[NodeId, int] = {}
        for node, distance in sorted(frontier.items(), key=lambda kv: kv[1]):
            stream = descend(node, tag)
            for result in stream:
                total = distance + result.distance
                current = next_frontier.get(result.node)
                if current is None or total < current:
                    next_frontier[result.node] = total
            aggregate.merge(stream.stats)
        if not next_frontier:
            return [], aggregate
        frontier = next_frontier
    pairs = sorted(frontier.items(), key=lambda kv: (kv[1], kv[0]))
    return pairs, aggregate


class SearchMethods:
    """Every search that is seeds, direction and skip set of one
    ``_search(seeds, tag, max_distance, forward, skip_nodes, axis, budget)``
    — written once for the local evaluator and the sharded coordinator's
    remote one (:class:`repro.shard.distributed.DistributedEvaluator`), so
    the two cannot drift apart in signature or in how a query seeds the
    loop."""

    def find_descendants(
        self,
        start: NodeId,
        tag: Optional[str] = None,
        max_distance: Optional[int] = None,
        include_self: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> Iterator[QueryResult]:
        """Stream descendants of ``start`` with the given tag.

        ``tag=None`` is the wildcard.  ``max_distance`` is the client-side
        threshold of section 5.1: evaluation stops once the queue's head is
        beyond it.  ``include_self`` controls whether ``start`` itself may
        qualify (XPath's descendant-or-self vs. descendant).
        """
        return self._search(
            seeds=[start],
            tag=tag,
            max_distance=max_distance,
            forward=True,
            skip_nodes=() if include_self else (start,),
            axis="descendants",
            budget=budget,
        )

    def find_ancestors(
        self,
        start: NodeId,
        tag: Optional[str] = None,
        max_distance: Optional[int] = None,
        include_self: bool = False,
        budget: Optional[QueryBudget] = None,
    ) -> Iterator[QueryResult]:
        """Stream ancestors of ``start`` (section 5.1: "a similar algorithm
        can be applied to find ancestors"); distances are path lengths from
        the ancestor down to ``start``."""
        return self._search(
            seeds=[start],
            tag=tag,
            max_distance=max_distance,
            forward=False,
            skip_nodes=() if include_self else (start,),
            axis="ancestors",
            budget=budget,
        )

    def evaluate_type_query(
        self,
        source_tag_nodes: Sequence[NodeId],
        tag: Optional[str],
        max_distance: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Iterator[QueryResult]:
        """``A//B`` evaluation (section 5.2): seed the queue with every
        element of type ``A`` at priority 0 and run the same algorithm.

        Results are the distinct ``B`` elements reachable from *some* seed,
        each reported once with (approximately) its smallest seed distance.
        """
        return self._search(
            seeds=list(source_tag_nodes),
            tag=tag,
            max_distance=max_distance,
            forward=True,
            skip_nodes=(),
            axis="type",
            budget=budget,
        )


class PathExpressionEvaluator(SearchMethods):
    """Figure 4's algorithm over a set of built meta documents."""

    def __init__(
        self,
        meta_documents: Sequence[MetaDocument],
        meta_of: Dict[NodeId, int],
        obs: Optional[Observability] = None,
        generation: int = 0,
    ) -> None:
        # ``meta_documents`` is positionally indexed by meta id; removed
        # or compacted ids appear as ``None`` slots (never dereferenced:
        # ``meta_of`` maps live nodes only)
        self._meta_documents = list(meta_documents)
        self._meta_of = dict(meta_of)
        #: generation of the layout snapshot this evaluator answers for
        #: (stamped into the ``pee.query`` trace; see docs/MAINTENANCE.md)
        self.generation = generation
        #: the observability bundle (metrics + tracing); disabled by default
        #: for a bare evaluator, supplied by ``Flix`` when configured on
        self._obs = obs if obs is not None else OBS_OFF
        # per-query instruments, bound lazily on the first publish
        self._instruments: Optional[Dict[str, object]] = None
        # guards the instrument binding; the search loop itself keeps all
        # its state in per-query locals and never takes it
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the local driver of the Figure-4 loop
    # ------------------------------------------------------------------
    def _search(
        self,
        seeds: Sequence[NodeId],
        tag: Optional[str],
        max_distance: Optional[int],
        forward: bool,
        skip_nodes: Tuple[NodeId, ...],
        axis: str,
        budget: Optional[QueryBudget] = None,
    ) -> QueryStream:
        """Build the query stream; ``axis`` labels its trace and metrics,
        ``budget`` is the request's own work limit, if any."""
        stats = QueryStats()
        obs = self._obs
        trace = None
        started = 0.0
        if obs.enabled:
            started = time.perf_counter()
            trace = obs.tracer.trace(
                "pee.query",
                axis=axis,
                tag=tag if tag is not None else "*",
                seeds=len(seeds),
                generation=self.generation,
            )
        finalize = self._make_finalizer(stats, axis, trace, started)
        metas = self._meta_documents
        skip = set(skip_nodes)

        def expand(meta_id, entry, priority, previous):
            return self._expand_entry(
                metas[meta_id], entry, priority, tag, forward, skip,
                max_distance, previous, stats, trace,
            )

        def run() -> Iterator[QueryResult]:
            try:
                yield from figure4_search(
                    seeds, self._meta_of.__getitem__, expand, stats,
                    max_distance, budget,
                )
            finally:
                finalize()

        return QueryStream(run(), stats, finalize)

    def _make_finalizer(
        self, stats: QueryStats, axis: str, trace, started: float
    ) -> Callable[[], None]:
        """One-shot publication of a finished query's stats.

        Shared by the search generator's ``finally`` block and
        :meth:`QueryStream.close`, whichever runs first; the ``done`` guard
        makes the pair publish exactly once, covering streams that are
        exhausted, closed mid-iteration, or closed before the first
        ``next()`` (a never-started generator skips its ``finally``).
        """
        done = [False]

        def finalize() -> None:
            if done[0]:
                return
            done[0] = True
            if trace is not None:
                trace.root.meta["results"] = stats.results_returned
                trace.root.meta["completeness"] = stats.completeness
                trace.finish()
                self._publish(stats, axis, time.perf_counter() - started)

        return finalize

    # ------------------------------------------------------------------
    # per-entry expansion (all index access happens here)
    # ------------------------------------------------------------------
    def _expand_entry(
        self,
        meta: MetaDocument,
        entry: NodeId,
        priority: int,
        tag: Optional[str],
        forward: bool,
        skip,
        max_distance: Optional[int],
        previous: List[NodeId],
        stats: QueryStats,
        trace,
    ):
        """Expand one popped entry: coverage check, local probe, residual-
        link lookup.  Returns ``None`` when the entry is covered, else
        ``(results_to_emit, link_pushes)``; the loop applies the pushes
        after emission.
        """
        index = meta.index
        # section 5.1: one coverage question per node tested, none while
        # the meta document has no earlier entry point
        covers = index.coverage(previous, forward) if previous else None
        if covers is not None:
            stats.covered_probes += 1
            if covers(entry):
                return None
        matches = self._probe(index, entry, tag, forward, trace,
                              meta.meta_id, priority)
        emit: List[QueryResult] = []
        for node, local_distance in matches:
            if node in skip and node == entry and local_distance == 0:
                continue
            total = priority + local_distance
            if max_distance is not None and total > max_distance:
                continue
            if covers is not None:
                stats.covered_probes += 1
                if covers(node):
                    stats.results_suppressed += 1
                    continue
            emit.append(QueryResult(node, total, meta.meta_id))

        # Residual links out of (forward) / into (backward) the meta
        # document.
        link_pushes: List[Tuple[int, NodeId]] = []
        link_candidates = meta.link_sources if forward else meta.link_targets
        if link_candidates:
            if trace is None:
                link_pushes = self._link_pushes(index, meta, entry, forward)
            else:
                values: Tuple = (meta.meta_id,)
                started = time.perf_counter()
                try:
                    link_pushes = self._link_pushes(index, meta, entry, forward)
                    values = (meta.meta_id, len(link_pushes))
                finally:
                    trace.leaf("pee.link_hop", _HOP_KEYS, started,
                               time.perf_counter(), values)
        return emit, link_pushes

    def _link_pushes(
        self, index, meta: MetaDocument, entry: NodeId, forward: bool
    ) -> List[Tuple[int, NodeId]]:
        """The residual-link neighbours reachable from ``entry``, as
        ``(local_distance, neighbour)`` pairs ready for enqueueing."""
        if forward:
            link_elements = index.reachable_subset(entry, meta.link_sources)
            link_map = meta.outgoing_links
        else:
            link_elements = index.reaching_subset(entry, meta.link_targets)
            link_map = meta.incoming_links
        pushes: List[Tuple[int, NodeId]] = []
        for element, local_distance in link_elements:
            for neighbour in link_map[element]:
                pushes.append((local_distance, neighbour))
        return pushes

    # ------------------------------------------------------------------
    # remote-expansion seam (sharded serving, docs/SHARDING.md)
    # ------------------------------------------------------------------
    def expand_entry(
        self,
        meta_id: int,
        entry: NodeId,
        priority: int,
        tag: Optional[str],
        forward: bool,
        skip: Sequence[NodeId],
        max_distance: Optional[int],
        previous: Sequence[NodeId],
        stats: QueryStats,
    ):
        """Expand one entry of ``meta_id`` on behalf of a remote caller.

        This is the seam the sharded coordinator's remote expander is
        built on: :func:`figure4_search`'s per-pop expansion is a pure
        function of ``(meta, entry, priority, tag, forward, skip,
        max_distance, previous)``, so a coordinator running the loop can
        ship each expansion to the shard worker owning the entry's meta
        document and still produce the byte-identical result stream.  Returns ``None`` when
        the entry is covered, else ``(results_to_emit, link_pushes)``;
        counters the expansion touches (``covered_probes``,
        ``results_suppressed``) accumulate into the caller-owned ``stats``.
        """
        meta = self._meta_documents[meta_id]
        return self._expand_entry(
            meta, entry, priority, tag, forward, set(skip), max_distance,
            list(previous), stats, None,
        )

    def connection_probe(
        self,
        meta_id: int,
        entry: NodeId,
        priority: int,
        target: NodeId,
        target_meta: int,
        max_distance: Optional[int],
        previous: Sequence[NodeId],
        stats: QueryStats,
    ):
        """Connection-test counterpart of :meth:`expand_entry` (the same
        remote seam for the ``test`` kind): returns ``(found, link_pushes)``
        or ``None`` when the entry is covered."""
        meta = self._meta_documents[meta_id]
        return self._connection_probe(
            meta, entry, priority, target, target_meta, max_distance,
            list(previous), stats,
        )

    def meta_id_of(self, node: NodeId) -> int:
        """The meta document owning ``node`` (KeyError for unknown nodes)."""
        return self._meta_of[node]

    def _probe(
        self,
        index,
        entry: NodeId,
        tag: Optional[str],
        forward: bool,
        trace,
        meta_id: int,
        priority: int,
    ):
        """One local-index probe, recorded as a ``pee.probe`` leaf if traced."""
        if trace is None:
            return (
                index.find_descendants_by_tag(entry, tag)
                if forward
                else index.find_ancestors_by_tag(entry, tag)
            )
        # as under ``with trace.span()``, a probe that raises still leaves
        # its span, with no ``matches``; the link-hop leaf follows the same
        # rule
        values: Tuple = (meta_id, priority)
        started = time.perf_counter()
        try:
            matches = (
                index.find_descendants_by_tag(entry, tag)
                if forward
                else index.find_ancestors_by_tag(entry, tag)
            )
            values = (meta_id, priority, len(matches))
        finally:
            trace.leaf("pee.probe", _PROBE_KEYS, started, time.perf_counter(),
                       values)
        return matches

    def _query_instruments(self) -> Dict[str, object]:
        """Bind the per-query instruments once (one publish per query).

        Double-checked under the state lock: concurrent first publishers
        must agree on one instrument dict (the registry itself dedupes by
        metric name, so the race would be benign, but a torn half-built
        dict would not be).
        """
        instruments = self._instruments
        if instruments is not None:
            return instruments
        with self._state_lock:
            if self._instruments is not None:
                return self._instruments
            reg = self._obs.registry
            self._instruments = {
                "queries": reg.counter(
                    "flix_queries_total", "Queries evaluated, by axis."
                ),
                "pops": reg.counter(
                    "flix_pee_queue_pops_total",
                    "Priority-queue pops across all queries.",
                ),
                "visits": reg.counter(
                    "flix_pee_meta_visits_total",
                    "Meta documents probed through their local index.",
                ),
                "hops": reg.counter(
                    "flix_pee_link_hops_total",
                    "Residual links traversed across meta-document boundaries.",
                ),
                "probes": reg.counter(
                    "flix_pee_covered_probes_total",
                    "Coverage questions asked by duplicate elimination "
                    "(one per node tested against earlier entry points).",
                ),
                "dupes": reg.counter(
                    "flix_pee_duplicates_eliminated_total",
                    "Entries dropped and results suppressed by coverage checks.",
                ),
                "results": reg.counter(
                    "flix_pee_results_total",
                    "Results streamed to clients, by axis.",
                ),
                "planner": reg.counter(
                    "flix_planner_pruned_total",
                    "Heap pops and pushes the probe planner's frontier "
                    "pruned as provably covered, by kind.",
                ),
                "seconds": reg.histogram(
                    "flix_query_seconds",
                    "Wall time from first consumption to stream completion, "
                    "by axis.",
                ),
                "completeness": reg.counter(
                    "flix_query_completeness_total",
                    "Finished queries by completeness level "
                    "(complete / truncated / degraded).",
                ),
            }
            return self._instruments

    def _publish(self, stats: QueryStats, axis: str, duration: float) -> None:
        """Fold one finished query's counters into the metrics registry."""
        inst = self._query_instruments()
        inst["queries"].inc(axis=axis)
        inst["pops"].inc(stats.queue_pops)
        inst["visits"].inc(stats.meta_document_visits)
        inst["hops"].inc(stats.link_traversals)
        inst["probes"].inc(stats.covered_probes)
        inst["dupes"].inc(stats.entries_dropped, kind="entry")
        inst["dupes"].inc(stats.results_suppressed, kind="result")
        inst["results"].inc(stats.results_returned, axis=axis)
        if stats.planner_pruned_pops:
            inst["planner"].inc(stats.planner_pruned_pops, kind="pop")
        if stats.planner_pruned_pushes:
            inst["planner"].inc(stats.planner_pruned_pushes, kind="push")
        inst["seconds"].observe(duration, axis=axis)
        inst["completeness"].inc(level=stats.completeness)

    # ------------------------------------------------------------------
    # connection tests (section 5.2)
    # ------------------------------------------------------------------
    def connection_test(
        self,
        source: NodeId,
        target: NodeId,
        max_distance: Optional[int] = None,
        stats: Optional[QueryStats] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Optional[int]:
        """Approximate distance from ``source`` to ``target``; None if not
        connected (within the threshold).

        As in the paper, the search "proceeds until it finds b": the first
        path discovered is reported, so the returned distance can exceed the
        true shortest path when that crosses meta documents differently.
        The client limits the depth via ``max_distance`` because "the
        resulting relevance is negligible" beyond it.  ``stats`` is an
        optional caller-owned counter sink (per-query, never shared).
        """
        stats = stats if stats is not None else QueryStats()
        started = time.perf_counter()
        try:
            if source not in self._meta_of or target not in self._meta_of:
                raise KeyError("both endpoints must belong to the collection")
            target_meta = self._meta_of[target]
            metas = self._meta_documents

            def probe(meta_id, entry, priority, previous):
                return self._connection_probe(
                    metas[meta_id], entry, priority, target, target_meta,
                    max_distance, previous, stats,
                )

            return first_connection(
                source, self._meta_of.__getitem__, probe, stats,
                max_distance, budget,
            )
        finally:
            if self._obs.enabled:
                self._publish(
                    stats, "connection", time.perf_counter() - started
                )

    def _connection_probe(
        self,
        meta: MetaDocument,
        entry: NodeId,
        priority: int,
        target: NodeId,
        target_meta: int,
        max_distance: Optional[int],
        previous: List[NodeId],
        stats: QueryStats,
    ):
        """Connection-test expansion of one entry."""
        index = meta.index
        covers = index.coverage(previous, True) if previous else None
        if covers is not None:
            stats.covered_probes += 1
            if covers(entry):
                return None
        found: Optional[int] = None
        if meta.meta_id == target_meta:
            local = index.distance(entry, target)
            if local is not None:
                total = priority + local
                if max_distance is None or total <= max_distance:
                    found = total
        link_pushes: List[Tuple[int, NodeId]] = []
        if found is None:
            for element, local_distance in index.reachable_subset(
                entry, meta.link_sources
            ):
                for out_target in meta.outgoing_links[element]:
                    link_pushes.append((local_distance, out_target))
        return found, link_pushes
