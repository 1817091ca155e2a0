"""The FliX facade: build a collection index, query it, tune it.

Typical use::

    from repro import Flix, FlixConfig, QueryRequest, build_collection

    collection = build_collection(documents)
    flix = Flix.build(collection, FlixConfig.hybrid(partition_size=5000))
    response = flix.query(QueryRequest.descendants(start, tag="article",
                                                   limit=100))
    for result in response:
        ...

The unified entry points are :meth:`Flix.query` (materialized
:class:`~repro.core.api.QueryResponse`) and :meth:`Flix.query_stream`
(lazy iteration for the streaming kinds).  Both are safe to call from
many threads at once; for serving over HTTP, ``repro.shard`` puts a
:class:`~repro.shard.http.FrontDoor` in front of worker processes.
"""

from __future__ import annotations

import threading
import time
from bisect import insort
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.collection.collection import NodeId, XmlCollection
from repro.core.api import (
    STREAMING_KINDS,
    CacheSlot,
    QueryRequest,
    QueryResponse,
    evaluate_request,
    open_request,
    type_seeds,
)
from repro.core.config import CacheConfig, FlixConfig
from repro.graph.digraph import Digraph
from repro.core.ib import BuildReport, IndexBuilder
from repro.core.layout import IndexLayout
from repro.core.links import links_pack_bytes, pack_links, residual_links
from repro.core.mdb import MetaDocumentBuilder
from repro.core.meta_document import MetaDocument
from repro.core.pee import PathExpressionEvaluator, QueryBudget
from repro.core.planner import QueryPlan, plan
from repro.core.selftune import QueryLoadMonitor, TuningAdvice, with_compaction_advice
from repro.obs import MetricsRegistry, Observability, Trace, render


class Flix:
    """A built FliX index over one XML collection."""

    def __init__(
        self,
        collection: XmlCollection,
        config: FlixConfig,
        meta_documents: List[MetaDocument],
        meta_of: Dict[NodeId, int],
        report: BuildReport,
        obs: Optional[Observability] = None,
    ) -> None:
        self.collection = collection
        self.config = config
        self.report = report
        #: the observability bundle (metrics registry + tracer); honours
        #: ``config.observability`` unless an explicit bundle is passed
        self.obs = (
            obs
            if obs is not None
            else Observability(getattr(config, "observability", True))
        )
        # The whole mutable index layout lives on one immutable snapshot,
        # swapped by a single reference assignment (see core/layout.py);
        # the mutation lock serializes the maintenance verbs — queries
        # never take it, they pin self._layout once and run on that.
        self._mutation_lock = threading.RLock()
        slots = tuple(meta_documents)
        frozen_meta_of = dict(meta_of)
        self._layout = IndexLayout(
            slots=slots,
            meta_of=frozen_meta_of,
            pee=None,
            generation=0,
        )
        self._layout = self._layout.with_pee(
            self._build_evaluator(slots, frozen_meta_of, generation=0)
        )
        self.monitor = QueryLoadMonitor()
        # the attached write-ahead log (docs/DURABILITY.md); every
        # maintenance verb appends its record here *before* publishing
        # the layout swap, and save() truncates it at snapshot time
        self._wal = None
        #: the shared result/connection cache (sharded LRU, generation-
        #: invalidated); configured through ``config.cache``, or later via
        #: :meth:`configure_cache`
        cache_config = getattr(config, "cache", None)
        self._result_cache = (
            cache_config.build() if cache_config is not None else None
        )
        # counters retired from a cache replaced by configure_cache(), so
        # the cache_hits / cache_misses totals survive the replacement
        self._retired_hits = 0
        self._retired_misses = 0
        if self.obs.enabled:
            self.obs.registry.gauge(
                "flix_meta_documents",
                "Meta documents in the current index layout.",
            ).set(self._layout.live_count)

    # ------------------------------------------------------------------
    # the layout snapshot (copy-on-write; see core/layout.py)
    # ------------------------------------------------------------------
    @property
    def layout(self) -> IndexLayout:
        """The current immutable index-layout snapshot.  Capture it once
        and keep using the captured object for a consistent view; the
        attribute is re-assigned atomically by every maintenance verb."""
        return self._layout

    @property
    def layout_generation(self) -> int:
        """Monotonic layout version; bumped by every published mutation."""
        return self._layout.generation

    @property
    def meta_documents(self) -> List[MetaDocument]:
        """The current layout's *live* meta documents, ascending id.

        Until a document is removed or a compaction runs this is exactly
        the historical dense list; afterwards tombstoned ids are skipped,
        so list position no longer equals ``meta_id`` — use
        :meth:`meta_document_of` or ``layout.meta(meta_id)`` to address
        one by id.
        """
        return self._layout.live_metas()

    @property
    def meta_of(self) -> Dict[NodeId, int]:
        """Node id → meta id of the current layout snapshot (read-only by
        convention: mutate through the maintenance verbs)."""
        return self._layout.meta_of

    @property
    def pee(self) -> PathExpressionEvaluator:
        """The current layout's evaluator."""
        return self._layout.pee

    @pee.setter
    def pee(self, evaluator) -> None:
        # benchmarks wrap the evaluator in place (e.g. a latency-injecting
        # decorator); republish the same layout with the replacement —
        # what is indexed did not change, so the generation is kept
        self._layout = self._layout.with_pee(evaluator)

    def _build_evaluator(
        self,
        slots: Sequence[Optional[MetaDocument]],
        meta_of: Dict[NodeId, int],
        generation: int,
    ) -> PathExpressionEvaluator:
        """A fresh evaluator over one layout snapshot, with the query
        budget and BFS-fallback context the configuration's resilience
        settings imply (both absent without a resilience config, which
        keeps the classic zero-overhead behaviour)."""
        from repro.core.fallback import FallbackContext
        from repro.core.pee import QueryBudget

        resilience = getattr(self.config, "resilience", None)
        budget = QueryBudget.from_resilience(resilience)
        fallback = None
        if resilience is not None and resilience.allow_query_fallback:
            fallback = FallbackContext(
                self.collection.graph, self.collection.tag
            )
        return PathExpressionEvaluator(
            slots,
            meta_of,
            self.obs,
            budget=budget,
            fallback=fallback,
            generation=generation,
        )

    def _publish_layout(self, layout: IndexLayout, verb: str) -> None:
        """Atomically publish a new layout snapshot.

        One reference assignment (atomic under CPython) makes the new
        layout visible; queries already running keep the snapshot they
        pinned.  The shared result cache is invalidated *after* the swap:
        an evaluation that raced us captured the old cache generation
        before evaluating, so its store is stamped stale and dropped —
        the reverse order would let a pre-swap answer be stored as fresh.
        """
        self._layout = layout
        if self.obs.enabled:
            self.obs.registry.counter(
                "flix_layout_swaps_total",
                "Atomic index-layout publications, by maintenance verb.",
            ).inc(verb=verb)
            self.obs.registry.gauge(
                "flix_layout_generation",
                "Generation counter of the published index layout.",
            ).set(layout.generation)
            self.obs.registry.gauge(
                "flix_meta_documents",
                "Meta documents in the current index layout.",
            ).set(layout.live_count)
        self.invalidate_caches()

    @property
    def degraded_meta_ids(self) -> List[int]:
        """Meta documents currently answered by the PEE's BFS fallback."""
        return self.pee.degraded_meta_ids

    # ------------------------------------------------------------------
    # build phase
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        collection: XmlCollection,
        config: Optional[FlixConfig] = None,
        jobs: Optional[int] = None,
    ) -> "Flix":
        """Run the full build phase: MDB -> ISS -> IB.

        The only build pipeline: how the collection is cut into meta
        documents is the MDB's choice under ``config.mdb_strategy`` (the
        paper's four configurations, ``FlixConfig.monolithic(strategy)``
        for the section 6 comparators, ``FlixConfig.auto_subcollections()``
        for section 7's per-subcollection layout); everything after the
        specs is the same for all of them.

        ``config`` defaults to the automatic recommendation derived from the
        collection's statistics (the paper's future-work goal, section 4.1).
        ``jobs`` overrides ``config.jobs`` for this build only: with more
        than one worker the per-meta-document builds run on a worker pool,
        with results merged in spec order — the built index is identical to
        a sequential build at any ``jobs`` value.

        Fault tolerance: with ``config.resilience`` set, a per-meta index
        build that fails is retried, then rebuilt with the safe fallback
        strategy, then left unindexed for the PEE's query-time BFS
        (``docs/RESILIENCE.md``); without it the first failure propagates.
        """
        if config is None:
            config = FlixConfig.recommend_for(collection)

        obs = Observability(getattr(config, "observability", True))
        specs = MetaDocumentBuilder(collection, config).build_specs()
        builder = IndexBuilder(collection, config, obs=obs)
        meta_documents, meta_of, report = builder.build(specs, jobs=jobs)
        return cls(collection, config, meta_documents, meta_of, report, obs=obs)

    # ------------------------------------------------------------------
    # query phase — the unified API
    # ------------------------------------------------------------------
    def query(
        self,
        request: QueryRequest,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResponse:
        """Evaluate one :class:`~repro.core.api.QueryRequest`, materialized.

        This is the primary query entry point: every kind the framework
        understands goes through here (or, lazily, through
        :meth:`query_stream`).  The shared result cache — when configured —
        is consulted first and fed afterwards, under the one policy stated
        on :class:`repro.core.api.CacheSlot`; the response carries the
        query's private stats and its completeness flag.

        ``budget`` overrides ``request.budget`` for this call (the serving
        layer uses it to charge queue wait against the deadline).
        """
        started = time.perf_counter()
        # Pin the layout snapshot before anything else: a concurrent
        # maintenance verb publishes a new layout + cache generation while
        # we run, but this call keeps evaluating against exactly the
        # snapshot it started on, and the slot stamps its store with the
        # cache generation captured now, so it can never be served as fresh.
        layout = self._layout
        slot = CacheSlot(self._result_cache, request, layout.generation)
        response = slot.lookup(started, self._count_cache_lookup)
        if response is not None:
            return response
        if budget is None:
            budget = request.budget
        response = evaluate_request(
            request, budget, layout.pee, started, layout.generation,
            self.collection, layout.meta_of,
        )
        self.monitor.record(response.stats)
        slot.store(response.results, response.value, response.stats, budget)
        if request.explain:
            response.plan = self.explain(request, layout=layout)
        return response

    def query_stream(self, request: QueryRequest) -> Iterator[Any]:
        """Lazily evaluate a streaming-kind request (descendants,
        ancestors, type queries, connections), yielding results as the
        evaluator finds them — the classic FliX delivery of section 3.1.
        (For the paper's "client thread reads from a list", hand the
        stream to :meth:`repro.core.results.StreamedList.feed`.)

        The shared cache participates exactly as in :meth:`query`: a hit
        replays the stored result list, a fully-consumed unlimited stream
        is stored on completion; a stream abandoned early is closed (its
        evaluator-side stats are finalized) and stores nothing.  Scalar
        and aggregate kinds have nothing to stream — use :meth:`query`
        for those.
        """
        if request.kind not in STREAMING_KINDS:
            raise ValueError(
                f"kind {request.kind!r} has no streaming form; use query()"
            )
        # pinned once: the whole stream is answered by this one snapshot,
        # even if maintenance verbs publish new layouts mid-consumption
        layout = self._layout
        slot = CacheSlot(self._result_cache, request, layout.generation)
        hit = slot.lookup(time.perf_counter(), self._count_cache_lookup)
        if hit is not None:
            yield from hit.results
            return
        answer, finish = open_request(
            request, request.budget, layout.pee, self.collection,
            layout.meta_of,
        )
        collected: Optional[List[Any]] = [] if slot.storable else None
        try:
            for item in answer:
                if collected is not None:
                    collected.append(item)
                yield item
        finally:
            stats = finish()
        self.monitor.record(stats)
        if collected is not None:
            slot.store(collected, None, stats, request.budget)

    def explain(
        self,
        request: QueryRequest,
        layout: Optional["IndexLayout"] = None,
    ) -> "QueryPlan":
        """The static :class:`repro.core.planner.QueryPlan` for
        ``request`` — the EXPLAIN surface — without evaluating it.

        ``mode="planned"`` plans list the meta documents the Figure-4
        loop can probe; kinds that never enter the loop (children /
        connections / cost) come back ``mode="direct"``.  ``layout`` pins
        the snapshot explained (defaults to the current one).  An unknown
        source or target raises the evaluator's ``KeyError``.
        """
        if layout is None:
            layout = self._layout
        seeds = None
        if request.kind == "descendants" and request.source_tag is not None:
            seeds = type_seeds(
                self.collection, layout.meta_of, request.source_tag
            )
        trace = self.obs.tracer.trace(
            "pee.plan", kind=request.kind, generation=layout.generation
        )
        try:
            return plan(request, layout, seeds=seeds)
        finally:
            trace.finish()

    # ------------------------------------------------------------------
    # result caching (section 7: "caching results of frequent
    # (sub-)queries") — a sharded LRU shared by every worker thread
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Lifetime cache hits (including caches since disabled)."""
        if self._result_cache is None:
            return self._retired_hits
        return self._retired_hits + self._result_cache.stats().hits

    @property
    def cache_misses(self) -> int:
        """Lifetime cache misses (including caches since disabled)."""
        if self._result_cache is None:
            return self._retired_misses
        return self._retired_misses + self._result_cache.stats().misses

    @property
    def cache(self):
        """The live :class:`repro.core.cache.ShardedLRUCache` (or None)."""
        return self._result_cache

    def cache_stats(self):
        """Aggregate :class:`repro.core.cache.CacheStats` (or ``None``
        when no cache is configured)."""
        if self._result_cache is None:
            return None
        return self._result_cache.stats()

    def configure_cache(self, cache_config: Optional[CacheConfig]) -> None:
        """(Re)configure the shared cache; ``None`` removes it.

        Counters of a replaced cache are retired into the lifetime
        ``cache_hits``/``cache_misses`` totals.
        """
        if self._result_cache is not None:
            stats = self._result_cache.stats()
            self._retired_hits += stats.hits
            self._retired_misses += stats.misses
        self._result_cache = (
            cache_config.build() if cache_config is not None else None
        )

    def invalidate_caches(self) -> None:
        """Generation-bump the shared cache: every cached entry becomes
        unservable (O(1); entries are dropped lazily).  Called internally
        by every index-layout mutation (``add_document``)."""
        if self._result_cache is not None:
            self._result_cache.invalidate_all()

    def _count_cache_lookup(self, kind: str, hit: bool) -> None:
        if self.obs.enabled:
            if hit:
                self.obs.registry.counter(
                    "flix_cache_hits_total",
                    "Query-cache hits, by query kind.",
                ).inc(kind=kind)
            else:
                self.obs.registry.counter(
                    "flix_cache_misses_total",
                    "Query-cache misses, by query kind.",
                ).inc(kind=kind)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsRegistry:
        """The live metrics registry (empty forever when observability is
        off); render it with :meth:`export_metrics` or ``repro.obs.render``.
        """
        return self.obs.registry

    def export_metrics(self, format: str = "json") -> str:
        """Serialize the registry: ``"json"`` or ``"prom"`` (Prometheus
        text exposition format).  An empty/disabled registry renders to an
        empty document in either format."""
        return render(self.obs.registry, format)

    def trace_last_query(self) -> Optional[Trace]:
        """The span tree of the most recently completed query, or ``None``
        (no query yet, or observability off).  ``trace.render()`` gives an
        indented ASCII view; see ``docs/OBSERVABILITY.md`` for reading it.
        """
        return self.obs.tracer.last_trace("pee.query")

    # ------------------------------------------------------------------
    # introspection & tuning
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total storage of all live meta-document indexes + residual
        links: the bytes of the ``*.pack`` files :meth:`save` writes
        (computed from the current layout, so removals and compactions
        are reflected immediately)."""
        metas = self.meta_documents
        total = sum(
            meta.index.size_bytes() for meta in metas if meta.index is not None
        )
        return total + links_pack_bytes(
            sum(meta.residual_out_degree for meta in metas)
        )

    def index_fingerprint(self) -> str:
        """Content hash over every live meta-document index, the tombstone
        set, and the residual links — byte-for-byte identical for builds of
        the same collection and configuration regardless of ``jobs`` (the
        parallel builder's determinism guarantee), and deterministic for a
        given add/remove/compact sequence."""
        import hashlib

        layout = self._layout
        digest = hashlib.sha256()
        for meta_id in sorted(layout.tombstones):
            digest.update(f"tombstone:{meta_id}".encode("utf-8"))
        for meta in layout.live_metas():
            digest.update(str(meta.meta_id).encode("utf-8"))
            digest.update(meta.strategy.encode("utf-8"))
            if meta.index is None:  # build failed past every fallback
                digest.update(b"<unindexed>")
            else:
                digest.update(meta.index.fingerprint().encode("utf-8"))
        links = pack_links(residual_links(layout.slots))
        digest.update(hashlib.sha256(links).hexdigest().encode("utf-8"))
        return digest.hexdigest()

    def meta_document_of(self, node: NodeId) -> MetaDocument:
        layout = self._layout
        return layout.slots[layout.meta_of[node]]

    def tuning_advice(
        self, compaction_threshold: int = 4, **kwargs
    ) -> TuningAdvice:
        """Self-tuning check over the recorded query load (section 7).

        On top of the classic rebuild advice, the returned
        :class:`TuningAdvice` flags *online compaction* when incremental
        growth has accumulated ``compaction_threshold`` or more singleton
        meta documents: :meth:`compact` merges them without the downtime
        of a full rebuild."""
        advice = self.monitor.advice(self.config, **kwargs)
        return with_compaction_advice(
            advice,
            self._layout.compaction_candidates(),
            compaction_threshold,
        )

    def rebuild(
        self,
        config: Optional[FlixConfig] = None,
        jobs: Optional[int] = None,
    ) -> "Flix":
        """Run the build phase again (e.g. following tuning advice).

        The returned instance starts with a cold result cache: cached
        results describe the old meta-document layout and must not survive
        a rebuild.
        """
        return Flix.build(self.collection, config or self.config, jobs=jobs)

    # ------------------------------------------------------------------
    # incremental maintenance (copy-on-write; see docs/MAINTENANCE.md)
    # ------------------------------------------------------------------
    def _build_index(self, strategy: str, graph: Digraph):
        """The packed index of one meta-document graph, for a
        maintenance verb."""
        from repro.indexes.registry import build_index

        tags = {node: self.collection.tag(node) for node in graph.nodes()}
        return build_index(strategy, graph, tags)

    # ------------------------------------------------------------------
    # durability: the write-ahead mutation log (docs/DURABILITY.md)
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`repro.wal.WriteAheadLog` (or ``None``)."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Log every future maintenance verb to ``wal``.

        The record is appended (and, under the default fsync policy,
        durable) *before* the verb's layout swap becomes visible, so
        crash recovery (:func:`repro.wal.recover_flix`) replays exactly
        the acknowledged history.  :meth:`save` then truncates the log:
        a snapshot captures everything logged so far.
        """
        with self._mutation_lock:
            self._wal = wal

    def enable_wal(self, path, fsync: str = "commit", **kwargs):
        """Create (or resume) a write-ahead log at ``path`` and attach it.

        Resuming an existing log trims any torn tail left by a crash —
        call :func:`repro.wal.recover_flix` instead if unreplayed
        records may exist; attaching here without replay would orphan
        them at the next truncation.  Returns the log.
        """
        from repro.wal import WriteAheadLog

        wal = WriteAheadLog(
            path,
            base_generation=self.layout_generation,
            fsync=fsync,
            observability=self.obs if self.obs.enabled else None,
            **kwargs,
        )
        self.attach_wal(wal)
        return wal

    def _wal_append(self, verb: str, payload: dict, generation: int) -> None:
        """Append one verb record ahead of its publish (no-op unlogged)."""
        if self._wal is not None:
            self._wal.append(verb, generation, payload)

    def add_document(self, document) -> "MetaDocument":
        """Add one new document without rebuilding the whole index.

        The new document becomes its own meta document (indexed with the
        strategy the ISS picks for it); its links — and any previously
        dangling links that now resolve to it — become residual links
        followed at run time.  The change is published as one atomic
        layout swap: queries already running finish on the snapshot they
        pinned, and on failure the collection is rolled back to its
        pre-call state.  After many additions the layout drifts from
        optimal; :meth:`tuning_advice` then recommends :meth:`compact`
        or a full rebuild.
        """
        return self._grow([document], verb="add")[0]

    def add_documents(self, documents: Iterable) -> List["MetaDocument"]:
        """Add a batch of documents in one atomic layout swap.

        Far cheaper than N ``add_document`` calls: the layout tables are
        copied once, one evaluator is built, and the shared cache is
        invalidated once.  Links between batch members resolve during
        registration (so they are classified against the whole batch
        before any residual-link wiring).  All-or-nothing: a failure on
        any member rolls the whole batch back.
        """
        documents = list(documents)
        if not documents:
            return []
        return self._grow(documents, verb="add_batch")

    def _grow(self, documents: List, verb: str) -> List["MetaDocument"]:
        """Shared implementation of ``add_document``/``add_documents``.

        Stage-then-commit: every step that can fail (registration, link
        resolution, strategy selection, index builds) runs before the
        first observable index mutation; a failure unwinds the collection
        edits and re-raises.  The commit is a copy-on-write rebuild of
        the layout tables followed by one atomic publish.
        """
        from repro.collection.builder import register_document
        from repro.core.ib import MetaDocumentReport
        from repro.core.iss import IndexingStrategySelector

        import time as _time

        with self._mutation_lock:
            layout = self._layout
            collection = self.collection
            saved_unresolved = list(collection.unresolved_links)
            registered: List[str] = []
            new_link_edges: List[Tuple[NodeId, NodeId]] = []
            new_metas: List[MetaDocument] = []
            new_reports: List[MetaDocumentReport] = []
            # Internal edges: each document's tree edges always; its
            # intra-document link edges only when the configuration allows
            # a graph index (PPO-only must leave them residual).
            allow_graph = any(
                s != "ppo" for s in self.config.allowed_strategies
            )
            internal_all: Set[Tuple[NodeId, NodeId]] = set()
            meta_of = dict(layout.meta_of)
            next_id = layout.next_meta_id
            try:
                # Stage 1: register every document.  Later members'
                # registration retries the accumulated dangling links, so
                # links between batch members resolve here, before any
                # residual classification.
                for document in documents:
                    edges = register_document(collection, document)
                    registered.append(document.name)
                    new_link_edges.extend(edges)

                # Stage 2: per document — internal edges, ISS choice,
                # index build.  Nothing published yet.
                for document in documents:
                    started = _time.perf_counter()
                    nodes = set(collection.document_nodes(document.name))
                    internal = []
                    for u in sorted(nodes):
                        for v in sorted(collection.graph.successors(u)):
                            if v not in nodes:
                                continue
                            if (
                                collection.is_link_edge(u, v)
                                and not allow_graph
                            ):
                                continue
                            internal.append((u, v))
                    internal_all.update(internal)

                    graph = Digraph()
                    for node in nodes:
                        graph.add_node(node)
                    for u, v in internal:
                        graph.add_edge(u, v)
                    choice = IndexingStrategySelector(self.config).choose(
                        graph
                    )
                    index = self._build_index(choice.strategy, graph)
                    meta = MetaDocument(
                        meta_id=next_id + len(new_metas),
                        nodes=frozenset(nodes),
                        index=index,
                        strategy=choice.strategy,
                    )
                    new_metas.append(meta)
                    for node in nodes:
                        meta_of[node] = meta.meta_id
                    new_reports.append(
                        MetaDocumentReport(
                            meta_id=meta.meta_id,
                            node_count=len(nodes),
                            internal_edge_count=len(internal),
                            strategy=choice.strategy,
                            rationale=choice.rationale
                            + " (added incrementally)",
                            index_bytes=index.size_bytes(),
                            build_seconds=_time.perf_counter() - started,
                        )
                    )
            except BaseException:
                # Nothing above touched the published layout; undoing the
                # collection mutations restores the pre-call query-visible
                # state exactly.  (Node ids consumed by the failed
                # registration stay tombstoned — ids are never reused.)
                for name in reversed(registered):
                    collection._unregister_document(name)
                collection.unresolved_links[:] = saved_unresolved
                raise

            # Commit: copy-on-write the layout tables, wire residual
            # links into clones, publish once.
            slots: List[Optional[MetaDocument]] = (
                list(layout.slots) + new_metas
            )
            clones: Dict[int, MetaDocument] = {}

            def writable(meta_id: int) -> MetaDocument:
                # new metas are private until publish; published metas are
                # cloned before their link maps are touched
                if meta_id >= next_id or meta_id in clones:
                    return slots[meta_id]
                clone = slots[meta_id].copy_links()
                clones[meta_id] = clone
                slots[meta_id] = clone
                return clone

            # link lists stay sorted, the order a load rebuilds them in
            added = 0
            touched: Set[int] = {meta.meta_id for meta in new_metas}
            for u, v in new_link_edges:
                if (u, v) in internal_all:
                    continue
                insort(
                    writable(meta_of[u]).outgoing_links.setdefault(u, []), v
                )
                insort(
                    writable(meta_of[v]).incoming_links.setdefault(v, []), u
                )
                added += 1
                touched.add(meta_of[u])
                touched.add(meta_of[v])
            for meta_id in sorted(touched):
                slots[meta_id].finalize_links()

            self.report.meta_documents.extend(new_reports)
            self.report.residual_link_count += added
            self.report.residual_link_bytes = links_pack_bytes(
                self.report.residual_link_count
            )

            new_layout = IndexLayout(
                slots=tuple(slots),
                meta_of=meta_of,
                pee=None,
                generation=layout.generation + 1,
                tombstones=layout.tombstones,
                incremental_meta_ids=layout.incremental_meta_ids
                | {meta.meta_id for meta in new_metas},
            )
            new_layout = new_layout.with_pee(
                self._build_evaluator(
                    new_layout.slots, meta_of, new_layout.generation
                )
            )
            if self.obs.enabled:
                builds = self.obs.registry.counter(
                    "flix_index_builds_total",
                    "Per-meta-document index builds, by chosen strategy.",
                )
                for meta in new_metas:
                    builds.inc(strategy=meta.strategy)
            if self._wal is not None:
                from repro.wal.recovery import document_to_payload

                self._wal_append(
                    verb,
                    {
                        "documents": [
                            document_to_payload(document)
                            for document in documents
                        ]
                    },
                    new_layout.generation,
                )
            self._publish_layout(new_layout, verb=verb)
            return new_metas

    def remove_document(self, name: str) -> Set[NodeId]:
        """Remove one document without rebuilding the whole index.

        The document's nodes are tombstoned (ids never reused); meta
        documents that consisted only of them are tombstoned too, while
        meta documents that also cover other documents are re-indexed
        over their remaining nodes (preserving the original MDB cuts).
        Residual links with an endpoint in the removed document are
        dropped, and links of *other* documents that resolved into it
        dangle again — a later :meth:`add_document` of a replacement can
        re-resolve them.  Published as one atomic layout swap; returns
        the removed node ids.
        """
        from repro.collection.builder import unregister_document

        with self._mutation_lock:
            layout = self._layout
            if name not in self.collection.documents:
                raise KeyError(f"no document named {name!r}")
            removed = set(self.collection.document_nodes(name))

            slots: List[Optional[MetaDocument]] = list(layout.slots)
            tombstones = set(layout.tombstones)
            meta_of = {
                node: meta_id
                for node, meta_id in layout.meta_of.items()
                if node not in removed
            }
            affected = sorted(
                {layout.meta_of[node] for node in removed}
            )
            for meta_id in affected:
                meta = slots[meta_id]
                remaining = meta.nodes - removed
                if not remaining:
                    slots[meta_id] = None
                    tombstones.add(meta_id)
                else:
                    slots[meta_id] = self._rebuild_meta(meta, remaining)
            # only now touch the collection: a failed re-index above (it
            # reads just the surviving nodes) leaves everything in place
            unregister_document(self.collection, name)

            # Prune residual-link map entries whose far endpoint vanished
            # (O(total residual links), clone-on-write per meta).
            for meta_id, meta in enumerate(slots):
                if meta is None:
                    continue
                if not (
                    any(
                        node in removed or any(t in removed for t in targets)
                        for node, targets in meta.outgoing_links.items()
                    )
                    or any(
                        node in removed or any(s in removed for s in sources)
                        for node, sources in meta.incoming_links.items()
                    )
                ):
                    continue
                if meta_id in affected:
                    clone = meta  # already a private rebuild
                else:
                    clone = meta.copy_links()
                    slots[meta_id] = clone
                clone.outgoing_links = {
                    node: kept
                    for node, targets in clone.outgoing_links.items()
                    if node not in removed
                    for kept in [
                        [t for t in targets if t not in removed]
                    ]
                    if kept
                }
                clone.incoming_links = {
                    node: kept
                    for node, sources in clone.incoming_links.items()
                    if node not in removed
                    for kept in [
                        [s for s in sources if s not in removed]
                    ]
                    if kept
                }
                clone.finalize_links()

            self._refresh_report(slots)

            new_layout = IndexLayout(
                slots=tuple(slots),
                meta_of=meta_of,
                pee=None,
                generation=layout.generation + 1,
                tombstones=frozenset(tombstones),
                incremental_meta_ids=layout.incremental_meta_ids
                - tombstones,
            )
            new_layout = new_layout.with_pee(
                self._build_evaluator(
                    new_layout.slots, meta_of, new_layout.generation
                )
            )
            self._wal_append("remove", {"name": name}, new_layout.generation)
            self._publish_layout(new_layout, verb="remove")
            return removed

    def update_document(self, document) -> "MetaDocument":
        """Replace a document in place: remove the old version, add the
        new one, re-resolving links in both directions.

        Two atomic publishes (remove, then add) under one mutation lock:
        a concurrent query sees either the old document or the new one,
        never a half-updated layout — but the intermediate removed state
        *is* observable between the two swaps.  A write-ahead log
        records the same two halves (``remove`` then ``add``), so crash
        recovery mid-update lands on exactly one of the two published
        states (docs/DURABILITY.md).
        """
        with self._mutation_lock:
            self.remove_document(document.name)
            return self.add_document(document)

    def _rebuild_meta(
        self, meta: MetaDocument, remaining: FrozenSet[NodeId]
    ) -> MetaDocument:
        """Re-index a meta document over a node subset (same meta id).

        Preserves the original MDB cut: internal edges are the surviving
        intra-subset edges that were *not* residual in the old meta
        document (an intra-meta residual link must stay residual — under
        PPO it was cut to keep the tree shape).  Residual-link maps carry
        over for surviving nodes; the global prune in
        :meth:`remove_document` then drops entries whose far endpoint was
        removed.
        """
        from repro.core.iss import IndexingStrategySelector

        collection = self.collection
        residual_pairs = {
            (source, target)
            for source, targets in meta.outgoing_links.items()
            for target in targets
        }
        graph = Digraph()
        for node in remaining:
            graph.add_node(node)
        for u in sorted(remaining):
            for v in sorted(collection.graph.successors(u)):
                if v in remaining and (u, v) not in residual_pairs:
                    graph.add_edge(u, v)
        choice = IndexingStrategySelector(self.config).choose(graph)
        index = self._build_index(choice.strategy, graph)
        rebuilt = MetaDocument(
            meta_id=meta.meta_id,
            nodes=frozenset(remaining),
            index=index,
            strategy=choice.strategy,
            outgoing_links={
                source: list(targets)
                for source, targets in meta.outgoing_links.items()
                if source in remaining
            },
            incoming_links={
                target: list(sources)
                for target, sources in meta.incoming_links.items()
                if target in remaining
            },
        )
        if self.obs.enabled:
            self.obs.registry.counter(
                "flix_index_builds_total",
                "Per-meta-document index builds, by chosen strategy.",
            ).inc(strategy=choice.strategy)
        return rebuilt

    def compact(
        self, meta_ids: Optional[Sequence[int]] = None
    ) -> Optional["MetaDocument"]:
        """Merge drifted incremental meta documents into one (section 7).

        Every ``add_document`` creates a singleton meta document; after
        many additions queries cross metas through residual links far
        more than a fresh build would.  Compaction merges the given meta
        ids (default: all live incrementally-added metas, per
        ``layout.compaction_candidates()``) into a single re-selected,
        re-indexed meta document and tombstones the originals — one
        atomic swap, no query downtime, no full rebuild.  Residual links
        that become internal to the merged meta are absorbed into its
        index (strategy permitting).  Returns the new meta document, or
        ``None`` when there are fewer than two candidates.
        """
        from repro.core.ib import MetaDocumentReport
        from repro.core.iss import IndexingStrategySelector

        import time as _time

        with self._mutation_lock:
            layout = self._layout
            if meta_ids is None:
                candidates = list(layout.compaction_candidates())
            else:
                candidates = sorted(set(meta_ids))
                for meta_id in candidates:
                    layout.meta(meta_id)  # raises on tombstoned/unknown
            if len(candidates) < 2:
                return None

            trace = self.obs.tracer.trace(
                "mdb.compact",
                candidates=len(candidates),
                generation=layout.generation,
            )
            started = _time.perf_counter()
            collection = self.collection
            candidate_set = set(candidates)
            merged_nodes: Set[NodeId] = set()
            for meta_id in candidates:
                merged_nodes |= layout.slots[meta_id].nodes

            with trace.span("select"):
                allow_graph = any(
                    s != "ppo" for s in self.config.allowed_strategies
                )
                internal = []
                for u in sorted(merged_nodes):
                    for v in sorted(collection.graph.successors(u)):
                        if v not in merged_nodes:
                            continue
                        if (
                            collection.is_link_edge(u, v)
                            and not allow_graph
                        ):
                            continue
                        internal.append((u, v))
                internal_set = set(internal)
                graph = Digraph()
                for node in merged_nodes:
                    graph.add_node(node)
                for u, v in internal:
                    graph.add_edge(u, v)
                choice = IndexingStrategySelector(self.config).choose(graph)

            with trace.span("index", strategy=choice.strategy):
                index = self._build_index(choice.strategy, graph)

            new_id = layout.next_meta_id
            # Carry over the merged metas' residual links, minus pairs the
            # merged index absorbed as internal edges.
            outgoing: Dict[NodeId, List[NodeId]] = {}
            incoming: Dict[NodeId, List[NodeId]] = {}
            for meta_id in candidates:
                old = layout.slots[meta_id]
                for source, targets in old.outgoing_links.items():
                    kept = [
                        t for t in targets if (source, t) not in internal_set
                    ]
                    if kept:
                        outgoing.setdefault(source, []).extend(kept)
                for target, sources in old.incoming_links.items():
                    kept = [
                        s for s in sources if (s, target) not in internal_set
                    ]
                    if kept:
                        incoming.setdefault(target, []).extend(kept)
            merged = MetaDocument(
                meta_id=new_id,
                nodes=frozenset(merged_nodes),
                index=index,
                strategy=choice.strategy,
                outgoing_links=outgoing,
                incoming_links=incoming,
            )
            merged.finalize_links()

            slots: List[Optional[MetaDocument]] = list(layout.slots)
            tombstones = set(layout.tombstones)
            for meta_id in candidates:
                slots[meta_id] = None
                tombstones.add(meta_id)
            slots.append(merged)
            meta_of = dict(layout.meta_of)
            for node in merged_nodes:
                meta_of[node] = new_id

            self.report.meta_documents.append(
                MetaDocumentReport(
                    meta_id=new_id,
                    node_count=len(merged_nodes),
                    internal_edge_count=len(internal),
                    strategy=choice.strategy,
                    rationale=choice.rationale
                    + " (compacted from metas "
                    + ", ".join(str(m) for m in candidates)
                    + ")",
                    index_bytes=index.size_bytes(),
                    build_seconds=_time.perf_counter() - started,
                )
            )
            self._refresh_report(slots)

            new_layout = IndexLayout(
                slots=tuple(slots),
                meta_of=meta_of,
                pee=None,
                generation=layout.generation + 1,
                tombstones=frozenset(tombstones),
                # the merged meta is a deliberate consolidation, not
                # drift: it is not a future compaction candidate
                incremental_meta_ids=layout.incremental_meta_ids
                - candidate_set,
            )
            new_layout = new_layout.with_pee(
                self._build_evaluator(
                    new_layout.slots, meta_of, new_layout.generation
                )
            )
            if self.obs.enabled:
                self.obs.registry.counter(
                    "flix_compactions_total",
                    "Online compactions of incremental meta documents.",
                ).inc(strategy=choice.strategy)
                self.obs.registry.counter(
                    "flix_index_builds_total",
                    "Per-meta-document index builds, by chosen strategy.",
                ).inc(strategy=choice.strategy)
            self._wal_append(
                "compact", {"meta_ids": candidates}, new_layout.generation
            )
            self._publish_layout(new_layout, verb="compact")
            trace.finish()
            return merged

    def _refresh_report(
        self, slots: Sequence[Optional[MetaDocument]]
    ) -> None:
        """Re-derive the build report's residual-link totals after a
        mutation that dropped or rewired links (remove/compact)."""
        self.report.residual_link_count = sum(
            meta.residual_out_degree
            for meta in slots
            if meta is not None
        )
        self.report.residual_link_bytes = links_pack_bytes(
            self.report.residual_link_count
        )

    def save(self, directory, checkpoint: Optional[bool] = None) -> "Path":
        """Persist the built index to ``directory`` (restart without
        rebuild); see :mod:`repro.core.persistence` for the layout.

        With a write-ahead log attached, saving into the log's own
        deployment directory is a *checkpoint*: the log is truncated
        back to a ``begin`` marker at the saved generation, since
        everything it held is now in that snapshot (docs/DURABILITY.md).
        Saving anywhere else — a backup or secondary copy — leaves the
        log alone: the deployment directory's snapshot still needs
        those records to recover.  ``checkpoint`` overrides the
        directory comparison (``True`` forces truncation, ``False``
        suppresses it).
        """
        from pathlib import Path as _Path

        from repro.core.persistence import save_flix

        with self._mutation_lock:
            manifest_path = save_flix(self, directory)
            if self._wal is not None:
                if checkpoint is None:
                    try:
                        checkpoint = (
                            self._wal.path.parent.resolve()
                            == _Path(directory).resolve()
                        )
                    except OSError:
                        checkpoint = False
                if checkpoint:
                    self._wal.truncate(self.layout_generation)
        return manifest_path

    @classmethod
    def load(
        cls, collection: XmlCollection, directory, verify: bool = True
    ) -> "Flix":
        """Reconstruct a saved index against the unchanged collection.

        ``verify`` checks the manifest's per-file checksums first and
        raises :class:`repro.core.persistence.IntegrityError` on damage
        (see ``repro repair``)."""
        from repro.core.persistence import load_flix

        return load_flix(collection, directory, verify=verify)

    @classmethod
    def repair(cls, collection: XmlCollection, directory) -> List[str]:
        """Rebuild the damaged files of a saved index in place; returns
        the repaired file names (see :func:`repro.core.persistence
        .repair_flix`)."""
        from repro.core.persistence import repair_flix

        return repair_flix(collection, directory)

    def self_check(self, samples: int = 20, seed: int = 0) -> Dict[str, int]:
        """Verify the index against direct graph traversal on a sample.

        For ``samples`` randomly chosen elements, the streamed descendant
        set must equal a BFS over the element graph, every reported
        distance must be an upper bound of the BFS distance, and the stream
        must be duplicate-free.  Returns counters on success; raises
        ``AssertionError`` naming the first discrepancy otherwise.  Useful
        after incremental growth or custom strategy registration.
        """
        import random

        from repro.graph.traversal import bfs_distances

        node_ids = list(self.collection.node_ids())
        if not node_ids:
            return {"samples": 0, "results_checked": 0}
        rng = random.Random(seed)
        checked = 0
        results_checked = 0
        for _ in range(samples):
            start = rng.choice(node_ids)
            truth = bfs_distances(self.collection.graph, start)
            results = list(self.pee.find_descendants(start))
            got = {r.node for r in results}
            expected = set(truth) - {start}
            if got != expected:
                missing = sorted(expected - got)[:3]
                spurious = sorted(got - expected)[:3]
                raise AssertionError(
                    f"self_check failed at node {start}: "
                    f"missing={missing} spurious={spurious}"
                )
            if len(results) != len(got):
                raise AssertionError(
                    f"self_check failed at node {start}: duplicate results"
                )
            for result in results:
                if result.distance < truth[result.node]:
                    raise AssertionError(
                        f"self_check failed at node {start}: distance "
                        f"{result.distance} undershoots true "
                        f"{truth[result.node]} for {result.node}"
                    )
            checked += 1
            results_checked += len(results)
        return {"samples": checked, "results_checked": results_checked}

    def describe(self) -> str:
        """Multi-line human-readable build summary."""
        lines = [self.report.summary()]
        for meta in self.report.meta_documents[:20]:
            lines.append(
                f"  meta {meta.meta_id}: {meta.node_count} nodes, "
                f"{meta.strategy} ({meta.rationale}), {meta.index_bytes} bytes"
            )
        if len(self.report.meta_documents) > 20:
            lines.append(
                f"  ... and {len(self.report.meta_documents) - 20} more meta documents"
            )
        return "\n".join(lines)
