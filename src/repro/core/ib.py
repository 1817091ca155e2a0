"""The Index Builder (IB), section 4.2.

Builds one index per meta document with the ISS-selected strategy, and
maintains, for each meta document ``M_i``, the residual-link bookkeeping:
the set ``L_i`` of elements with outgoing links not reflected in any index,
the per-link target lists, and the mirrored incoming side used for ancestor
queries.  The meta documents' link maps are the links' only in-memory copy;
their stored form is the ``links.pack`` blob (:mod:`repro.core.links`),
which FliX's total storage (Table 1) counts.  Every index comes out of
:func:`repro.indexes.registry.build_index` already packed, so the report's
``index_bytes`` are blob bytes.

One per-meta build, serial or the process pool
----------------------------------------------

:func:`build_meta_document` is the one per-meta-document build: spec,
element tags and selector in; the ISS choice, the packed index and the
phase timings out.  Every path that indexes a meta document runs it — the
whole-collection build here, and through :meth:`IndexBuilder.build_meta`
the maintenance verbs of :class:`repro.core.framework.Flix` (growth by
``add_document(s)``, the re-index inside ``remove_document``, and
``compact``).

The per-meta builds are mutually independent — the closure/2-hop
computation of one meta document never reads another's — so
:meth:`IndexBuilder.build` runs them on a warm ``ProcessPoolExecutor``
when all three of these hold: ``jobs`` > 1, more than one spec, and more
than one CPU granted to the process (:func:`_available_cpus`).  Otherwise
it builds serially in the calling process.  No setting chooses the
executor; the report's ``executor`` says which one ran (``"serial"`` or
``"process"``).  Specs, tags and the selector travel by pickle, and each
built index comes back as its blob's bytes
(:class:`repro.indexes.packed.base.PackedIndex` pickles that way); worker
processes disable the cyclic garbage collector (their allocations are
overwhelmingly acyclic dict/list plumbing, so refcounting suffices — worth
~30% on allocation-heavy 2-hop builds).

A task that raises retires the pool and its exception propagates at once:
nothing is rerun.  Only a pool that cannot start — an ``OSError`` from
creating it or from submitting to it, or a warm pool found broken at
submission — falls back to the serial loop.

Build seconds on DBLP-3105 (2-CPU container, median of 5 rounds, the same
``index_fingerprint()`` from every build), measured when a thread pool was
still a third executor; it was slower than serial every time and is gone:

=========================  ======  ==================  ===================
configuration              serial  threads, jobs=2     processes, jobs=2
=========================  ======  ==================  ===================
``maximal_ppo``            0.728   0.821               1.196
``hybrid``                 1.507   1.710               2.224
``unconnected_hopi(500)``  1.440   1.852               1.473
=========================  ======  ==================  ===================

Whatever runs them, results are merged back **in spec order**, so
``meta_of``, the strategy choices, per-meta index contents and the
residual-link wiring are identical to a serial build; only the timing
fields of the :class:`BuildReport` differ.  Per-meta phase timings (queue
wait, graph build, strategy selection, index build) are recorded in a
:class:`BuildProfile` on every :class:`MetaDocumentReport` so speedups are
measurable rather than asserted.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.collection.collection import NodeId, XmlCollection
from repro.core.config import FlixConfig
from repro.core.iss import IndexingStrategySelector, StrategyChoice
from repro.core.meta_document import Edge, MetaDocument, MetaDocumentSpec
from repro.core.links import links_pack_bytes, wire_links
from repro.indexes.base import PathIndex
from repro.indexes.registry import build_index
from repro.obs import OBS_OFF, Observability


@dataclass
class BuildProfile:
    """Per-meta-document phase timings (seconds, wall clock).

    ``queue_wait_seconds`` is the time between task submission and a worker
    picking it up — the pool's scheduling latency; the remaining phases are
    the work itself.  ``worker`` names the executing context (``"main"``
    for serial builds, ``"process-<pid>"`` for pool workers) so imbalance
    is visible in build reports.
    """

    queue_wait_seconds: float = 0.0
    graph_seconds: float = 0.0
    selection_seconds: float = 0.0
    index_seconds: float = 0.0
    worker: str = "main"

    @property
    def busy_seconds(self) -> float:
        """Time spent actually building (excludes queue wait)."""
        return self.graph_seconds + self.selection_seconds + self.index_seconds


@dataclass
class MetaDocumentReport:
    """Per-meta-document build outcome (for reports and benchmarks)."""

    meta_id: int
    node_count: int
    internal_edge_count: int
    strategy: str
    rationale: str
    index_bytes: int
    build_seconds: float
    profile: BuildProfile = field(default_factory=BuildProfile)

    @classmethod
    def of(
        cls, spec: MetaDocumentSpec, built: "MetaBuild", note: str = ""
    ) -> "MetaDocumentReport":
        """The row for ``spec`` built as ``built``; ``note`` extends the
        ISS rationale (how a maintenance verb came to build it)."""
        return cls(
            meta_id=spec.meta_id,
            node_count=len(spec.nodes),
            internal_edge_count=len(spec.internal_edges),
            strategy=built.choice.strategy,
            rationale=built.choice.rationale + note,
            index_bytes=built.index.size_bytes(),
            build_seconds=built.profile.busy_seconds,
            profile=built.profile,
        )


@dataclass
class BuildReport:
    """What the build phase produced, and what it cost."""

    config_name: str
    meta_documents: List[MetaDocumentReport] = field(default_factory=list)
    residual_link_count: int = 0
    residual_link_bytes: int = 0
    total_seconds: float = 0.0
    #: worker count the build ran with (1 = sequential)
    jobs: int = 1
    #: executor that ran the per-meta builds: "serial" or "process"
    executor: str = "serial"

    @property
    def total_index_bytes(self) -> int:
        return (
            sum(m.index_bytes for m in self.meta_documents)
            + self.residual_link_bytes
        )

    def strategy_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for meta in self.meta_documents:
            histogram[meta.strategy] = histogram.get(meta.strategy, 0) + 1
        return histogram

    def phase_totals(self) -> Dict[str, float]:
        """Summed per-phase seconds across all meta documents.

        With ``jobs`` > 1 the phases overlap in wall-clock time, so the sum
        exceeds ``total_seconds`` — the ratio is the achieved parallelism.
        """
        totals = {
            "queue_wait": 0.0,
            "graph": 0.0,
            "selection": 0.0,
            "index": 0.0,
        }
        for meta in self.meta_documents:
            totals["queue_wait"] += meta.profile.queue_wait_seconds
            totals["graph"] += meta.profile.graph_seconds
            totals["selection"] += meta.profile.selection_seconds
            totals["index"] += meta.profile.index_seconds
        return totals

    def summary(self) -> str:
        strategies = ", ".join(
            f"{count}x {name}" for name, count in sorted(self.strategy_histogram().items())
        )
        parallel = (
            f", {self.jobs} jobs ({self.executor})" if self.jobs > 1 else ""
        )
        return (
            f"config={self.config_name}: {len(self.meta_documents)} meta "
            f"documents ({strategies}), {self.residual_link_count} residual "
            f"links, {self.total_index_bytes} bytes, "
            f"{self.total_seconds:.2f}s build{parallel}"
        )


# ----------------------------------------------------------------------
# the one per-meta-document build
# ----------------------------------------------------------------------
@dataclass
class MetaBuild:
    """One meta document's build: the ISS choice, the packed index, and
    what each phase cost."""

    choice: StrategyChoice
    index: PathIndex
    profile: BuildProfile


def build_meta_document(
    spec: MetaDocumentSpec,
    tags: Dict[NodeId, str],
    selector: IndexingStrategySelector,
    worker: str = "main",
    submitted_at: Optional[float] = None,
) -> MetaBuild:
    """Build one meta document: graph -> strategy selection -> index.

    ``tags`` maps every node of the spec to its element name;
    ``submitted_at`` is the ``perf_counter`` reading at which a pool
    queued the task (its profile's queue wait), ``None`` for a build
    run where it was asked for.  A strategy build that raises is a bug;
    its exception propagates.
    """
    started = time.perf_counter()
    profile = BuildProfile(
        queue_wait_seconds=(
            0.0 if submitted_at is None else max(0.0, started - submitted_at)
        ),
        worker=worker,
    )
    graph = spec.build_graph()
    checkpoint = time.perf_counter()
    profile.graph_seconds = checkpoint - started
    choice = selector.choose(graph)
    now = time.perf_counter()
    profile.selection_seconds = now - checkpoint
    index = build_index(choice.strategy, graph, tags)
    profile.index_seconds = time.perf_counter() - now
    return MetaBuild(choice, index, profile)


# ----------------------------------------------------------------------
# the process pool
# ----------------------------------------------------------------------
#: one task of a pool chunk: the spec and its element tags
_Task = Tuple[MetaDocumentSpec, Dict[NodeId, str]]

#: per-process state installed by the pool initializer: the selector
_WORKER_STATE: Optional[IndexingStrategySelector] = None

#: the shared build pool: ``(key, ProcessPoolExecutor)`` — forked workers
#: are kept warm between builds so repeated builds (benchmark repeats,
#: rebuilds) pay pool startup once, not per build
_POOL_CACHE: Optional[Tuple[tuple, object]] = None
_POOL_ATEXIT_REGISTERED = False


def _shared_process_pool(payload: bytes, workers: int, context):
    """A warm ``ProcessPoolExecutor`` for this (payload, workers) hand-off.

    Worker startup — fork, initializer pickle, gc tuning — used to be paid
    on every build, which on small corpora rivals the build itself.
    Builds with an identical hand-off reuse the same forked workers; a
    different selector or worker count retires the old pool and forks a
    fresh one.
    """
    global _POOL_CACHE, _POOL_ATEXIT_REGISTERED
    from concurrent.futures import ProcessPoolExecutor

    key = (payload, workers, context.get_start_method())
    if _POOL_CACHE is not None and _POOL_CACHE[0] == key:
        return _POOL_CACHE[1]
    shutdown_build_pool(wait=False)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_process_worker,
        initargs=(payload,),
    )
    _POOL_CACHE = (key, pool)
    if not _POOL_ATEXIT_REGISTERED:
        import atexit

        atexit.register(shutdown_build_pool)
        _POOL_ATEXIT_REGISTERED = True
    return pool


def shutdown_build_pool(wait: bool = True) -> None:
    """Retire the warm build pool (tests, atexit, broken-pool recovery)."""
    global _POOL_CACHE
    if _POOL_CACHE is not None:
        _, pool = _POOL_CACHE
        _POOL_CACHE = None
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown races are benign
            pass


def _init_process_worker(payload: bytes) -> None:
    global _WORKER_STATE
    import gc

    # Build allocations (adjacency dicts, label lists, columns) are
    # acyclic: plain refcounting reclaims them, and skipping the cyclic
    # collector's generation scans is a measurable win on 2-hop builds.
    # Workers now survive between builds (warm pool), so each chunk ends
    # with one manual collect to sweep any stray cycles.
    gc.disable()
    _WORKER_STATE = pickle.loads(payload)


def _run_chunk_in_process(
    chunk: List[_Task], submitted_at: float
) -> List[MetaBuild]:
    import gc

    worker = f"process-{os.getpid()}"
    results = [
        build_meta_document(spec, tags, _WORKER_STATE, worker, submitted_at)
        for spec, tags in chunk
    ]
    gc.collect()
    return results


class IndexBuilder:
    """Materializes meta documents from MDB specs."""

    def __init__(
        self,
        collection: XmlCollection,
        config: FlixConfig,
        obs: Optional[Observability] = None,
    ) -> None:
        self._collection = collection
        self._config = config
        self._selector = IndexingStrategySelector(config)
        self._obs = obs if obs is not None else OBS_OFF

    def build_meta(self, spec: MetaDocumentSpec) -> MetaBuild:
        """One meta document, built in this process: the maintenance
        verbs' way to an index."""
        return build_meta_document(spec, self._tags(spec), self._selector)

    def build(
        self,
        specs: List[MetaDocumentSpec],
        jobs: int = 1,
    ) -> Tuple[List[MetaDocument], Dict[NodeId, int], BuildReport]:
        """Build all meta documents, on the process pool when ``jobs`` > 1,
        there is more than one spec and more than one CPU, else serially.

        Whatever runs them, the merged output is identical to a serial
        build (see the module docstring's determinism notes).
        """
        started = time.perf_counter()
        build_trace = (
            self._obs.tracer.trace("ib.build", specs=len(specs))
            if self._obs.enabled
            else None
        )
        collection = self._collection
        self._check_disjoint_cover(specs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")

        meta_of: Dict[NodeId, int] = {}
        for spec in specs:
            for node in spec.nodes:
                meta_of[node] = spec.meta_id

        internal: Set[Edge] = set()
        for spec in specs:
            internal.update(spec.internal_edges)
        residual: List[Edge] = sorted(
            edge for edge in collection.graph.edges() if edge not in internal
        )

        tasks = [(spec, self._tags(spec)) for spec in specs]
        results = None
        if jobs > 1 and len(tasks) > 1 and _available_cpus() > 1:
            results = self._run_process_pool(tasks, jobs)
        executor = "process"
        if results is None:
            executor = "serial"
            results = [
                build_meta_document(spec, tags, self._selector)
                for spec, tags in tasks
            ]

        report = BuildReport(
            config_name=self._config.name, jobs=jobs, executor=executor
        )
        meta_documents: List[MetaDocument] = []
        for spec, built in zip(specs, results):
            meta_documents.append(
                MetaDocument(
                    meta_id=spec.meta_id,
                    nodes=frozenset(spec.nodes),
                    index=built.index,
                    strategy=built.choice.strategy,
                )
            )
            report.meta_documents.append(MetaDocumentReport.of(spec, built))

        wire_links(meta_documents, meta_of, residual)
        for meta in meta_documents:
            meta.finalize_links()
        report.residual_link_count = len(residual)
        report.residual_link_bytes = links_pack_bytes(len(residual))
        report.total_seconds = time.perf_counter() - started
        if build_trace is not None:
            build_trace.root.meta.update(
                executor=report.executor, jobs=report.jobs
            )
            build_trace.finish()
            self._publish_build(report)
        return meta_documents, meta_of, report

    def _publish_build(self, report: BuildReport) -> None:
        """Fold one build's merged profiles into the metrics registry.

        Runs in the main process after the merge, so the numbers cover
        every meta document regardless of which executor built it.
        """
        reg = self._obs.registry
        phases = reg.histogram(
            "flix_build_phase_seconds",
            "Per-meta-document build phase durations, by phase.",
        )
        builds = reg.counter(
            "flix_index_builds_total",
            "Per-meta-document index builds, by chosen strategy.",
        )
        for meta in report.meta_documents:
            profile = meta.profile
            phases.observe(profile.queue_wait_seconds, phase="queue_wait")
            phases.observe(profile.graph_seconds, phase="graph")
            phases.observe(profile.selection_seconds, phase="selection")
            phases.observe(profile.index_seconds, phase="index")
            builds.inc(strategy=meta.strategy)
        reg.counter(
            "flix_builds_total", "Whole-collection builds, by executor kind."
        ).inc(executor=report.executor)
        reg.gauge(
            "flix_residual_links",
            "Residual links of the most recent build.",
        ).set(report.residual_link_count)
        reg.gauge(
            "flix_index_bytes",
            "Total index + residual-link bytes of the most recent build.",
        ).set(report.total_index_bytes)

    def _tags(self, spec: MetaDocumentSpec) -> Dict[NodeId, str]:
        tag = self._collection.tag
        return {node: tag(node) for node in spec.nodes}

    def _run_process_pool(
        self, tasks: List[_Task], jobs: int
    ) -> Optional[List[MetaBuild]]:
        """Run all tasks on the warm pool, returning results in task
        order, or ``None`` when the pool cannot start (nothing ran)."""
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool

        # fork shares the parent's imported modules for free; fall back to
        # the platform default (spawn on macOS/Windows) where unavailable.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        payload = pickle.dumps(self._selector)
        # More workers than granted CPUs only oversubscribes the scheduler;
        # chunking follows the worker count that will actually run.
        workers = min(jobs, _available_cpus())
        chunks = _chunk_tasks(tasks, workers)
        # The pool outlives this build (worker startup amortized across
        # builds); it is retired on hand-off change, failure, or atexit.
        try:
            pool = _shared_process_pool(payload, workers, context)
            futures = [
                pool.submit(_run_chunk_in_process, chunk, time.perf_counter())
                for chunk in chunks
            ]
        except (OSError, BrokenProcessPool):
            # no worker could start (fork refused, or a warm pool died
            # since the last build): retire it, the caller builds serially
            shutdown_build_pool(wait=False)
            return None
        results: List[MetaBuild] = []
        try:
            for future in futures:
                results.extend(future.result())
        except BaseException:
            # a task raised: propagate at once, and don't hand a possibly
            # poisoned pool to the next build
            shutdown_build_pool(wait=False)
            raise
        return results

    def _check_disjoint_cover(self, specs: List[MetaDocumentSpec]) -> None:
        """Meta documents must form a disjoint cover of the collection."""
        seen: Set[NodeId] = set()
        for position, spec in enumerate(specs):
            if spec.meta_id != position:
                raise ValueError(
                    f"spec at position {position} carries meta_id {spec.meta_id}; "
                    "meta ids must be dense and ordered"
                )
            overlap = spec.nodes & seen
            if overlap:
                raise ValueError(
                    f"meta document {spec.meta_id} overlaps earlier ones "
                    f"on {len(overlap)} nodes"
                )
            seen.update(spec.nodes)
        expected = set(self._collection.node_ids())
        if seen != expected:
            missing = len(expected - seen)
            raise ValueError(f"meta documents miss {missing} collection nodes")


def _available_cpus() -> int:
    """CPUs the OS actually grants this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _chunk_tasks(tasks: Sequence[_Task], jobs: int) -> List[List[_Task]]:
    """Contiguous, order-preserving chunks sized for pool throughput.

    Four chunks per worker balances IPC overhead against load skew: one
    oversized meta document stalls at most a quarter of a worker's share.
    """
    chunk_size = max(1, -(-len(tasks) // (jobs * 4)))
    return [
        list(tasks[i : i + chunk_size])
        for i in range(0, len(tasks), chunk_size)
    ]
