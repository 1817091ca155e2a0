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

Parallel builds
---------------

The per-meta-document builds are mutually independent — the closure/2-hop
computation of one meta document never reads another's — so the builder can
fan them out over a worker pool (``jobs`` > 1).  Three execution modes
exist, chosen by :attr:`repro.core.config.FlixConfig.build_executor`:

* ``process`` — a ``concurrent.futures.ProcessPoolExecutor`` (the default
  for the CPU-bound closure builds).  Tasks, config and the selector are
  shipped via pickle, and each built index comes back as its blob's
  bytes (:class:`repro.indexes.packed.base.PackedIndex` pickles that
  way); worker processes disable the cyclic garbage
  collector (their allocations are overwhelmingly acyclic dict/list
  plumbing and the process exits after the build, so refcounting suffices
  — this alone is worth ~30% on allocation-heavy 2-hop builds).
* ``thread`` — a ``ThreadPoolExecutor``; the automatic fallback whenever
  the hand-off cannot be pickled (custom selectors holding sockets,
  closures, ...) or no process pool can be spawned.
* ``serial`` — the plain loop (``jobs=1``); also what ``auto`` degrades to
  when the OS grants the process a single CPU, where a pool would add
  IPC cost without parallel capacity.

Whatever the mode, results are merged back **in spec order**, so
``meta_of``, the strategy choices, per-meta index contents and the
residual-link wiring are identical to a sequential build; only the timing
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
    for serial builds, ``"process-<pid>"`` / ``"thread-<name>"`` for pool
    workers) so imbalance is visible in build reports.
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
    #: the ISS-selected strategy this meta document *should* have used,
    #: set only when its build failed and the safe fallback strategy was
    #: built instead
    fallback_from: Optional[str] = None
    #: build attempts consumed (1 = first try succeeded)
    attempts: int = 1
    #: the final build error when even the fallback failed (index is then
    #: missing and the PEE serves this meta document via BFS at query time)
    error: Optional[str] = None


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
    #: executor kind actually used: "serial", "thread" or "process"
    executor: str = "serial"
    #: human-readable build failures that were absorbed (retries that
    #: eventually succeeded, strategy fallbacks, chunks rebuilt after a
    #: worker crash, meta documents left without an index)
    failures: List[str] = field(default_factory=list)

    @property
    def fallback_count(self) -> int:
        """Meta documents built with the safe fallback strategy."""
        return sum(1 for m in self.meta_documents if m.fallback_from)

    @property
    def unindexed_count(self) -> int:
        """Meta documents that ended up with no index at all."""
        return sum(1 for m in self.meta_documents if m.error)

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
        trouble = (
            f", {len(self.failures)} absorbed failures" if self.failures else ""
        )
        return (
            f"config={self.config_name}: {len(self.meta_documents)} meta "
            f"documents ({strategies}), {self.residual_link_count} residual "
            f"links, {self.total_index_bytes} bytes, "
            f"{self.total_seconds:.2f}s build{parallel}{trouble}"
        )


# ----------------------------------------------------------------------
# the worker-pool hand-off
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BuildTask:
    """Everything a worker needs to build one meta document.

    Deliberately primitive (ints, strings, tuples) so the same object runs
    unchanged in-process, on a thread, or pickled into a process-pool
    worker.  ``nodes`` keeps the spec set's iteration order, so every
    execution mode reconstructs an identical graph.
    """

    meta_id: int
    nodes: Tuple[NodeId, ...]
    internal_edges: Tuple[Edge, ...]
    tags: Dict[NodeId, str]
    submitted_at: float


@dataclass
class _BuildResult:
    meta_id: int
    choice: StrategyChoice
    index: Optional[PathIndex]
    profile: BuildProfile
    #: the ISS choice that failed when the fallback strategy was built
    fallback_from: Optional[str] = None
    #: build attempts consumed across strategies (1 = clean first try)
    attempts: int = 1
    #: final error message when no index could be built at all
    error: Optional[str] = None
    #: absorbed-failure notes for the merged ``BuildReport.failures``
    notes: Tuple[str, ...] = ()


def _execute_task(
    task: _BuildTask,
    selector: IndexingStrategySelector,
    worker: str,
    resilience=None,
) -> _BuildResult:
    """Build one meta document: graph -> strategy selection -> index.

    ``resilience`` (a :class:`repro.core.config.ResilienceConfig`) turns
    build failures from fatal into absorbed: the selected strategy is
    retried ``build_retry_attempts`` times with fresh builds, then the
    safe ``build_fallback_strategy`` is tried, and if even that fails the
    meta document is returned *without* an index (the PEE answers it with
    its BFS fallback at query time).  Without ``resilience`` the first
    failure propagates, exactly as before.
    """
    started = time.perf_counter()
    profile = BuildProfile(
        queue_wait_seconds=max(0.0, started - task.submitted_at),
        worker=worker,
    )
    spec = MetaDocumentSpec(
        task.meta_id, set(task.nodes), list(task.internal_edges)
    )
    graph = spec.build_graph()
    checkpoint = time.perf_counter()
    profile.graph_seconds = checkpoint - started
    choice = selector.choose(graph)
    now = time.perf_counter()
    profile.selection_seconds = now - checkpoint
    checkpoint = now

    notes: List[str] = []
    attempts = 0
    index: Optional[PathIndex] = None
    fallback_from: Optional[str] = None
    error: Optional[str] = None
    tries = 1 + (resilience.build_retry_attempts if resilience else 0)
    for _ in range(tries):
        attempts += 1
        try:
            index = build_index(choice.strategy, graph, task.tags)
            break
        except Exception as exc:
            if resilience is None:
                raise
            error = f"{type(exc).__name__}: {exc}"
            notes.append(
                f"meta {task.meta_id}: {choice.strategy} build attempt "
                f"{attempts} failed ({error})"
            )
    if index is None and resilience is not None:
        fallback = resilience.build_fallback_strategy
        if fallback and fallback != choice.strategy:
            attempts += 1
            try:
                index = build_index(fallback, graph, task.tags)
                fallback_from = choice.strategy
                error = None
                notes.append(
                    f"meta {task.meta_id}: fell back to {fallback} "
                    f"after {choice.strategy} failed"
                )
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                notes.append(
                    f"meta {task.meta_id}: fallback {fallback} failed "
                    f"too ({error}); left unindexed for query-time BFS"
                )
        else:
            notes.append(
                f"meta {task.meta_id}: left unindexed for query-time BFS"
            )
    profile.index_seconds = time.perf_counter() - checkpoint
    return _BuildResult(
        task.meta_id,
        choice,
        index,
        profile,
        fallback_from=fallback_from,
        attempts=attempts,
        error=error if index is None else None,
        notes=tuple(notes),
    )


#: per-process state installed by the pool initializer:
#: (selector, resilience)
_WORKER_STATE: Optional[Tuple[IndexingStrategySelector, object]] = None

#: the shared build pool: ``(key, ProcessPoolExecutor)`` — forked workers
#: are kept warm between builds so repeated builds (benchmark repeats,
#: maintenance verbs, rebuilds) pay pool startup once, not per build
_POOL_CACHE: Optional[Tuple[tuple, object]] = None
_POOL_ATEXIT_REGISTERED = False


def _shared_process_pool(payload: bytes, workers: int, context):
    """A warm ``ProcessPoolExecutor`` for this (payload, workers) hand-off.

    Worker startup — fork, initializer pickle, gc tuning — used to be paid
    on every build, which on small corpora rivals the build itself.
    Builds with an identical hand-off reuse
    the same forked workers; a different selector/resilience or
    worker count retires the old pool and forks a fresh one.
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


def _run_chunk_in_process(chunk: List[_BuildTask]) -> List[_BuildResult]:
    import gc

    selector, resilience = _WORKER_STATE
    worker = f"process-{os.getpid()}"
    results = [
        _execute_task(task, selector, worker, resilience=resilience)
        for task in chunk
    ]
    gc.collect()
    return results


class IndexBuilder:
    """Materializes meta documents from MDB specs."""

    def __init__(
        self,
        collection: XmlCollection,
        config: FlixConfig,
        selector: Optional[IndexingStrategySelector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._collection = collection
        self._config = config
        self._selector = selector or IndexingStrategySelector(config)
        self._resilience = getattr(config, "resilience", None)
        self._obs = obs if obs is not None else OBS_OFF

    def build(
        self,
        specs: List[MetaDocumentSpec],
        jobs: Optional[int] = None,
    ) -> Tuple[List[MetaDocument], Dict[NodeId, int], BuildReport]:
        """Build all meta documents; ``jobs`` overrides ``config.jobs``.

        Whatever the worker count, the merged output is identical to a
        sequential build (see the module docstring's determinism notes).
        """
        started = time.perf_counter()
        build_trace = (
            self._obs.tracer.trace("ib.build", specs=len(specs))
            if self._obs.enabled
            else None
        )
        collection = self._collection
        self._check_disjoint_cover(specs)

        effective_jobs = self._config.jobs if jobs is None else jobs
        if effective_jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {effective_jobs}")

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

        tasks = [
            _BuildTask(
                meta_id=spec.meta_id,
                nodes=tuple(spec.nodes),
                internal_edges=tuple(spec.internal_edges),
                tags={node: collection.tag(node) for node in spec.nodes},
                submitted_at=time.perf_counter(),
            )
            for spec in specs
        ]

        executor_kind = self._resolve_executor(effective_jobs, len(tasks))
        results, executor_kind = self._dispatch(
            tasks, effective_jobs, executor_kind
        )

        report = BuildReport(
            config_name=self._config.name,
            jobs=effective_jobs,
            executor=executor_kind,
        )
        meta_documents: List[MetaDocument] = []
        for spec, result in zip(specs, results):
            if result.meta_id != spec.meta_id:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"worker results out of order: expected meta "
                    f"{spec.meta_id}, got {result.meta_id}"
                )
            index = result.index
            built_strategy = (
                index.strategy_name
                if index is not None
                else result.choice.strategy
            )
            meta = MetaDocument(
                meta_id=spec.meta_id,
                nodes=frozenset(spec.nodes),
                index=index,
                strategy=built_strategy,
            )
            meta_documents.append(meta)
            report.meta_documents.append(
                MetaDocumentReport(
                    meta_id=spec.meta_id,
                    node_count=len(spec.nodes),
                    internal_edge_count=len(spec.internal_edges),
                    strategy=built_strategy,
                    rationale=result.choice.rationale,
                    index_bytes=index.size_bytes() if index is not None else 0,
                    build_seconds=result.profile.busy_seconds,
                    profile=result.profile,
                    fallback_from=result.fallback_from,
                    attempts=result.attempts,
                    error=result.error,
                )
            )
            report.failures.extend(result.notes)

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

    # ------------------------------------------------------------------
    # executor selection and dispatch
    # ------------------------------------------------------------------
    def _resolve_executor(self, jobs: int, task_count: int) -> str:
        """Pick the executor kind for this build.

        ``process`` needs the whole hand-off — config and selector — to
        round-trip through pickle; anything unpicklable (a closure-based
        selector) degrades to ``thread``, which shares the objects directly.

        ``auto`` also respects the CPU allowance: when the OS grants this
        process a single CPU (cgroup limits, taskset), a worker pool adds
        pickle/IPC cost with zero parallel capacity, so the build stays
        serial.  An explicit ``process``/``thread`` request is always
        honored — that is what the determinism tests pin.
        """
        requested = getattr(self._config, "build_executor", "auto")
        if jobs <= 1 or task_count <= 1 or requested == "serial":
            return "serial"
        if requested == "thread":
            return "thread"
        if requested == "auto" and _available_cpus() <= 1:
            return "serial"
        try:
            pickle.dumps((self._config, self._selector))
        except Exception:
            return "thread"
        return "process"

    def _dispatch(
        self,
        tasks: List[_BuildTask],
        jobs: int,
        executor_kind: str,
    ) -> Tuple[List[_BuildResult], str]:
        """Run all tasks, returning results in task order.

        Falls back process -> thread -> serial on pool failures so a build
        never dies just because the environment cannot fork.
        """
        if executor_kind == "process":
            try:
                return self._run_process_pool(tasks, jobs), "process"
            except Exception:
                executor_kind = "thread"
        if executor_kind == "thread":
            try:
                return self._run_thread_pool(tasks, jobs), "thread"
            except Exception:
                executor_kind = "serial"
        return self._run_serial(tasks), "serial"

    def _run_serial(self, tasks: List[_BuildTask]) -> List[_BuildResult]:
        results = []
        for task in tasks:
            stamped = _restamp(task)
            results.append(
                _execute_task(
                    stamped, self._selector, "main",
                    resilience=self._resilience,
                )
            )
        return results

    def _run_thread_pool(
        self, tasks: List[_BuildTask], jobs: int
    ) -> List[_BuildResult]:
        from concurrent.futures import ThreadPoolExecutor
        import threading

        selector = self._selector
        resilience = self._resilience

        def run_one(task: _BuildTask) -> _BuildResult:
            worker = f"thread-{threading.current_thread().name}"
            return _execute_task(task, selector, worker, resilience=resilience)

        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="flix-ib"
        ) as pool:
            futures = [pool.submit(run_one, _restamp(task)) for task in tasks]
            return [future.result() for future in futures]

    def _run_process_pool(
        self, tasks: List[_BuildTask], jobs: int
    ) -> List[_BuildResult]:
        import multiprocessing

        # fork shares the parent's imported modules for free; fall back to
        # the platform default (spawn on macOS/Windows) where unavailable.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        payload = pickle.dumps((self._selector, self._resilience))
        # More workers than granted CPUs only oversubscribes the scheduler;
        # chunking follows the worker count that will actually run.
        workers = max(1, min(jobs, _available_cpus()))
        chunks = _chunk_tasks(tasks, workers)
        # The pool outlives this build (worker startup amortized across
        # builds); it is retired on hand-off change, breakage, or atexit.
        pool = _shared_process_pool(payload, workers, context)
        futures = [
            pool.submit(_run_chunk_in_process, [_restamp(t) for t in chunk])
            for chunk in chunks
        ]
        results: List[_BuildResult] = []
        broken = False
        for chunk, future in zip(chunks, futures):
            try:
                results.extend(future.result())
            except Exception as exc:
                broken = True
                if self._resilience is None:
                    shutdown_build_pool(wait=False)
                    raise
                # A crashed worker (OOM-killed, segfaulted C extension,
                # broken pool) takes its whole chunk down; rebuild that
                # chunk in the parent process instead of failing the
                # build.  A BrokenProcessPool poisons the remaining
                # futures too — each lands here and is rebuilt in turn.
                rebuilt = self._run_serial(chunk)
                for result in rebuilt:
                    result.notes = result.notes + (
                        f"meta {result.meta_id}: rebuilt in-parent after "
                        f"worker chunk failure "
                        f"({type(exc).__name__}: {exc})",
                    )
                results.extend(rebuilt)
        if broken:
            # don't hand a possibly-poisoned pool to the next build
            shutdown_build_pool(wait=False)
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


def _restamp(task: _BuildTask) -> _BuildTask:
    """Refresh ``submitted_at`` to the actual dispatch moment."""
    from dataclasses import replace

    return replace(task, submitted_at=time.perf_counter())


def _chunk_tasks(
    tasks: Sequence[_BuildTask], jobs: int
) -> List[List[_BuildTask]]:
    """Contiguous, order-preserving chunks sized for pool throughput.

    Four chunks per worker balances IPC overhead against load skew: one
    oversized meta document stalls at most a quarter of a worker's share.
    """
    chunk_size = max(1, -(-len(tasks) // (jobs * 4)))
    return [
        list(tasks[i : i + chunk_size])
        for i in range(0, len(tasks), chunk_size)
    ]
