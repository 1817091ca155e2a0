"""Self-tuning (section 7, future work — implemented here).

"If it turns out in the query evaluation engine that most queries have to
follow many links, then the choice of meta documents is no longer optimal
for the current query load.  In this case, the build phase should start
again, taking statistics on the query load into account."

:class:`QueryLoadMonitor` aggregates the :class:`~repro.core.pee.QueryStats`
of executed queries; :meth:`QueryLoadMonitor.advice` decides whether a
rebuild is warranted and recommends the next configuration.

The workload-driven retuning loop (APEX-style; ``docs/PLANNING.md``)
closes over the same window: :meth:`QueryLoadMonitor.profile` condenses
it into a :class:`WorkloadProfile` that ``Flix.build(workload=...)`` /
``Flix.rebuild(workload=...)`` feed into the Indexing Strategy Selector.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.config import FlixConfig
from repro.core.pee import QueryStats


@dataclass(frozen=True)
class TuningAdvice:
    """Outcome of a self-tuning evaluation.

    ``should_compact`` flags *online compaction* (``Flix.compact``) as a
    cheaper remedy than a rebuild: incremental growth has piled up enough
    singleton meta documents (``compaction_candidates``) that merging
    them in place would cut residual-link traffic without rebuild
    downtime.  Both flags can be set at once; compaction is the cheaper
    step, a rebuild the thorough one.
    """

    should_rebuild: bool
    reason: str
    recommended_config: Optional[FlixConfig] = None
    should_compact: bool = False
    compaction_candidates: Tuple[int, ...] = ()


def with_compaction_advice(
    advice: TuningAdvice,
    candidates: Sequence[int],
    threshold: int,
) -> TuningAdvice:
    """Layer compaction advice over a load-based :class:`TuningAdvice`.

    Compaction is recommended when at least ``threshold`` live
    incrementally-added meta documents exist (each ``add_document``
    creates one; they fragment the layout the paper's build phase chose).
    Load statistics are deliberately not required: the drift is
    structural and visible without traffic.
    """
    candidates = tuple(candidates)
    if threshold < 2:
        raise ValueError("compaction threshold must be at least 2")
    if len(candidates) < threshold:
        return advice
    reason = (
        f"{advice.reason}; {len(candidates)} incrementally-added meta "
        f"documents have accumulated (threshold {threshold}) — "
        "Flix.compact() would merge them without a rebuild"
    )
    return replace(
        advice,
        reason=reason,
        should_compact=True,
        compaction_candidates=candidates,
    )


@dataclass(frozen=True)
class WorkloadProfile:
    """A condensed view of the recorded query load, ready to feed back
    into the build phase (``Flix.build(workload=...)``).

    ``duplicate_ratio`` is the fraction of priority-queue pops that were
    dropped as already covered (§5.1 duplicate elimination, by index
    probes or by the loop's frontier).  ``descendants_heavy`` is true
    when the load is dominated by long-range reachability (many queue
    pops and link traversals per query), the regime HOPI-style
    distance-aware indexes are built for.
    """

    query_count: int = 0
    duplicate_ratio: float = 0.0
    mean_queue_pops: float = 0.0
    mean_link_traversals: float = 0.0
    descendants_heavy: bool = False

    def bias(self, config: FlixConfig) -> FlixConfig:
        """``config`` adjusted toward this workload (APEX-style).

        A long-path-heavy load flips ``expect_long_paths`` (biasing the
        ISS toward HOPI over PPO for deep structures) and doubles the
        HOPI pair budget so the selector can afford the closure where the
        load says it pays.  A light or unobserved load returns ``config``
        unchanged — the bias never fires on cold instances.
        """
        if self.query_count == 0 or not self.descendants_heavy:
            return config
        changes = {}
        if not config.expect_long_paths:
            changes["expect_long_paths"] = True
        changes["hopi_pairs_per_node_budget"] = (
            config.hopi_pairs_per_node_budget * 2
        )
        return replace(config, **changes)


class QueryLoadMonitor:
    """Sliding-window statistics over executed queries."""

    def __init__(self, window: int = 1000) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self._window = window
        self._stats: List[QueryStats] = []
        # serving workers record concurrently (repro.serve); the window
        # trim is a read-modify-write that must not interleave
        self._lock = threading.Lock()

    def record(self, stats: QueryStats) -> None:
        # A truncated row with zero counters never touched the index: it
        # was refused before evaluation (queue-expired admission in
        # repro.serve builds such rows).  Recording it would dilute every
        # mean the workload profile and the tuning advice feed on, so it is
        # skipped; genuinely truncated evaluations (budget ran out
        # mid-search) carry nonzero counters and are recorded normally.
        if (
            not stats.is_complete
            and stats.queue_pops == 0
            and stats.meta_document_visits == 0
            and stats.results_returned == 0
        ):
            return
        with self._lock:
            self._stats.append(stats)
            if len(self._stats) > self._window:
                del self._stats[: len(self._stats) - self._window]

    @property
    def query_count(self) -> int:
        with self._lock:
            return len(self._stats)

    @property
    def mean_link_traversals(self) -> float:
        with self._lock:
            if not self._stats:
                return 0.0
            return sum(s.link_traversals for s in self._stats) / len(self._stats)

    @property
    def mean_meta_document_visits(self) -> float:
        with self._lock:
            if not self._stats:
                return 0.0
            return sum(s.meta_document_visits for s in self._stats) / len(
                self._stats
            )

    @property
    def mean_results(self) -> float:
        with self._lock:
            if not self._stats:
                return 0.0
            return sum(s.results_returned for s in self._stats) / len(self._stats)

    @property
    def mean_queue_pops(self) -> float:
        with self._lock:
            if not self._stats:
                return 0.0
            return sum(s.queue_pops for s in self._stats) / len(self._stats)

    @property
    def duplicate_ratio(self) -> float:
        """Dropped pops / total pops over the window: the share of
        Figure-4 loop iterations §5.1 coverage discarded."""
        with self._lock:
            pops = sum(s.queue_pops for s in self._stats)
            dropped = sum(s.entries_dropped for s in self._stats)
        return dropped / max(1, pops)

    def profile(self) -> WorkloadProfile:
        """The window condensed into a :class:`WorkloadProfile` for
        ``Flix.build(workload=...)`` / ``Flix.rebuild(workload=...)``."""
        count = self.query_count
        pops = self.mean_queue_pops
        links = self.mean_link_traversals
        return WorkloadProfile(
            query_count=count,
            duplicate_ratio=self.duplicate_ratio,
            mean_queue_pops=pops,
            mean_link_traversals=links,
            descendants_heavy=(links > 4.0 or pops > 16.0),
        )

    def advice(
        self,
        current_config: FlixConfig,
        link_traversal_threshold: float = 8.0,
        min_queries: int = 20,
    ) -> TuningAdvice:
        """Should the build phase run again, and with what configuration?

        A rebuild is recommended when the average query follows more than
        ``link_traversal_threshold`` residual links: the meta documents are
        then too small (or cut along the wrong edges) for the actual load,
        and a configuration with larger / link-absorbing meta documents
        (Unconnected HOPI with a bigger partition budget) should amortize
        the traversals into index lookups.
        """
        if self.query_count < min_queries:
            return TuningAdvice(
                False,
                f"only {self.query_count} queries observed "
                f"(need {min_queries}); keep collecting",
            )
        mean_links = self.mean_link_traversals
        if mean_links <= link_traversal_threshold:
            return TuningAdvice(
                False,
                f"mean {mean_links:.1f} link traversals/query is within the "
                f"threshold of {link_traversal_threshold}",
            )
        recommended = FlixConfig.unconnected_hopi(
            partition_size=max(current_config.partition_size * 4, 5000)
        )
        return TuningAdvice(
            True,
            f"mean {mean_links:.1f} link traversals/query exceeds "
            f"{link_traversal_threshold}; larger meta documents would "
            "absorb them into index lookups",
            recommended,
        )
