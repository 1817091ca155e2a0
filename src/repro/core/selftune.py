"""Self-tuning (section 7, future work — implemented here).

"If it turns out in the query evaluation engine that most queries have to
follow many links, then the choice of meta documents is no longer optimal
for the current query load.  In this case, the build phase should start
again, taking statistics on the query load into account."

:class:`QueryLoadMonitor` aggregates the :class:`~repro.core.pee.QueryStats`
of executed queries; :meth:`QueryLoadMonitor.advice` decides whether a
rebuild is warranted and recommends the next configuration, which
``Flix.rebuild(config)`` then builds.
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


class QueryLoadMonitor:
    """Sliding-window statistics over executed queries."""

    def __init__(self, window: int = 1000) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self._window = window
        self._stats: List[QueryStats] = []
        # threads calling Flix.query record concurrently; the window
        # trim is a read-modify-write that must not interleave
        self._lock = threading.Lock()

    def record(self, stats: QueryStats) -> None:
        # A truncated row with zero counters never touched the index: the
        # evaluator checks the budget before its first pop, so a deadline
        # that lapsed before the search began yields exactly such a row
        # (figure4_search in core/pee.py).  Recording it would dilute the
        # link-traversal mean the tuning advice feeds on, so it is
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
