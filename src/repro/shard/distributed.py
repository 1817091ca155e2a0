"""Coordinator-side distributed evaluation: the remote expander.

:func:`repro.core.pee.figure4_search` is the one Figure-4 loop; its
per-entry index work is done by an *expander*.  :class:`DistributedEvaluator`
supplies the remote one: it ships each popped entry to the shard worker
owning that entry's meta document
(:meth:`~repro.core.pee.PathExpressionEvaluator.expand_entry` is a pure
function of the shipped arguments) and folds the expansion's counter
deltas back into the query's stats.  Because the control loop is the very
code serial evaluation runs and only the side-effect-free expansions
travel, the merged stream is **byte-identical** to serial evaluation:
the same results in the same order with the same stats.

Failure model: when every replica of an expansion's owning shard is
unreachable the RPC raises :class:`~repro.core.pee.ExpansionLost`, and
the loop drops that entry — and the whole subtree it would have
discovered.  The search continues on the surviving shards and the
response is flagged ``truncated`` (the same completeness flag a budget
stop raises): everything returned is correct, but the stream stopped
short of the full answer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.pee import (
    ExpansionLost,
    Expander,
    QueryBudget,
    QueryStats,
    QueryStream,
    SearchMethods,
    figure4_search,
    first_connection,
)
from repro.indexes.base import NodeId
from repro.shard.plan import ShardMap

#: one remote expansion: ``(meta_id, payload) -> (outcome, stats_delta)``;
#: raises :class:`ExpansionLost` when no replica answers
ExpansionRpc = Callable[[int, Dict], Tuple[Optional[tuple], QueryStats]]


class DistributedEvaluator(SearchMethods):
    """Figure 4's loop over remote expansions (see module docstring),
    behind the same four search methods as the local evaluator.

    ``expand_rpc`` carries the ``expand`` verb (descendants / ancestors /
    type queries), ``probe_rpc`` the ``connection_probe`` verb.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        expand_rpc: ExpansionRpc,
        probe_rpc: ExpansionRpc,
    ) -> None:
        self._map = shard_map
        self._expand_rpc = expand_rpc
        self._probe_rpc = probe_rpc

    def _expander(
        self, rpc: ExpansionRpc, stats: QueryStats, **query
    ) -> Expander:
        """The remote expander for one query: ``query`` holds the payload
        fields every expansion of this query shares."""

        def expand(meta_id, entry, priority, previous):
            outcome, delta = rpc(
                meta_id,
                {
                    "meta_id": meta_id,
                    "entry": entry,
                    "priority": priority,
                    "previous": list(previous),
                    **query,
                },
            )
            stats.absorb_expansion(delta)
            return outcome

        return expand

    def search(
        self,
        seeds: Sequence[NodeId],
        tag: Optional[str],
        max_distance: Optional[int],
        forward: bool,
        skip_nodes: Tuple[NodeId, ...],
        budget: Optional[QueryBudget] = None,
    ) -> QueryStream:
        """Descendants (``forward``), ancestors, or — with many seeds —
        type queries; ties pop FIFO (the coordinator holds no statistics
        to rank by)."""
        stats = QueryStats()
        expand = self._expander(
            self._expand_rpc, stats, tag=tag, forward=forward,
            skip=tuple(skip_nodes), max_distance=max_distance,
        )
        return QueryStream(
            figure4_search(
                seeds, self._map.meta_of, expand, stats, max_distance,
                budget,
            ),
            stats,
        )

    def _search(self, axis=None, **search) -> QueryStream:
        """What :class:`SearchMethods` builds the other searches on;
        ``axis`` labels the local evaluator's metrics, nothing here."""
        return self.search(**search)

    def connection_test(
        self,
        source: NodeId,
        target: NodeId,
        max_distance: Optional[int] = None,
        stats: Optional[QueryStats] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Optional[int]:
        stats = stats if stats is not None else QueryStats()
        probe = self._expander(
            self._probe_rpc, stats, target=target,
            target_meta=self._map.meta_of(target), max_distance=max_distance,
        )
        return first_connection(
            source, self._map.meta_of, probe, stats, max_distance, budget
        )


__all__ = ["DistributedEvaluator", "ExpansionLost"]
