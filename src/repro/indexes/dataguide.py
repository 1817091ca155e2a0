"""Strong DataGuides (Goldman & Widom, VLDB 1997).

A DataGuide is a deterministic summary: every label path that occurs in the
data occurs exactly once in the guide, and each guide state stores its
*target set* (the elements reachable by that path).  On graph-shaped data
the construction is a powerset determinization and can blow up
exponentially, so the builder enforces a state budget and raises
:class:`~repro.indexes.base.IndexNotApplicableError` beyond it — one more
reason the paper's framework picks strategies per meta document instead of
globally.

For the generic :class:`~repro.indexes.base.PathIndex` probes the packed
form runs the structure-pruned BFS of
:class:`~repro.indexes.packed.summary.PackedSummaryIndex` over the label
partition; the builder's added value is :meth:`match_label_path`, the exact
root-path lookup DataGuides exist for.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from repro.graph.digraph import Digraph
from repro.indexes._summary import SummaryIndex, label_partition
from repro.indexes.base import IndexNotApplicableError, NodeId


class DataGuideIndex(SummaryIndex):
    """Builder of a strong DataGuide with target sets."""

    strategy_name = "dataguide"

    DEFAULT_MAX_STATES = 20000

    def __init__(self) -> None:
        super().__init__()
        self._targets: List[FrozenSet[NodeId]] = []
        self._transitions: Dict[Tuple[int, str], int] = {}
        self._initial_state: int = -1

    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "DataGuideIndex":
        return cls.build_bounded(graph, tags, cls.DEFAULT_MAX_STATES)

    @classmethod
    def build_bounded(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        max_states: int,
    ) -> "DataGuideIndex":
        index = cls()
        index._determinize(graph, tags, max_states)
        class_of = label_partition(graph, tags)
        index._initialize(graph, tags, class_of)
        return index

    def _determinize(
        self,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        max_states: int,
    ) -> None:
        """Powerset construction from a virtual super-root.

        State 0 is the empty-path state (the super-root itself); its
        transitions consume the *root* labels.  Every other state is interned
        by its target set, so equal label paths share one state — the
        defining DataGuide property.
        """
        roots = sorted(n for n in graph.nodes() if graph.in_degree(n) == 0)
        self._initial_state = 0
        self._targets = [frozenset()]
        state_of: Dict[FrozenSet[NodeId], int] = {}

        def intern(target: FrozenSet[NodeId]) -> Tuple[int, bool]:
            if target in state_of:
                return state_of[target], False
            if len(self._targets) >= max_states:
                raise IndexNotApplicableError(
                    f"DataGuide exceeds {max_states} states on this graph"
                )
            state = len(self._targets)
            state_of[target] = state
            self._targets.append(target)
            return state, True

        by_label: Dict[str, Set[NodeId]] = {}
        for root in roots:
            by_label.setdefault(tags[root], set()).add(root)
        queue = deque()
        for label, nodes in sorted(by_label.items()):
            state, fresh = intern(frozenset(nodes))
            self._transitions[(self._initial_state, label)] = state
            if fresh:
                queue.append(state)
        while queue:
            source_state = queue.popleft()
            by_label = {}
            for node in self._targets[source_state]:
                for succ in graph.successors(node):
                    by_label.setdefault(tags[succ], set()).add(succ)
            for label, nodes in sorted(by_label.items()):
                state, fresh = intern(frozenset(nodes))
                self._transitions[(source_state, label)] = state
                if fresh:
                    queue.append(state)

    # ------------------------------------------------------------------
    # DataGuide-specific operations
    # ------------------------------------------------------------------
    @property
    def state_count(self) -> int:
        return len(self._targets)

    def match_label_path(self, path: Sequence[str]) -> Set[NodeId]:
        """Target set of the root label path ``path`` (empty set if absent).

        This is the O(|path|) lookup that makes DataGuides attractive for
        short, wildcard-free paths (the paper's rule of thumb in §2.2).
        """
        state = self._initial_state
        for label in path:
            nxt = self._transitions.get((state, label))
            if nxt is None:
                return set()
            state = nxt
        if state == self._initial_state:
            return set()
        return set(self._targets[state])

    def label_paths(self, max_length: int) -> List[Tuple[str, ...]]:
        """All distinct label paths up to ``max_length`` (for diagnostics)."""
        paths: List[Tuple[str, ...]] = []
        queue: deque = deque([(self._initial_state, ())])
        while queue:
            state, prefix = queue.popleft()
            if len(prefix) >= max_length:
                continue
            for (src, label), dst in self._transitions.items():
                if src == state:
                    extended = prefix + (label,)
                    paths.append(extended)
                    queue.append((dst, extended))
        return sorted(set(paths))

