"""The common interface of all Path Indexing Strategies.

FliX requires (section 3.2) strategies "that support the XPath axes and
return results in ascending order of distance".  The Path Expression
Evaluator (Figure 4) needs exactly four operations from the index of a meta
document:

* ``find_descendants_by_tag(e, tag)`` — ``IND.findReachableElementsByName``,
  results in ascending distance to ``e``;
* ``reachable_subset(e, candidates)`` — ``IND.findReachableLinks``, the
  reachable members of the residual-link set ``L_i``
  (``reaching_subset`` is its mirror for ``ancestors-or-self``).  Packed
  HOPI answers both set-at-a-time from the hub inverted lists, PPO from
  one bisect over the preorder-sorted ``L_i`` (forward) or one parent
  walk (backward); every other strategy probes ``distance`` per member;
* ``coverage(previous, forward)`` — the entry-point duplicate
  elimination of section 5.1 as one question per expansion (packed HOPI:
  one hub-set intersection per tested node; default: ``reachable`` per
  earlier entry);
* ``reachable``/``distance`` — connection tests;
* the reverse (ancestor) variant of the tag enumeration.

Indexes are built from a :class:`repro.graph.digraph.Digraph` over integer
node ids plus a node -> tag mapping into their own in-memory structures.
Their one stored form is the FLXPACK blob :mod:`repro.indexes.packed`
compiles from those structures: a packed index's size and fingerprint are
its blob's, which is what Table 1 measures (``docs/DATA_LAYOUT.md``).
"""

from __future__ import annotations

import abc
import operator
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.digraph import Digraph

NodeId = int
Wildcard = None  # tag value meaning "any element"
ScoredNode = Tuple[NodeId, int]  # (node, distance)


class IndexNotApplicableError(ValueError):
    """The strategy cannot index this graph (e.g. PPO on a non-forest)."""


class PathIndex(abc.ABC):
    """A connection index over one (meta) document graph."""

    #: registry name; subclasses override.
    strategy_name = "abstract"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "PathIndex":
        """Index ``graph``; ``tags`` maps every node to its element name."""

    # ------------------------------------------------------------------
    # core queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reachable(self, source: NodeId, target: NodeId) -> bool:
        """``descendants-or-self`` reachability (every node reaches itself)."""

    @abc.abstractmethod
    def distance(self, source: NodeId, target: NodeId) -> Optional[int]:
        """Shortest hop distance, or ``None`` when unreachable."""

    @abc.abstractmethod
    def find_descendants_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        """Descendants-or-self of ``source`` with the given tag.

        ``tag=None`` is the wildcard ``a//*``.  Results are sorted by
        ascending distance (ties by node id) — the contract the PEE's
        approximate global ordering rests on.
        """

    @abc.abstractmethod
    def find_ancestors_by_tag(
        self,
        source: NodeId,
        tag: Optional[str],
    ) -> List[ScoredNode]:
        """Ancestors-or-self of ``source``; same ordering contract."""

    # ------------------------------------------------------------------
    # queries with default implementations
    # ------------------------------------------------------------------
    def reachable_subset(
        self,
        source: NodeId,
        candidates: Collection[NodeId],
    ) -> List[ScoredNode]:
        """Members of ``candidates`` reachable from ``source``, by distance.

        This implements the ``L(a)`` query of section 4.2: "the set of all
        elements in the same meta document that are descendants of ``a`` and
        have an outgoing link", computed by intersecting descendants with the
        residual-link set (distinct node ids; the PEE passes the frozen
        ``L_i``).  This default costs one ``distance`` probe per member of
        ``L_i`` whatever the answer's size — hundreds per popped entry on a
        link-rich meta document — so the served indexes override it to
        cost what the answer costs.
        """
        hits = []
        for candidate in candidates:
            d = self.distance(source, candidate)
            if d is not None:
                hits.append((candidate, d))
        return sort_scored(hits)

    def reaching_subset(
        self,
        target: NodeId,
        candidates: Collection[NodeId],
    ) -> List[ScoredNode]:
        """Members of ``candidates`` that *reach* ``target``, by distance.

        The mirror of :meth:`reachable_subset` for ``ancestors-or-self``
        evaluation (``candidates`` is then the set of residual-link
        targets); same default cost, same overrides.
        """
        hits = []
        for candidate in candidates:
            d = self.distance(candidate, target)
            if d is not None:
                hits.append((candidate, d))
        return sort_scored(hits)

    def coverage(
        self,
        previous: Sequence[NodeId],
        forward: bool,
    ) -> Callable[[NodeId], bool]:
        """The section 5.1 duplicate test against ``previous`` entry points.

        Returns ``covers(node)``.  Forward: some previous entry reaches
        ``node``, so it has already returned all of ``node``'s descendants.
        Backward: ``node`` reaches some previous entry, which has already
        returned all of ``node``'s ancestors.  One expansion asks about its
        entry and then about every match, so whatever can be derived from
        ``previous`` alone is derived here, once.

        This default probes most-recently-added entries first: the queue
        pops in ascending priority, and a popped node is far more likely to
        hang off the subtree the evaluator just expanded than off an entry
        from many blocks ago.
        """
        reachable = self.reachable
        if forward:
            def covers(node: NodeId) -> bool:
                for entry in reversed(previous):
                    if reachable(entry, node):
                        return True
                return False
        else:
            def covers(node: NodeId) -> bool:
                for entry in reversed(previous):
                    if reachable(node, entry):
                        return True
                return False
        return covers

    def prepare_link_candidates(self, candidates: frozenset) -> None:
        """Pre-register the residual-link set ``L_i`` for repeated probing.

        The PEE queries ``reachable_subset(e, L_i)`` once per visited entry
        point; strategies with a cheaper bulk representation (PPO's
        preorder intervals) override this to build it once at index time.
        The default keeps the probe-per-candidate behaviour.
        """

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` belongs to this index's meta document."""
        return node in self._node_set()

    @abc.abstractmethod
    def _node_set(self) -> frozenset:
        """The indexed node ids."""

    @property
    def node_count(self) -> int:
        return len(self._node_set())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} nodes={self.node_count}>"


_DISTANCE_THEN_NODE = operator.itemgetter(1, 0)


def sort_scored(pairs: Iterable[ScoredNode]) -> List[ScoredNode]:
    """Canonical result ordering: ascending distance, then node id."""
    return sorted(pairs, key=_DISTANCE_THEN_NODE)
