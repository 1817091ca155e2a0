"""The Index Definition Scheme family: 1-index and A(k)-indexes.

Kaushik et al.'s Index Definition Scheme (section 2.2, [12, 15]) defines
structural summaries through (bounded) backward bisimulation:

* the **A(k)-index** groups elements that are k-bisimilar — indistinguishable
  by incoming label paths up to length ``k``;
* the **1-index** is the limit ``k -> infinity`` (full backward
  bisimulation), which is *precise* for all incoming path queries.

Both are built by partition refinement: start from the label partition and
refine by predecessor-class signatures, ``k`` times or to a fixpoint.  The
paper's rule of thumb (section 2.2): these do fine "if all paths are short
or do not contain wildcards" — long `//` chains degrade to the guided BFS
of :class:`repro.indexes.packed.summary.PackedSummaryIndex`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.graph.digraph import Digraph
from repro.indexes._summary import (
    SummaryIndex,
    label_partition,
    refine_partition_once,
)
from repro.indexes.base import NodeId


class KBisimulationIndex(SummaryIndex):
    """A(k)-index (finite ``k``) or 1-index (``k=None``, run to fixpoint)."""

    strategy_name = "kindex"

    #: refinement rounds actually performed (useful for diagnostics)
    rounds_performed: int = 0
    #: the requested k (None means fixpoint / 1-index)
    k: Optional[int] = None

    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "KBisimulationIndex":
        """Default instantiation: the 1-index (full bisimulation)."""
        return cls.build_k(graph, tags, k=None)

    @classmethod
    def build_k(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        k: Optional[int],
    ) -> "KBisimulationIndex":
        if k is not None and k < 0:
            raise ValueError("k must be non-negative (or None for the 1-index)")
        index = cls()
        class_of = label_partition(graph, tags)
        rounds = 0
        while k is None or rounds < k:
            class_of, changed = refine_partition_once(graph, class_of)
            rounds += 1
            if not changed:
                break
            if k is None and rounds > graph.node_count:
                raise AssertionError(
                    "bisimulation refinement failed to converge"
                )  # pragma: no cover - refinement always converges
        index._initialize(graph, tags, class_of)
        index.rounds_performed = rounds
        index.k = k
        return index


class ForwardBackwardIndex(KBisimulationIndex):
    """The F&B index: forward *and* backward bisimulation to a fixpoint.

    The finest member of the Index Definition Scheme family (paper §2.2's
    "F&B Index"): classes are stable under both incoming and outgoing label
    paths, so branching path queries are precise on the structure graph.
    The price is the largest class count of the family — the test suite
    checks it refines the 1-index.
    """

    strategy_name = "fbindex"

    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "ForwardBackwardIndex":
        index = cls()
        class_of = label_partition(graph, tags)
        rounds = 0
        stable_in_a_row = 0
        direction = "backward"
        # Alternate directions until NEITHER splits anything.
        while stable_in_a_row < 2:
            class_of, changed = refine_partition_once(graph, class_of, direction)
            rounds += 1
            stable_in_a_row = 0 if changed else stable_in_a_row + 1
            direction = "forward" if direction == "backward" else "backward"
            if rounds > 2 * graph.node_count + 4:  # pragma: no cover
                raise AssertionError("F&B refinement failed to converge")
        index._initialize(graph, tags, class_of)
        index.rounds_performed = rounds
        index.k = None
        return index

