"""Measurement utilities shared by all benchmark suites.

The six systems of section 6 are reified as :class:`SystemUnderTest`
instances: the two monolithic comparators (HOPI, APEX over the complete
collection) and the four FliX configurations (PPO-naive, Maximal PPO,
HOPI-5000, HOPI-20000 — partition sizes scale with the collection so the
scaled-down default corpus keeps the same partitions-to-collection ratio
as the paper's 5,000/20,000 against 168,991 elements).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.collection.collection import NodeId, XmlCollection
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.graph.closure import TransitiveClosure


@dataclass
class SystemUnderTest:
    """A named, built system exposing the common query API."""

    name: str
    flix: Flix

    @property
    def size_bytes(self) -> int:
        return self.flix.size_bytes()

    @property
    def build_seconds(self) -> float:
        return self.flix.report.total_seconds

    @property
    def build_phase_totals(self) -> Dict[str, float]:
        """Per-phase build seconds summed across meta documents."""
        return self.flix.report.phase_totals()


def paper_partition_sizes(collection: XmlCollection) -> Tuple[int, int]:
    """Scaled analogues of the paper's 5,000- and 20,000-node partitions.

    The paper used 5,000 and 20,000 nodes against 168,991 elements, i.e.
    roughly 3% and 12% of the collection.  We preserve those fractions so
    partition counts stay comparable at any corpus scale.
    """
    n = collection.node_count
    small = max(50, round(n * 5000 / 168991))
    large = max(4 * small, round(n * 20000 / 168991))
    return small, large


def build_all_systems(
    collection: XmlCollection,
    include_transitive_closure: bool = False,
) -> List[SystemUnderTest]:
    """Build the paper's full system lineup over ``collection``."""
    small, large = paper_partition_sizes(collection)
    systems = [
        SystemUnderTest(
            "HOPI", Flix.build(collection, FlixConfig.monolithic("hopi"))
        ),
        SystemUnderTest(
            "APEX", Flix.build(collection, FlixConfig.monolithic("apex"))
        ),
        SystemUnderTest("PPO-naive", Flix.build(collection, FlixConfig.naive())),
        SystemUnderTest(
            f"HOPI-{small}", Flix.build(collection, FlixConfig.unconnected_hopi(small))
        ),
        SystemUnderTest(
            f"HOPI-{large}", Flix.build(collection, FlixConfig.unconnected_hopi(large))
        ),
        SystemUnderTest(
            "MaximalPPO", Flix.build(collection, FlixConfig.maximal_ppo())
        ),
    ]
    if include_transitive_closure:
        systems.insert(
            0,
            SystemUnderTest(
                "TransitiveClosure",
                Flix.build(
                    collection, FlixConfig.monolithic("transitive_closure")
                ),
            ),
        )
    return systems


def time_to_k(
    query: Callable[[], Iterable],
    checkpoints: Sequence[int],
) -> Dict[int, float]:
    """Cumulative seconds until the k-th result, for each checkpoint k.

    This is Figure 5's measurement: "the time that the different indexes
    needed to return up to 100 results for this query".  Checkpoints the
    stream never reaches are reported at the stream-exhaustion time.
    """
    ordered = sorted(set(checkpoints))
    timings: Dict[int, float] = {}
    started = time.perf_counter()
    produced = 0
    pending = list(ordered)
    for _result in query():
        produced += 1
        while pending and produced >= pending[0]:
            timings[pending.pop(0)] = time.perf_counter() - started
        if not pending:
            break
    final = time.perf_counter() - started
    for k in pending:
        timings[k] = final
    return timings


def order_error_rate(
    results: Sequence,
    oracle: TransitiveClosure,
    start: NodeId,
) -> float:
    """Fraction of results delivered out of true-distance order.

    Section 6's metric ("fraction of all results that were returned in
    wrong order").  We count the minimum number of results that would have
    to move for the stream to be sorted by exact distance — i.e. everything
    outside a longest non-decreasing subsequence of the true distances.
    This charges one early-delivered stray result once, not once per later
    result it happens to precede.
    """
    if not results:
        return 0.0
    true_distances = oracle.descendants(start)
    sequence: List[int] = []
    for result in results:
        true = true_distances.get(result.node)
        if true is None:
            raise ValueError(
                f"result {result.node} is not a true descendant of {start}"
            )
        sequence.append(true)
    in_order = _longest_non_decreasing(sequence)
    return (len(sequence) - in_order) / len(sequence)


def _longest_non_decreasing(sequence: Sequence[int]) -> int:
    """Length of the longest non-decreasing subsequence (O(n log n))."""
    import bisect

    tails: List[int] = []
    for value in sequence:
        # bisect_right keeps equal values extending the subsequence
        position = bisect.bisect_right(tails, value)
        if position == len(tails):
            tails.append(value)
        else:
            tails[position] = value
    return len(tails)
