"""One oracle for every answer: plain BFS over the union graph G_X.

The reference for every response the spine times is
``repro.graph.traversal.bfs_distances`` on ``collection.graph`` (paper
section 2.1) — independent of every index, meta document and shard.  A
response is correct when

* its result set equals the oracle's (for a ``limit``-ed request: the
  right number of rows, all of them oracle members),
* every reported distance is at least the oracle's (FliX distances are the
  length of a real path, "approximately" the shortest — the share that is
  exactly shortest is reported as ``core.pee.distance_exact_ratio``),
* scalar ``test`` answers agree on connectedness, ``cost`` answers equal
  the shortest distance, and
* completeness is ``complete``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.traversal import bfs_distances, bfs_reverse_distances

Row = Tuple[int, int]  # (node, reported distance)


@dataclass
class Expectation:
    """What the oracle says one request must return."""

    kind: str
    #: node -> shortest distance, list kinds only
    members: Optional[Dict[int, int]] = None
    limit: Optional[int] = None
    #: shortest distance source -> target (None = unconnected), scalar kinds
    scalar: Optional[int] = None


@dataclass
class Verdict:
    ok: bool
    rows: int = 0
    #: rows whose reported distance is the shortest one
    exact: int = 0
    #: adjacent result pairs, and those out of ascending true distance
    pairs: int = 0
    inversions: int = 0


class Oracle:
    """BFS answers over one collection's union graph (read live, so it
    follows a collection that maintenance verbs are mutating)."""

    def __init__(self, collection) -> None:
        self.collection = collection
        self._memo: Optional[Tuple[int, bool, Dict[int, int]]] = None

    def reach(self, source: int, forward: bool = True) -> Dict[int, int]:
        """Shortest distances from (or, reversed, to) ``source``."""
        memo = self._memo
        if memo is not None and memo[0] == source and memo[1] == forward:
            return memo[2]
        search = bfs_distances if forward else bfs_reverse_distances
        distances = search(self.collection.graph, source)
        self._memo = (source, forward, distances)
        return distances

    def forget(self) -> None:
        """Drop the memo (the collection changed)."""
        self._memo = None

    def expect(self, request) -> Expectation:
        kind = request.kind
        if kind in ("descendants", "ancestors"):
            distances = self.reach(request.source, kind == "descendants")
            tag_of = self.collection.tag
            members = {
                node: distance
                for node, distance in distances.items()
                if (request.include_self or node != request.source)
                and (request.tag is None or tag_of(node) == request.tag)
            }
            return Expectation(kind, members=members, limit=request.limit)
        if kind in ("test", "cost"):
            distances = self.reach(request.source, True)
            return Expectation(kind, scalar=distances.get(request.target))
        raise ValueError(f"the spine's oracle does not cover kind {kind!r}")


def check(
    expectation: Expectation,
    rows: Sequence[Row],
    value,
    completeness: str,
) -> Verdict:
    """Compare one response (already reduced to rows/value) to the oracle."""
    if completeness != "complete":
        return Verdict(False)
    if expectation.kind == "cost":
        expected = expectation.scalar
        same = (value is None) if expected is None else (
            value is not None and float(value) == float(expected)
        )
        return Verdict(same, rows=1, exact=int(same))
    if expectation.kind == "test":
        expected = expectation.scalar
        if expected is None or value is None:
            return Verdict(expected is None and value is None, rows=1, exact=1)
        return Verdict(
            value >= expected, rows=1, exact=int(value == expected)
        )
    members = expectation.members
    wanted = len(members)
    if expectation.limit is not None:
        wanted = min(wanted, expectation.limit)
    if len(rows) != wanted:
        return Verdict(False, rows=len(rows))
    seen = set()
    exact = inversions = 0
    previous = None
    for node, distance in rows:
        shortest = members.get(node)
        if shortest is None or distance < shortest or node in seen:
            return Verdict(False, rows=len(rows))
        seen.add(node)
        if distance == shortest:
            exact += 1
        if previous is not None and shortest < previous:
            inversions += 1
        previous = shortest
    return Verdict(
        True, rows=len(rows), exact=exact,
        pairs=max(0, len(rows) - 1), inversions=inversions,
    )


def rows_of_response(response) -> Tuple[List[Row], object, str]:
    """Reduce an in-process ``QueryResponse`` to ``(rows, value,
    completeness)``."""
    rows = [(result.node, result.distance) for result in response.results]
    return rows, response.value, response.completeness


def rows_of_json(payload: dict) -> Tuple[List[Row], object, str]:
    """Reduce a front-door JSON answer to ``(rows, value, completeness)``."""
    rows = [(row["node"], row["distance"]) for row in payload["results"]]
    return rows, payload["value"], payload["completeness"]
