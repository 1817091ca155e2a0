"""APEX: an adaptive path index for XML data (Chung et al., SIGMOD 2002).

APEX keeps a structure graph whose base partition (APEX-0) groups elements
by their label, and *adapts* to the workload by refining the classes that
frequently-asked label paths touch, so those paths can be answered from the
summary alone.  The paper benchmarks "a database-backed implementation of
APEX (without optimizations for frequent queries)" — i.e. APEX-0 — which is
what :meth:`ApexIndex.build` constructs; :meth:`ApexIndex.build_adaptive`
additionally refines for a workload of frequent label paths.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.graph.digraph import Digraph
from repro.indexes._summary import ClassId, SummaryIndex, label_partition
from repro.indexes.base import NodeId


class ApexIndex(SummaryIndex):
    """Builder of the APEX structure graph, optionally workload-refined."""

    strategy_name = "apex"

    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "ApexIndex":
        """APEX-0: classes are the label (tag) partition."""
        return cls.build_adaptive(graph, tags, workload=())

    @classmethod
    def build_adaptive(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        workload: Iterable[Sequence[str]],
    ) -> "ApexIndex":
        """APEX refined for the frequent label paths in ``workload``.

        Each workload entry is a label path ``(t1, ..., tk)``; after
        refinement, the elements with tag ``tk`` that are reachable via that
        exact label path form their own class (split off from the rest), so
        the path is answerable from extents without touching the data graph.
        """
        index = cls()
        class_of = label_partition(graph, tags)
        for path in workload:
            class_of = _refine_for_path(graph, tags, class_of, tuple(path))
        index._initialize(graph, tags, _normalize(class_of))
        index._frequent_paths = [tuple(p) for p in workload]
        return index

    # ------------------------------------------------------------------
    # APEX extras
    # ------------------------------------------------------------------
    _frequent_paths: List[Tuple[str, ...]] = []

    @property
    def frequent_paths(self) -> List[Tuple[str, ...]]:
        """The label paths this instance was refined for."""
        return list(self._frequent_paths)

    def match_label_path(self, path: Sequence[str]) -> Set[NodeId]:
        """Elements reachable from any root via the exact child path ``path``.

        Evaluated over the structure graph first and verified on the data
        graph; for refined paths the structure-level answer is already
        exact, which is APEX's selling point.
        """
        if not path:
            return set()
        frontier = {
            node
            for node in self._graph.nodes()
            if self._graph.in_degree(node) == 0 and self._tags[node] == path[0]
        }
        for tag in path[1:]:
            frontier = {
                succ
                for node in frontier
                for succ in self._graph.successors(node)
                if self._tags[succ] == tag
            }
            if not frontier:
                return set()
        return frontier



def _refine_for_path(
    graph: Digraph,
    tags: Mapping[NodeId, str],
    class_of: Dict[NodeId, ClassId],
    path: Tuple[str, ...],
) -> Dict[NodeId, ClassId]:
    """Split classes so that each prefix of ``path`` has an exact extent."""
    if not path:
        return class_of
    matched: Set[NodeId] = {
        node for node in graph.nodes() if tags[node] == path[0]
    }
    refined = _split(class_of, matched)
    for tag in path[1:]:
        matched = {
            succ
            for node in matched
            for succ in graph.successors(node)
            if tags[succ] == tag
        }
        refined = _split(refined, matched)
    return refined


def _split(
    class_of: Dict[NodeId, ClassId],
    member_set: Set[NodeId],
) -> Dict[NodeId, ClassId]:
    """Split every class into its intersection with and without ``member_set``."""
    signatures: Dict[Tuple[ClassId, bool], ClassId] = {}
    refined: Dict[NodeId, ClassId] = {}
    for node in sorted(class_of):
        signature = (class_of[node], node in member_set)
        if signature not in signatures:
            signatures[signature] = len(signatures)
        refined[node] = signatures[signature]
    return refined


def _normalize(class_of: Dict[NodeId, ClassId]) -> Dict[NodeId, ClassId]:
    """Renumber class ids densely and deterministically."""
    mapping: Dict[ClassId, ClassId] = {}
    normalized: Dict[NodeId, ClassId] = {}
    for node in sorted(class_of):
        cls = class_of[node]
        if cls not in mapping:
            mapping[cls] = len(mapping)
        normalized[node] = mapping[cls]
    return normalized
