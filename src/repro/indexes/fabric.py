"""Index Fabric: a trie over designated label paths (Cooper et al., VLDB 2001).

Section 2.2 lists the Index Fabric among the path indexes FliX can reuse:
it encodes every root-to-element label path as a string key and stores the
keys in a (Patricia-style) trie, giving exact-match and prefix lookups in
time proportional to the key length — excellent for short, wildcard-free
paths, useless for ``//``-heavy loads, which is precisely the trade-off the
paper's rule of thumb describes.

This implementation keeps the trie explicit (one node per label step with
child maps and path-compression of unary chains into edge labels), exposes

* :meth:`FabricIndex.match_label_path` — exact "designated path" lookup,
* :meth:`FabricIndex.paths_with_prefix` — prefix enumeration,
* :meth:`FabricIndex.path_count` / :meth:`FabricIndex.trie_node_count`,

and packs like the other summary indexes: the generic
:class:`~repro.indexes.base.PathIndex` probes are the structure-guided BFS
of :class:`~repro.indexes.packed.summary.PackedSummaryIndex`.  Cyclic
element graphs have unbounded label-path sets, so — like the DataGuide —
construction is guarded by a budget and refuses pathological inputs
instead of diverging.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.digraph import Digraph
from repro.indexes._summary import SummaryIndex, label_partition
from repro.indexes.base import IndexNotApplicableError, NodeId

#: separator between labels in encoded keys (not a valid XML name char)
KEY_SEPARATOR = "/"


class _TrieNode:
    """One trie node; unary chains are compressed into ``edge`` labels."""

    __slots__ = ("children", "nodes")

    def __init__(self) -> None:
        # edge label (one or more KEY_SEPARATOR-joined steps) -> child
        self.children: Dict[str, "_TrieNode"] = {}
        # elements whose full path ends exactly here
        self.nodes: Set[NodeId] = set()


class FabricIndex(SummaryIndex):
    """Builder of the trie over root label paths."""

    strategy_name = "fabric"

    DEFAULT_MAX_KEYS = 200_000

    def __init__(self) -> None:
        super().__init__()
        self._root = _TrieNode()
        self._key_count = 0
        self._trie_nodes = 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "FabricIndex":
        return cls.build_bounded(graph, tags, cls.DEFAULT_MAX_KEYS)

    @classmethod
    def build_bounded(
        cls,
        graph: Digraph,
        tags: Mapping[NodeId, str],
        max_keys: int,
    ) -> "FabricIndex":
        index = cls()
        # Depth-first enumeration of root label paths.  On DAGs a node can
        # carry several paths (one per incoming route); cycles would make
        # the set infinite, so a visited-on-stack check rejects them.
        roots = sorted(n for n in graph.nodes() if graph.in_degree(n) == 0)
        if graph.node_count and not roots:
            raise IndexNotApplicableError(
                "Index Fabric needs rooted data; this graph is fully cyclic"
            )
        for root in roots:
            stack: List[Tuple[NodeId, Tuple[str, ...], frozenset]] = [
                (root, (tags[root],), frozenset({root}))
            ]
            while stack:
                node, path, on_path = stack.pop()
                index._insert(path, node)
                if index._key_count > max_keys:
                    raise IndexNotApplicableError(
                        f"Index Fabric exceeds {max_keys} keys on this graph"
                    )
                for succ in sorted(graph.successors(node)):
                    if succ in on_path:
                        raise IndexNotApplicableError(
                            "Index Fabric cannot encode cyclic label paths"
                        )
                    stack.append(
                        (succ, path + (tags[succ],), on_path | {succ})
                    )
        class_of = label_partition(graph, tags)
        index._initialize(graph, tags, class_of)
        return index

    def _insert(self, path: Sequence[str], node: NodeId) -> None:
        current = self._root
        position = 0
        while position < len(path):
            label = path[position]
            child = current.children.get(label)
            if child is None:
                child = _TrieNode()
                current.children[label] = child
                self._trie_nodes += 1
            current = child
            position += 1
        if not current.nodes:
            self._key_count += 1
        current.nodes.add(node)

    # ------------------------------------------------------------------
    # fabric lookups
    # ------------------------------------------------------------------
    def _walk(self, path: Sequence[str]) -> Optional[_TrieNode]:
        current = self._root
        for label in path:
            current = current.children.get(label)
            if current is None:
                return None
        return current

    def match_label_path(self, path: Sequence[str]) -> Set[NodeId]:
        """Elements whose root label path is exactly ``path``."""
        if not path:
            return set()
        node = self._walk(path)
        return set(node.nodes) if node is not None else set()

    def paths_with_prefix(self, prefix: Sequence[str]) -> List[Tuple[str, ...]]:
        """All stored label paths extending ``prefix`` (inclusive), sorted."""
        start = self._walk(prefix)
        if start is None:
            return []
        found: List[Tuple[str, ...]] = []
        stack: List[Tuple[_TrieNode, Tuple[str, ...]]] = [(start, tuple(prefix))]
        while stack:
            trie_node, path = stack.pop()
            if trie_node.nodes and path:
                found.append(path)
            for label, child in trie_node.children.items():
                stack.append((child, path + (label,)))
        return sorted(found)

    def subtree_elements(self, prefix: Sequence[str]) -> Set[NodeId]:
        """Every element whose path extends ``prefix`` (inclusive)."""
        start = self._walk(prefix)
        if start is None:
            return set()
        elements: Set[NodeId] = set()
        stack = [start]
        while stack:
            trie_node = stack.pop()
            elements |= trie_node.nodes
            stack.extend(trie_node.children.values())
        return elements

    @property
    def path_count(self) -> int:
        """Number of distinct label paths stored."""
        return self._key_count

    @property
    def trie_node_count(self) -> int:
        return self._trie_nodes

