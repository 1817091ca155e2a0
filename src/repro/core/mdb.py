"""The Meta Document Builder (MDB), section 4.1 and 4.3.

Finding truly optimal meta documents is NP-hard (the paper reduces it to set
cover), so "each configuration comes with its own approximation algorithm".
The four algorithms here are the paper's:

``naive``
    Each XML document is its own meta document, all intra-document structure
    (including intra-document links) represented in its index.

``maximal_ppo``
    PPO is the most efficient index but needs tree-shaped data.  The MDB
    keeps every document's tree edges, discards intra-document links, and
    greedily accepts inter-document links that point at a document root and
    keep the grown partition acyclic with unique parents — a spanning-forest
    construction over documents (union-find with a root-taken constraint).
    With ``single_tree`` (the paper's variant 1) everything lands in one
    forest-shaped meta document; otherwise (variant 2) each connected group
    becomes a meta document.

``unconnected_hopi``
    The first step of HOPI's divide-and-conquer build: size-bounded
    partitions of the element graph with few crossing edges; the algorithm
    stops "after the second step and uses the partitions as meta documents".

``hybrid``
    Documents whose internal structure is already tree-shaped participate in
    the Maximal-PPO forest construction; documents with intra-document links
    are pooled and partitioned like Unconnected HOPI.

Two further strategies make the MDB the only place a layout is chosen:

``monolithic``
    One meta document, every edge internal — the layout of section 6's
    comparators ("applied to the complete data collection").

``auto_subcollections``
    Section 7's future work: each cluster found by :func:`repro.core
    .subcollections.identify_subcollections` is laid out by the strategy
    of the configuration recommended for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.collection.collection import NodeId, XmlCollection
from repro.core.config import FlixConfig
from repro.core.meta_document import Edge, MetaDocumentSpec
from repro.core.subcollections import identify_subcollections
from repro.graph.partition import partition_graph


class _UnionFind:
    """Union-find over document names (path compression + union by size)."""

    def __init__(self, items) -> None:
        self._parent = {item: item for item in items}
        self._size = {item: 1 for item in items}

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]


class MetaDocumentBuilder:
    """Builds meta-document specs for a collection under a configuration."""

    def __init__(self, collection: XmlCollection, config: FlixConfig) -> None:
        self._collection = collection
        self._config = config

    def build_specs(
        self,
        documents: Optional[Set[str]] = None,
        first_id: int = 0,
    ) -> List[MetaDocumentSpec]:
        """Meta-document specs for ``documents`` (default: the whole
        collection), numbered from ``first_id``.

        The subset form is what ``auto_subcollections`` uses to apply a
        different configuration to each homogeneous part of the collection.
        """
        if documents is None:
            documents = set(self._collection.documents)
        else:
            unknown = documents - set(self._collection.documents)
            if unknown:
                raise KeyError(f"unknown documents: {sorted(unknown)[:3]}")
        strategy = self._config.mdb_strategy
        if strategy == "naive":
            specs = self._naive(documents)
        elif strategy == "maximal_ppo":
            specs = self._maximal_ppo(documents)
        elif strategy == "unconnected_hopi":
            specs = self._unconnected_hopi(documents)
        elif strategy == "hybrid":
            specs = self._hybrid(documents)
        elif strategy == "monolithic":
            specs = self._specs_from_blocks([self._pool(documents)])
        elif strategy == "auto_subcollections":
            specs = self._auto_subcollections()
        else:
            raise AssertionError(f"unreachable MDB strategy {strategy!r}")
        if first_id:
            specs = [
                MetaDocumentSpec(first_id + i, spec.nodes, spec.internal_edges)
                for i, spec in enumerate(specs)
            ]
        return specs

    # ------------------------------------------------------------------
    # naive
    # ------------------------------------------------------------------
    def _naive(self, documents: Set[str]) -> List[MetaDocumentSpec]:
        collection = self._collection
        specs: List[MetaDocumentSpec] = []
        for name in sorted(documents):
            nodes = set(collection.document_nodes(name))
            internal = [
                (u, v)
                for u in sorted(nodes)
                for v in sorted(collection.graph.successors(u))
                if v in nodes
            ]
            specs.append(MetaDocumentSpec(len(specs), nodes, internal))
        return specs

    # ------------------------------------------------------------------
    # maximal PPO
    # ------------------------------------------------------------------
    def _tree_compatible_links(self, documents: Set[str]) -> List[Edge]:
        """Inter-document link edges that point at a document root.

        Only such links can be represented under PPO: a link into the middle
        of another document would give its target a second parent.
        """
        collection = self._collection
        roots = {collection.document_root(name) for name in documents}
        candidates = []
        for u, v in sorted(collection.link_edges):
            info_u, info_v = collection.info(u), collection.info(v)
            if info_u.document == info_v.document:
                continue
            if info_u.document in documents and info_v.document in documents:
                if v in roots:
                    candidates.append((u, v))
        return candidates

    def _grow_ppo_forest(
        self,
        documents: Set[str],
    ) -> Tuple[List[Edge], _UnionFind]:
        """Greedy spanning forest over ``documents``; returns accepted links."""
        collection = self._collection
        union = _UnionFind(sorted(documents))
        root_taken: Dict[str, bool] = {name: False for name in documents}
        accepted: List[Edge] = []
        for u, v in self._tree_compatible_links(documents):
            doc_u = collection.info(u).document
            doc_v = collection.info(v).document
            if root_taken[doc_v]:
                continue  # target root already has a parent link
            if union.find(doc_u) == union.find(doc_v):
                continue  # would close a cycle
            union.union(doc_u, doc_v)
            root_taken[doc_v] = True
            accepted.append((u, v))
        return accepted, union

    def _document_tree_edges(self, name: str) -> List[Edge]:
        """The parent-child edges of one document (intra links excluded)."""
        collection = self._collection
        nodes = set(collection.document_nodes(name))
        return [
            (u, v)
            for u in sorted(nodes)
            for v in sorted(collection.graph.successors(u))
            if v in nodes and not collection.is_link_edge(u, v)
        ]

    def _maximal_ppo(self, documents: Set[str]) -> List[MetaDocumentSpec]:
        collection = self._collection
        accepted, union = self._grow_ppo_forest(documents)

        if self._config.single_tree:
            # Variant 1: everything in one forest-shaped meta document; all
            # non-accepted links are residual.
            nodes: Set[NodeId] = set()
            for name in documents:
                nodes.update(collection.document_nodes(name))
            internal: List[Edge] = []
            for name in sorted(documents):
                internal.extend(self._document_tree_edges(name))
            internal.extend(accepted)
            return [MetaDocumentSpec(0, nodes, internal)]

        # Variant 2: one meta document per connected document group.
        groups: Dict[str, List[str]] = {}
        for name in sorted(documents):
            groups.setdefault(union.find(name), []).append(name)
        accepted_by_group: Dict[str, List[Edge]] = {}
        for u, v in accepted:
            group = union.find(collection.info(u).document)
            accepted_by_group.setdefault(group, []).append((u, v))

        specs: List[MetaDocumentSpec] = []
        for group in sorted(groups):
            nodes: Set[NodeId] = set()
            internal = []
            for name in groups[group]:
                nodes.update(collection.document_nodes(name))
                internal.extend(self._document_tree_edges(name))
            internal.extend(accepted_by_group.get(group, []))
            specs.append(MetaDocumentSpec(len(specs), nodes, internal))
        return specs

    # ------------------------------------------------------------------
    # unconnected HOPI
    # ------------------------------------------------------------------
    def _pool(self, documents: Set[str]) -> Set[NodeId]:
        """Every element of ``documents``."""
        pool: Set[NodeId] = set()
        for name in documents:
            pool.update(self._collection.document_nodes(name))
        return pool

    def _unconnected_hopi(self, documents: Set[str]) -> List[MetaDocumentSpec]:
        collection = self._collection
        if documents == set(collection.documents):
            graph = collection.graph
        else:
            graph = collection.graph.subgraph(self._pool(documents))
        partitioning = partition_graph(graph, self._config.partition_size)
        return self._specs_from_blocks(partitioning.blocks)

    def _specs_from_blocks(self, blocks, first_id: int = 0) -> List[MetaDocumentSpec]:
        collection = self._collection
        specs = []
        for offset, block in enumerate(blocks):
            internal = [
                (u, v)
                for u in sorted(block)
                for v in sorted(collection.graph.successors(u))
                if v in block
            ]
            specs.append(MetaDocumentSpec(first_id + offset, set(block), internal))
        return specs

    # ------------------------------------------------------------------
    # hybrid partitions
    # ------------------------------------------------------------------
    def _ppo_incompatible_documents(self, documents: Set[str]) -> Set[str]:
        """Documents PPO partitions cannot absorb.

        A document is routed to the Unconnected-HOPI pool when (a) it has
        intra-document links (its own element graph is not a tree), (b) it
        is the target of a *deep* link into a non-root element (that element
        would get a second parent), or (c) its root is shared by two or
        more incoming links.  The remaining documents are exactly those the
        greedy Maximal-PPO forest can work with.
        """
        collection = self._collection
        docs: Set[str] = set()
        root_link_count: Dict[str, int] = {}
        for u, v in collection.link_edges:
            doc_u = collection.info(u).document
            doc_v = collection.info(v).document
            if doc_v not in documents:
                continue
            if doc_u == doc_v:
                docs.add(doc_u)
                continue
            if v == collection.document_root(doc_v):
                root_link_count[doc_v] = root_link_count.get(doc_v, 0) + 1
            else:
                docs.add(doc_v)  # deep link target
        for name, count in root_link_count.items():
            if count >= 2:
                docs.add(name)
        return docs

    def _hybrid(self, documents: Set[str]) -> List[MetaDocumentSpec]:
        collection = self._collection
        linked = self._ppo_incompatible_documents(documents)
        tree_docs = {name for name in documents if name not in linked}
        linked_docs = documents - tree_docs

        specs: List[MetaDocumentSpec] = []
        if tree_docs:
            accepted, union = self._grow_ppo_forest(tree_docs)
            groups: Dict[str, List[str]] = {}
            for name in sorted(tree_docs):
                groups.setdefault(union.find(name), []).append(name)
            accepted_by_group: Dict[str, List[Edge]] = {}
            for u, v in accepted:
                group = union.find(collection.info(u).document)
                accepted_by_group.setdefault(group, []).append((u, v))
            for group in sorted(groups):
                nodes: Set[NodeId] = set()
                internal: List[Edge] = []
                for name in groups[group]:
                    nodes.update(collection.document_nodes(name))
                    internal.extend(self._document_tree_edges(name))
                internal.extend(accepted_by_group.get(group, []))
                specs.append(MetaDocumentSpec(len(specs), nodes, internal))

        if linked_docs:
            sub = collection.graph.subgraph(self._pool(linked_docs))
            partitioning = partition_graph(sub, self._config.partition_size)
            specs.extend(
                self._specs_from_blocks(partitioning.blocks, first_id=len(specs))
            )
        return specs

    # ------------------------------------------------------------------
    # automatic subcollections (section 7)
    # ------------------------------------------------------------------
    def _auto_subcollections(self) -> List[MetaDocumentSpec]:
        specs: List[MetaDocumentSpec] = []
        for subcollection in identify_subcollections(
            self._collection,
            self._config.similarity_threshold,
            self._config.partition_size,
        ):
            specs.extend(
                MetaDocumentBuilder(
                    self._collection, subcollection.config
                ).build_specs(
                    documents=set(subcollection.documents),
                    first_id=len(specs),
                )
            )
        return specs
