"""Automatic homogeneous-subcollection detection (section 7).

"We plan to investigate more sophisticated algorithms for building meta
documents, including automatic methods that analyze the document
collection, identify homogeneous subcollections, and choose the best
indexing strategy for each subcollection."

This module implements that pipeline:

1. every document is described by a structural feature vector — its
   normalized tag histogram plus link-behaviour features (has intra links,
   is a deep-link target, outgoing link rate);
2. a deterministic leader-clustering pass groups documents whose feature
   vectors are cosine-similar into *subcollections*;
3. each subcollection gets the configuration
   :meth:`repro.core.config.FlixConfig.recommend` derives from its own
   statistics.

The Meta Document Builder's ``auto_subcollections`` strategy
(``Flix.build(collection, FlixConfig.auto_subcollections())``) lays each
subcollection out under its own configuration and hands the merged specs
to the one build pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.collection.collection import XmlCollection
from repro.collection.stats import CollectionStats, collect_statistics
from repro.core.config import FlixConfig


@dataclass
class Subcollection:
    """A structurally homogeneous group of documents."""

    documents: List[str]
    stats: CollectionStats
    config: FlixConfig

    @property
    def document_count(self) -> int:
        return len(self.documents)

    def summary(self) -> str:
        return (
            f"{self.document_count} documents -> {self.config.name} "
            f"({self.stats.link_edge_count} links, "
            f"{self.stats.element_count} elements)"
        )


# ----------------------------------------------------------------------
# feature extraction and clustering
# ----------------------------------------------------------------------
def _document_features(collection: XmlCollection) -> Dict[str, Dict[str, float]]:
    """Sparse feature vector per document: tag shares + link behaviour."""
    outgoing: Dict[str, int] = {}
    intra: Dict[str, int] = {}
    deep_target: Dict[str, int] = {}
    for u, v in collection.link_edges:
        doc_u = collection.info(u).document
        doc_v = collection.info(v).document
        outgoing[doc_u] = outgoing.get(doc_u, 0) + 1
        if doc_u == doc_v:
            intra[doc_u] = intra.get(doc_u, 0) + 1
        elif v != collection.document_root(doc_v):
            deep_target[doc_v] = deep_target.get(doc_v, 0) + 1

    features: Dict[str, Dict[str, float]] = {}
    for name in collection.documents:
        nodes = collection.document_nodes(name)
        vector: Dict[str, float] = {}
        for node in nodes:
            tag_key = "tag:" + collection.tag(node)
            vector[tag_key] = vector.get(tag_key, 0.0) + 1.0
        size = float(len(nodes))
        for key in list(vector):
            vector[key] /= size
        # link-behaviour features, weighted so they matter next to tags
        vector["link:out"] = min(1.0, outgoing.get(name, 0) / size * 4.0)
        vector["link:intra"] = 1.0 if intra.get(name) else 0.0
        vector["link:deep_target"] = 1.0 if deep_target.get(name) else 0.0
        features[name] = vector
    return features


def _cosine(a: Dict[str, float], b: Dict[str, float]) -> float:
    if len(a) > len(b):
        a, b = b, a
    dot = sum(value * b.get(key, 0.0) for key, value in a.items())
    norm_a = math.sqrt(sum(value * value for value in a.values()))
    norm_b = math.sqrt(sum(value * value for value in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def identify_subcollections(
    collection: XmlCollection,
    similarity_threshold: float = 0.75,
    partition_size: int = 5000,
) -> List[Subcollection]:
    """Cluster the documents into homogeneous subcollections.

    Deterministic leader clustering: documents are visited in name order;
    each joins the first existing cluster whose leader vector it is at
    least ``similarity_threshold``-cosine-similar to, else founds a new
    cluster.  Each cluster then gets its own recommended configuration.
    """
    if not 0.0 < similarity_threshold <= 1.0:
        raise ValueError("similarity_threshold must be in (0, 1]")
    features = _document_features(collection)
    leaders: List[Tuple[str, Dict[str, float]]] = []
    members: Dict[str, List[str]] = {}
    for name in sorted(collection.documents):
        vector = features[name]
        placed = False
        for leader_name, leader_vector in leaders:
            if _cosine(vector, leader_vector) >= similarity_threshold:
                members[leader_name].append(name)
                placed = True
                break
        if not placed:
            leaders.append((name, vector))
            members[name] = [name]

    subcollections: List[Subcollection] = []
    for leader_name, _vector in leaders:
        documents = members[leader_name]
        nodes: Set[int] = set()
        for name in documents:
            nodes.update(collection.document_nodes(name))
        stats = collect_statistics(collection, nodes)
        config = FlixConfig.recommend(
            link_density=stats.link_density,
            intra_document_links=stats.intra_document_links,
            mean_document_size=stats.mean_document_size,
            partition_size=partition_size,
            intra_link_fraction=stats.intra_link_fraction,
        )
        subcollections.append(Subcollection(documents, stats, config))
    return subcollections
