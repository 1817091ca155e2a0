"""Parameterized synthetic collections for ablations and stress tests.

The paper's design discussion keeps returning to two structural knobs:
*how large are the documents* and *how dense are the links* (sections 2.2,
4.1, 4.3).  :func:`generate_synthetic_collection` sweeps exactly those, and
:func:`generate_figure1_collection` rebuilds the shape of the paper's
Figure 1 — a tree-shaped subcollection (documents 1-4) next to a densely
interlinked one (documents 5-10) — which is the motivating input for the
Hybrid Partitions configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.collection.builder import build_collection
from repro.collection.collection import XmlCollection
from repro.collection.document import XmlDocument
from repro.xmlmodel.dom import XmlElement

_DEFAULT_TAGS = ("section", "item", "entry", "record", "note", "ref", "data")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the synthetic collection generator."""

    documents: int = 50
    mean_document_size: int = 30
    #: inter-document links per document (targets: roots or anchors)
    links_per_document: float = 1.0
    #: fraction of inter-document links that point at a non-root anchor
    deep_link_fraction: float = 0.3
    #: intra-document idref links per document
    intra_links_per_document: float = 0.0
    tags: Sequence[str] = _DEFAULT_TAGS
    max_children: int = 4
    seed: int = 42

    def __post_init__(self) -> None:
        if self.documents < 1 or self.mean_document_size < 1:
            raise ValueError("documents and mean_document_size must be positive")
        if not 0.0 <= self.deep_link_fraction <= 1.0:
            raise ValueError("deep_link_fraction must be within [0, 1]")


def random_tree_document(
    name: str,
    size: int,
    rng: random.Random,
    tags: Sequence[str] = _DEFAULT_TAGS,
    max_children: int = 4,
) -> XmlDocument:
    """A random rooted tree with ``size`` elements and anchored ids.

    Every element gets an ``id`` attribute (``<name>#e<i>``-addressable) so
    deep links into the document are possible.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if max_children < 1:
        raise ValueError("max_children must be positive")
    root = XmlElement("doc", {"id": "e0"})
    elements = [root]
    for i in range(1, size):
        parent = elements[rng.randrange(len(elements))]
        while len(parent.children) >= max_children:
            # a fresh leaf always has capacity, so this terminates
            parent = elements[rng.randrange(len(elements))]
        child = parent.make_child(rng.choice(list(tags)), {"id": f"e{i}"})
        child.append_text(f"payload {i}")
        elements.append(child)
    return XmlDocument(name, root)


def generate_synthetic_documents(spec: SyntheticSpec = SyntheticSpec()) -> List[XmlDocument]:
    rng = random.Random(spec.seed)
    names = [f"doc{i:05d}.xml" for i in range(spec.documents)]
    sizes = [
        max(2, int(rng.gauss(spec.mean_document_size, spec.mean_document_size / 4)))
        for _ in range(spec.documents)
    ]
    documents = [
        random_tree_document(names[i], sizes[i], rng, spec.tags, spec.max_children)
        for i in range(spec.documents)
    ]

    # Inter-document links: from a random element to a random other
    # document's root (or a deep anchor for deep_link_fraction of them).
    total_links = round(spec.links_per_document * spec.documents)
    for _ in range(total_links):
        source_doc = documents[rng.randrange(spec.documents)]
        target_index = rng.randrange(spec.documents)
        if names.index(source_doc.name) == target_index and spec.documents > 1:
            target_index = (target_index + 1) % spec.documents
        target_doc = documents[target_index]
        source_element = source_doc.elements[rng.randrange(source_doc.element_count)]
        if rng.random() < spec.deep_link_fraction and target_doc.element_count > 1:
            anchor = f"e{rng.randrange(1, target_doc.element_count)}"
            href = f"{target_doc.name}#{anchor}"
        else:
            href = target_doc.name
        source_element.make_child("link", {"xlink:href": href})
        source_doc.invalidate_caches()

    # Intra-document idref links.
    total_intra = round(spec.intra_links_per_document * spec.documents)
    for _ in range(total_intra):
        document = documents[rng.randrange(spec.documents)]
        if document.element_count < 3:
            continue
        source = document.elements[rng.randrange(document.element_count)]
        target_ordinal = rng.randrange(document.element_count)
        source.make_child("ref", {"idref": f"e{target_ordinal}"})
        document.invalidate_caches()
    return documents


def generate_synthetic_collection(spec: SyntheticSpec = SyntheticSpec()) -> XmlCollection:
    return build_collection(generate_synthetic_documents(spec))


def generate_figure1_collection(
    document_size: int = 25,
    seed: int = 1,
) -> XmlCollection:
    """Ten documents shaped like the paper's Figure 1.

    Documents 1-4 form a tree at the document level (links point at roots,
    each root referenced at most once), documents 5-10 are densely
    interlinked with multiple and deep links, including a back edge.
    """
    rng = random.Random(seed)
    names = [f"d{i:02d}.xml" for i in range(1, 11)]
    documents = [
        random_tree_document(name, document_size, rng) for name in names
    ]
    by_name = {doc.name: doc for doc in documents}

    def add_link(source_name: str, target_name: str, deep: bool = False) -> None:
        source = by_name[source_name]
        element = source.elements[rng.randrange(source.element_count)]
        target = by_name[target_name]
        if deep and target.element_count > 1:
            href = f"{target_name}#e{rng.randrange(1, target.element_count)}"
        else:
            href = target_name
        element.make_child("link", {"xlink:href": href})
        source.invalidate_caches()

    # Tree-shaped part: 1 -> 2, 1 -> 3, 3 -> 4 (all to roots, no sharing).
    add_link("d01.xml", "d02.xml")
    add_link("d01.xml", "d03.xml")
    add_link("d03.xml", "d04.xml")
    # Densely linked part: a web over documents 5-10 with deep links and a
    # cycle (d10 -> d05).
    dense = names[4:]
    for source_name in dense:
        for target_name in dense:
            if source_name != target_name and rng.random() < 0.5:
                add_link(source_name, target_name, deep=rng.random() < 0.5)
    add_link("d10.xml", "d05.xml")
    # One bridge between the two worlds, like the d5 -> d4 edge of Figure 3.
    add_link("d05.xml", "d04.xml", deep=True)
    return build_collection(documents)
