"""Synthetic DBLP: the paper's evaluation workload (section 6).

The paper generated "one XML document for each 2nd-level element of DBLP
(article, inproceedings, ...) and chose the corresponding documents for
publications in EDBT, ICDE, SIGMOD and VLDB and articles in TODS and
VLDB-Journal.  The resulting collection consisted of 6,210 documents with
168,991 elements and 25,368 inter-document links."

This generator reproduces that shape deterministically:

* one document per publication with the DBLP record schema
  (``author+ title year pages booktitle|journal volume? ee url cite*``);
* citations (``cite`` elements carrying an ``xlink:href`` to the cited
  record) point to strictly earlier publications, drawn with preferential
  attachment, so the citation graph is an acyclic, skewed-in-degree DAG —
  the "mostly isolated documents, few links" structure the paper says makes
  DBLP a good candidate for Maximal PPO (section 4.3);
* publication 90% through the corpus is *"ARIES: A Transaction Recovery
  Method..."* by C. Mohan at VLDB (the paper's Figure 5 query starts from
  "Mohan's VLDB 99 paper about ARIES"), given an elevated citation budget
  so its transitive citation neighbourhood is rich.

The defaults are scaled down (600 documents) so the test and benchmark
suites run in seconds; ``DblpSpec.paper_scale()`` reproduces the full 6,210
document corpus.  Links-per-document (~4.1) matches the paper at any scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.collection.builder import build_collection
from repro.collection.collection import XmlCollection
from repro.collection.document import XmlDocument
from repro.xmlmodel.dom import XmlElement

#: (venue key, kind, container tag) — the six venues of section 6
VENUES: Tuple[Tuple[str, str, str], ...] = (
    ("EDBT", "inproceedings", "booktitle"),
    ("ICDE", "inproceedings", "booktitle"),
    ("SIGMOD", "inproceedings", "booktitle"),
    ("VLDB", "inproceedings", "booktitle"),
    ("TODS", "article", "journal"),
    ("VLDB-Journal", "article", "journal"),
)

_FIRST_NAMES = (
    "Alice", "Bela", "Chandra", "Dana", "Erik", "Fatima", "Goran", "Hana",
    "Ivan", "Jun", "Katya", "Luis", "Mei", "Nadia", "Omar", "Priya",
)
_LAST_NAMES = (
    "Schmidt", "Okafor", "Tanaka", "Novak", "Costa", "Weiss", "Hansen",
    "Petrov", "Iyer", "Moreau", "Larsen", "Kaya", "Silva", "Berg", "Adler",
)
_TITLE_WORDS = (
    "Adaptive", "Indexing", "Queries", "XML", "Joins", "Streams", "Views",
    "Caching", "Transactions", "Recovery", "Optimization", "Schemas",
    "Partitioning", "Replication", "Mining", "Workloads", "Storage",
    "Semistructured", "Graphs", "Paths",
)

ARIES_TITLE = "ARIES: A Transaction Recovery Method Supporting Fine-Granularity Locking"
ARIES_AUTHOR = "C. Mohan"


@dataclass(frozen=True)
class DblpSpec:
    """Knobs of the synthetic DBLP generator."""

    documents: int = 600
    mean_citations: float = 4.086  # 25,368 / 6,210 — the paper's ratio
    #: extra citations handed to the designated ARIES record so the Figure 5
    #: query has a deep transitive neighbourhood
    aries_citations: int = 25
    #: preferential-attachment strength (0 = uniform over earlier papers)
    citation_skew: float = 0.7
    seed: int = 2004
    min_authors: int = 1
    max_authors: int = 5

    def __post_init__(self) -> None:
        if self.documents < 1:
            raise ValueError("documents must be positive")
        if not 0.0 <= self.citation_skew <= 1.0:
            raise ValueError("citation_skew must be within [0, 1]")

    @classmethod
    def paper_scale(cls) -> "DblpSpec":
        """The full corpus of section 6 (6,210 documents)."""
        return cls(documents=6210)

    @property
    def aries_position(self) -> int:
        """Index of the designated ARIES record (90% through the corpus)."""
        return max(0, int(self.documents * 0.9) - 1)


def generate_dblp_documents(spec: DblpSpec = DblpSpec()) -> List[XmlDocument]:
    """The publication records as standalone documents."""
    rng = random.Random(spec.seed)
    names = [_document_name(i) for i in range(spec.documents)]
    # Preferential-attachment "ball list": every record enters once on
    # creation and once more per citation received, so a uniform draw from
    # the list is a draw proportional to in-degree + 1.
    balls: List[int] = []

    documents: List[XmlDocument] = []
    for position in range(spec.documents):
        is_aries = position == spec.aries_position
        venue, kind, container = (
            ("VLDB", "inproceedings", "booktitle") if is_aries
            else VENUES[rng.randrange(len(VENUES))]
        )
        root = XmlElement(kind, {"key": f"conf/{venue.lower()}/{position}"})
        authors = (
            [ARIES_AUTHOR]
            if is_aries
            else _author_names(rng, spec.min_authors, spec.max_authors)
        )
        for author in authors:
            root.make_child("author", text=author)
        title = ARIES_TITLE if is_aries else _title(rng)
        root.make_child("title", text=title)
        year = 1999 if is_aries else 1985 + (position * 19) // max(1, spec.documents)
        root.make_child("year", text=str(year))
        first_page = rng.randrange(1, 600)
        root.make_child("pages", text=f"{first_page}-{first_page + rng.randrange(8, 30)}")
        root.make_child(container, text=venue)
        if kind == "article":
            root.make_child("volume", text=str(rng.randrange(1, 30)))
            root.make_child("number", text=str(rng.randrange(1, 5)))
        root.make_child("ee", {"href": f"https://doi.example/{position}"})
        root.make_child("url", {"href": f"https://dblp.example/rec/{position}"})
        for cited in _citations(rng, spec, position, balls, is_aries):
            balls.append(cited)
            root.make_child("cite", {"xlink:href": names[cited]})
        documents.append(XmlDocument(names[position], root))
        balls.append(position)
    return documents


def generate_dblp(spec: DblpSpec = DblpSpec()) -> XmlCollection:
    """The assembled collection (documents + resolved citation links)."""
    return build_collection(generate_dblp_documents(spec))


def find_aries(collection: XmlCollection) -> int:
    """Node id of the ARIES record's root — the Figure 5 query start."""
    hits = collection.find_by_text("title", "ARIES")
    if not hits:
        raise LookupError("collection has no ARIES record; not a DBLP dataset?")
    title = hits[0]
    root = collection.element(title).parent
    if root is None:
        raise LookupError("malformed ARIES record")
    return collection.node_id_of(root)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _document_name(position: int) -> str:
    return f"rec{position:06d}.xml"


def _author_names(rng: random.Random, low: int, high: int) -> List[str]:
    count = rng.randint(low, high)
    return [
        f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
        for _ in range(count)
    ]


def _title(rng: random.Random) -> str:
    words = rng.sample(_TITLE_WORDS, k=rng.randint(3, 6))
    return " ".join(words)


def _citations(
    rng: random.Random,
    spec: DblpSpec,
    position: int,
    balls: List[int],
    is_aries: bool,
) -> List[int]:
    """Cited earlier records: preferential attachment, no duplicates."""
    if position == 0:
        return []
    budget = spec.aries_citations if is_aries else _poisson(rng, spec.mean_citations)
    budget = min(budget, position)
    chosen: List[int] = []
    chosen_set = set()
    for _ in range(budget):
        for _attempt in range(8):
            if balls and rng.random() < spec.citation_skew:
                candidate = balls[rng.randrange(len(balls))]
            else:
                candidate = rng.randrange(position)
            if candidate not in chosen_set:
                chosen_set.add(candidate)
                chosen.append(candidate)
                break
    return chosen


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's Poisson sampler (mean is small, so this is fast)."""
    import math

    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
