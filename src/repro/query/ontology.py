"""Tag and term similarity — the XXL ontology substitute.

In the XXL search engine "similar words as well as similarity scores for
them are extracted from an ontology, which can either be a general-purpose
one like WordNet or an ontology specific to the topic of the query"
(section 1.1).  Neither WordNet nor IMDB's alternative-title list ships
here, so :class:`Ontology` is a small, explicit knowledge base with the
same interface: it stores weighted relations between terms and answers
``similarity(a, b)`` as the maximum-product path weight between them
(capped search depth keeps it fast and monotone).

:func:`default_ontology` preloads the two domains the paper talks about —
movies (``science-fiction`` IS-A ``movie``, ``actor``/``performer``
synonymy, the "Matrix 3" alternative title) and publications (``article`` /
``inproceedings`` / ``paper``).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


class Ontology:
    """Weighted term graph with max-product path similarity."""

    def __init__(self) -> None:
        # undirected weighted adjacency: term -> {term: weight in (0, 1]}
        self._edges: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def relate(self, a: str, b: str, weight: float) -> None:
        """Declare ``a`` and ``b`` similar with the given strength."""
        if not 0.0 < weight <= 1.0:
            raise ValueError("similarity weight must be in (0, 1]")
        a, b = a.lower(), b.lower()
        if a == b:
            return
        self._edges.setdefault(a, {})[b] = max(
            weight, self._edges.get(a, {}).get(b, 0.0)
        )
        self._edges.setdefault(b, {})[a] = max(
            weight, self._edges.get(b, {}).get(a, 0.0)
        )

    def synonym(self, a: str, b: str) -> None:
        """Full synonymy (weight 1.0)."""
        self.relate(a, b, 1.0)

    def is_a(self, special: str, general: str, weight: float = 0.9) -> None:
        """Hyponymy: ``special`` IS-A ``general``."""
        self.relate(special, general, weight)

    def alternative(self, a: str, b: str, weight: float = 0.95) -> None:
        """Alternative names (e.g. movie title variants)."""
        self.relate(a, b, weight)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def similarity(self, a: str, b: str, max_hops: int = 3) -> float:
        """Best-product path weight between ``a`` and ``b`` (1.0 if equal).

        Paths longer than ``max_hops`` are ignored; since all weights are
        <= 1, longer paths can only lose, so the cap rarely matters but
        bounds the search.
        """
        a, b = a.lower(), b.lower()
        if a == b:
            return 1.0
        best: Dict[str, float] = {a: 1.0}
        frontier = {a}
        for _ in range(max_hops):
            next_frontier: Set[str] = set()
            for term in frontier:
                score = best[term]
                for neighbour, weight in self._edges.get(term, {}).items():
                    candidate = score * weight
                    if candidate > best.get(neighbour, 0.0):
                        best[neighbour] = candidate
                        next_frontier.add(neighbour)
            frontier = next_frontier
            if not frontier:
                break
        return best.get(b, 0.0)

    def similar_terms(self, term: str, threshold: float = 0.5) -> List[Tuple[str, float]]:
        """All terms with similarity >= threshold, best first (excl. self)."""
        term = term.lower()
        results: List[Tuple[str, float]] = []
        for other in self._edges:
            if other == term:
                continue
            score = self.similarity(term, other)
            if score >= threshold:
                results.append((other, score))
        results.sort(key=lambda pair: (-pair[1], pair[0]))
        return results

    def expand_tag(self, tag: str, threshold: float = 0.5) -> List[Tuple[str, float]]:
        """The tag itself (score 1.0) plus its similar tags — what the
        engine iterates when a name test carries the ``~`` operator."""
        return [(tag.lower(), 1.0)] + self.similar_terms(tag, threshold)

    def terms(self) -> List[str]:
        return sorted(self._edges)


def default_ontology() -> Ontology:
    """The movie + publication domain knowledge used by paper examples."""
    onto = Ontology()
    # movie domain (section 1.1)
    onto.is_a("science-fiction", "movie")
    onto.synonym("movie", "film")
    onto.relate("movie", "picture", 0.8)
    onto.synonym("actor", "performer")
    onto.relate("actor", "cast", 0.7)
    onto.relate("actor", "star", 0.7)
    onto.alternative("matrix: revolutions", "matrix 3")
    onto.alternative("matrix: reloaded", "matrix 2")
    onto.relate("title", "name", 0.6)
    # publication domain (the DBLP workload)
    onto.is_a("inproceedings", "publication")
    onto.is_a("article", "publication")
    onto.relate("article", "paper", 0.85)
    onto.relate("inproceedings", "paper", 0.85)
    onto.synonym("booktitle", "venue")
    onto.relate("journal", "venue", 0.9)
    onto.relate("author", "creator", 0.8)
    return onto
