"""Deterministic inputs: collections, request lists and the mutation script.

Collection specs are fixed per workload; ``--seed`` drives request
sampling and mutation order only.  Everything the program under test
receives is generated here and handed over as plain ``QueryRequest``s,
JSON bodies or documents — the program never sees the seed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro import QueryRequest, XmlDocument
from repro.datasets.dblp import DblpSpec, generate_dblp_documents
from repro.datasets.inex import InexSpec, generate_inex_documents
from repro.xmlmodel import parse_document, serialize

from oracle import Expectation, Oracle

#: the request mix of the read workloads, as exact shares of a list:
#: descendants(root, tag) / descendants(root) / ancestors / test (half
#: connected) / cost / descendants(limit=10)
READ_MIX = (
    ("descendants_tag", 0.55),
    ("descendants_all", 0.10),
    ("ancestors", 0.10),
    ("test", 0.15),
    ("cost", 0.05),
    ("descendants_top10", 0.05),
)

#: a start element is kept only when the oracle has at least this many
#: matches — and at most that many: a handful of monster answers (the
#: ancestors of a record cited by half the corpus take a thousand times the
#: median) would otherwise decide every mean, and differ from seed to seed
MIN_MATCHES = 5
MAX_MATCHES = 2000
#: the cap of the HTTP workloads, whose subject is the serving path: with
#: three busy processes on two cores, the CPU-bound tail of big answers
#: is where the sandbox's noise lands hardest
MAX_MATCHES_HTTP = 600

#: the mutation mix of ``dblp_lifecycle``, per block of 20 mutations
MUTATION_BLOCK = (
    ("add", 12), ("update", 3), ("remove", 3), ("add_batch", 2),
)
BATCH_DOCUMENTS = 5
READS_PER_MUTATION = 5


# ----------------------------------------------------------------------
# collections
# ----------------------------------------------------------------------
def dblp_documents(documents: int) -> list:
    return generate_dblp_documents(DblpSpec(documents=documents))


def hetero_documents(dblp: int, articles: int) -> list:
    """DBLP records plus INEX-style articles with cross citations — the
    paper's "complex collection" of heterogeneous, interlinked sources."""
    return generate_dblp_documents(DblpSpec(documents=dblp)) + (
        generate_inex_documents(
            InexSpec(articles=articles, cross_citation_rate=0.5)
        )
    )


# ----------------------------------------------------------------------
# request sampling
# ----------------------------------------------------------------------
@dataclass
class Sampled:
    """One generated request with the oracle's answer for it."""

    request: QueryRequest
    expectation: Expectation


def request_to_json(request: QueryRequest) -> Dict:
    """The front door's JSON rendering of a request (non-default fields)."""
    body: Dict = {"kind": request.kind}
    for key in ("source", "target", "tag", "limit"):
        value = getattr(request, key)
        if value is not None:
            body[key] = value
    return body


def requests_sha256(requests: Sequence[QueryRequest], extra: Sequence = ()) -> str:
    """Digest proving two result files ran the same inputs."""
    canonical = json.dumps(
        [request_to_json(r) for r in requests] + list(extra),
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _kind_counts(count: int) -> Dict[str, int]:
    """How many of ``count`` requests each kind of :data:`READ_MIX` gets
    (largest remainders, so the shares are as exact as ``count`` allows)."""
    exact = {kind: share * count for kind, share in READ_MIX}
    counts = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(exact, key=lambda k: exact[k] - counts[k], reverse=True)
    for kind in by_remainder[: count - sum(counts.values())]:
        counts[kind] += 1
    return counts


def closure_documents(collection, forward: bool = True) -> Dict[str, int]:
    """How many documents each document reaches (or, reversed, is reached
    by) over inter-document links, itself included.

    This is the sampler's cost predictor: an answer's size — and the work
    of producing it — follows the closure of its start.  Bit sets over the
    document graph, propagated to a fixpoint (one sweep when links point
    backwards, as citations do)."""
    names = list(collection.documents)
    position = {name: i for i, name in enumerate(names)}
    linked: List[List[int]] = [[] for _ in names]
    for name, document in collection.documents.items():
        for link in document.links:
            target = position.get(link.target_document)
            if target is not None and target != position[name]:
                if forward:
                    linked[position[name]].append(target)
                else:
                    linked[target].append(position[name])
    reach = [1 << i for i in range(len(names))]
    changed = True
    while changed:
        changed = False
        for order in (range(len(names)), reversed(range(len(names)))):
            for i in order:
                merged = reach[i]
                for j in linked[i]:
                    merged |= reach[j]
                if merged != reach[i]:
                    reach[i] = merged
                    changed = True
    return {name: reach[i].bit_count() for name, i in position.items()}


def _frequent_tags(collection, distances: Dict[int, int], source: int) -> List[str]:
    histogram: Dict[str, int] = {}
    tag_of = collection.tag
    for node in distances:
        if node != source:
            tag = tag_of(node)
            histogram[tag] = histogram.get(tag, 0) + 1
    return sorted(t for t, n in histogram.items() if n >= MIN_MATCHES)


def _make_request(
    kind: str, source: int, oracle: Oracle, far_roots: Sequence[int],
    rng: random.Random, want_connected: bool, max_matches: int,
) -> Optional[QueryRequest]:
    """A request of ``kind`` from ``source``, or ``None`` when the oracle
    has too few or too many matches there."""
    collection = oracle.collection
    if kind == "ancestors":
        if not MIN_MATCHES < len(oracle.reach(source, forward=False)) <= max_matches:
            return None
        return QueryRequest.ancestors(source)
    reached = oracle.reach(source, forward=True)
    if not MIN_MATCHES < len(reached) <= max_matches:
        return None
    if kind == "descendants_all":
        return QueryRequest.descendants(source)
    if kind == "descendants_tag":
        tags = _frequent_tags(collection, reached, source)
        if not tags:
            return None
        return QueryRequest.descendants(source, tag=rng.choice(tags))
    if kind == "descendants_top10":
        if len(reached) <= 10:
            return None
        return QueryRequest.descendants(source, limit=10)
    # test / cost: a connected target comes from the closure, an
    # unconnected one is a document root outside it
    if want_connected:
        candidates = sorted(n for n, d in reached.items() if d >= 2)
        if not candidates:
            return None
        target = rng.choice(candidates)
    else:
        outside = [n for n in far_roots if n not in reached]
        if not outside:
            return None
        target = rng.choice(outside)
    if kind == "test":
        return QueryRequest.test(source, target)
    return QueryRequest.cost(source, target)


def sample_requests(
    oracle: Oracle, count: int, rng: random.Random,
    max_matches: int = MAX_MATCHES,
) -> List[Sampled]:
    """``count`` distinct requests from document roots, in the
    :data:`READ_MIX` shares, in seed-shuffled order.

    Stratified on the cost predictor: per kind, the documents are ranked
    by closure size and cut into as many strata as the kind has requests;
    the seed picks the document within each stratum (and the tag, and the
    target).  Every seed so asks different questions with the same spread
    of answer sizes — drawn freely, the few largest closures a seed
    happens to hit would decide its percentiles.
    """
    collection = oracle.collection
    names = list(collection.documents)
    far_roots = [
        collection.document_root(name)
        for name in rng.sample(names, min(len(names), 64))
    ]
    sampled: List[Sampled] = []
    seen = set()
    connected = itertools.cycle((True, False))

    def take(kind: str, members: List[str], wanted: int) -> int:
        """Up to ``wanted`` requests of ``kind`` from the documents left
        in ``members``; returns how many it made."""
        made = 0
        while made < wanted and members:
            request = _make_request(
                kind, collection.document_root(members.pop()), oracle,
                far_roots, rng, next(connected), max_matches,
            )
            if request is None:
                continue
            key = (request.cache_key(), request.limit)
            if key not in seen:
                seen.add(key)
                sampled.append(Sampled(request, oracle.expect(request)))
                made += 1
        return made

    sizes = {True: closure_documents(collection, True),
             False: closure_documents(collection, False)}
    # closures of more documents than this cannot stay under the cap
    largest = max_matches * len(names) / collection.node_count
    for kind, wanted in _kind_counts(count).items():
        size = sizes[kind != "ancestors"]
        ranked = sorted(
            (n for n in names if 1 < size[n] <= largest),
            key=lambda n: (size[n], n),
        )
        strata = []
        for stratum in range(wanted):
            low = stratum * len(ranked) // wanted
            high = max(low + 1, (stratum + 1) * len(ranked) // wanted)
            members = ranked[low:high]
            rng.shuffle(members)
            strata.append(members)
        owed = 0  # what strata without a usable start leave to the next
        for members in strata:
            owed += 1
            owed -= take(kind, members, owed)
        for members in reversed(strata):  # and, at the end, to the previous
            owed -= take(kind, members, owed)
        if owed:
            raise RuntimeError(
                f"the collection has too few start documents with "
                f"{MIN_MATCHES}..{max_matches} oracle matches for {wanted} "
                f"{kind} requests"
            )
    rng.shuffle(sampled)
    return sampled


def zipf_indices(
    rng: random.Random, population: int, draws: int, s: float = 1.0,
) -> List[int]:
    """``draws`` indices in ``range(population)``, index ``k`` drawn with
    probability proportional to ``1 / (k + 1) ** s``."""
    cumulative = list(itertools.accumulate(
        1.0 / (rank ** s) for rank in range(1, population + 1)
    ))
    total = cumulative[-1]
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), population - 1)
        for _ in range(draws)
    ]


# ----------------------------------------------------------------------
# the lifecycle mutation script
# ----------------------------------------------------------------------
@dataclass
class Mutation:
    verb: str  # add / update / remove / add_batch
    documents: list  # documents to add (add, update, add_batch)
    name: Optional[str] = None  # document to remove
    #: names of the documents the touched ones cite — where the reads
    #: that follow the mutation look
    near: Sequence[str] = ()


def _edited(document, rng: random.Random):
    """A changed copy of ``document`` for ``update_document``: same name,
    one more author — the element count (and every later node id) moves."""
    root = parse_document(serialize(document.root, declaration=True))
    root.make_child("author", text=f"Editor {rng.randrange(1000)}")
    return XmlDocument(document.name, root)


def mutation_script(
    held_out: Sequence, rng: random.Random,
) -> Iterator[Mutation]:
    """An endless, seed-ordered stream of mutations in the
    :data:`MUTATION_BLOCK` mix.  Adds draw held-out documents in corpus
    order (citations point backwards, so most resolve); removed documents
    rejoin the back of the pool and may be added again."""
    by_name = {}
    pool = list(held_out)
    removable: List[str] = []  # only documents this script added

    def take():
        if not pool:
            raise RuntimeError(
                "the held-out pool ran dry; enlarge the workload's held_out"
            )
        document = pool.pop(0)
        by_name[document.name] = document
        removable.append(document.name)
        return document

    while True:
        verbs = [v for v, n in MUTATION_BLOCK for _ in range(n)]
        rng.shuffle(verbs)
        for verb in verbs:
            if verb in ("update", "remove") and not removable:
                verb = "add"
            if verb == "add":
                documents = [take()]
            elif verb == "add_batch":
                documents = [take() for _ in range(BATCH_DOCUMENTS)]
            elif verb == "update":
                name = rng.choice(removable)
                by_name[name] = _edited(by_name[name], rng)
                documents = [by_name[name]]
            else:
                name = removable.pop(rng.randrange(len(removable)))
                pool.append(by_name[name])
                yield Mutation(
                    "remove", [], name=name, near=_cited(by_name[name])
                )
                continue
            near = [n for document in documents for n in _cited(document)]
            yield Mutation(verb, documents, near=near)


def _cited(document) -> List[str]:
    """Names of the documents ``document`` cites (its XLink targets)."""
    return [
        link.target_document for link in document.links
        if link.target_document is not None
    ]
