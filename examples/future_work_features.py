"""Section 7's future-work list, implemented and demonstrated.

1. automatic homogeneous-subcollection detection with per-part
   configurations;
2. result caching for frequent queries;
3. incremental growth (adding documents without a rebuild);
4. generalized connection models (penalized links, reversed edges).

(Exactly sorted results, the list's remaining item, were measured and
left out: see ``docs/PAPER_MAP.md``.)

Run with::

    python examples/future_work_features.py
"""

import time

from repro import (
    CacheConfig,
    Flix,
    FlixConfig,
    QueryRequest,
    XmlDocument,
    build_collection,
)
from repro.core.connections import ConnectionEvaluator, ConnectionModel
from repro.core.subcollections import identify_subcollections
from repro.datasets.dblp import DblpSpec, generate_dblp_documents
from repro.datasets.movies import generate_movie_collection
from repro.datasets.synthetic import SyntheticSpec, generate_synthetic_documents


def heading(text: str) -> None:
    print()
    print(f"== {text} ==")


def main() -> None:
    # ------------------------------------------------------------------
    heading("1. automatic subcollections on a heterogeneous collection")
    documents = generate_dblp_documents(DblpSpec(documents=60, mean_citations=0.0))
    documents += generate_synthetic_documents(
        SyntheticSpec(documents=12, links_per_document=4.0,
                      intra_links_per_document=0.5, seed=5)
    )
    collection = build_collection(documents)
    flix = Flix.build(
        collection, FlixConfig.auto_subcollections(partition_size=300)
    )
    for subcollection in identify_subcollections(
        collection, partition_size=300
    ):
        print(f"  {subcollection.summary()}")
    print(f"  -> {flix.report.summary()}")

    # ------------------------------------------------------------------
    heading("2. result caching")
    start = collection.document_root(sorted(collection.documents)[-1])
    flix.configure_cache(CacheConfig(maxsize=32, shards=1))
    began = time.perf_counter()
    list(flix.query_stream(QueryRequest.descendants(start)))
    cold = time.perf_counter() - began
    began = time.perf_counter()
    list(flix.query_stream(QueryRequest.descendants(start)))
    warm = time.perf_counter() - began
    print(f"  cold query: {cold * 1000:.3f} ms, cached repeat: {warm * 1000:.3f} ms "
          f"(hits={flix.cache_hits})")

    # ------------------------------------------------------------------
    heading("3. incremental growth")
    new_doc = XmlDocument.from_text(
        "latest.xml",
        f'<article key="new/1"><title>Fresh Results</title>'
        f'<cite xlink:href="{sorted(collection.documents)[0]}"/></article>',
    )
    began = time.perf_counter()
    meta = flix.add_document(new_doc)
    elapsed = time.perf_counter() - began
    print(f"  added latest.xml as meta document {meta.meta_id} "
          f"({meta.strategy}) in {elapsed * 1000:.2f} ms — no rebuild")
    root = collection.document_root("latest.xml")
    grown = flix.query(QueryRequest.descendants(root))
    print(f"  its descendants now include {len(grown)} elements")

    # ------------------------------------------------------------------
    heading("4. generalized connection models")
    movies = generate_movie_collection()
    evaluator = ConnectionEvaluator(movies)
    (title,) = movies.find_by_text("title", "Matrix: Revolutions")
    matrix3 = movies.node_id_of(movies.element(title).parent)
    for label, model in (
        ("descendants (uniform)", ConnectionModel.descendants()),
        ("link-penalized (x3)", ConnectionModel.link_penalized(3.0)),
        ("undirected (reverse x2)", ConnectionModel.undirected()),
    ):
        reachable = list(evaluator.find_connected(matrix3, model=model))
        movies_reached = [
            n for n, _c in reachable
            if movies.tag(n) in ("movie", "film", "science-fiction")
        ]
        print(f"  {label:24s}: {len(reachable):3d} elements, "
              f"{len(movies_reached)} movies reachable")


if __name__ == "__main__":
    main()
