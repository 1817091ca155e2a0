"""Figure 1's heterogeneous collection under the Hybrid configuration.

A collection whose first four documents form a document-level tree while
the other six are densely interlinked (the paper's Figure 1).  The Hybrid
Partitions configuration gives the tree-shaped part PPO meta documents and
the dense part HOPI partitions; this example shows the Meta Document
Builder's decisions, the Indexing Strategy Selector's rationales, and the
multithreaded streamed delivery with client-side cancellation.

Run with::

    python examples/heterogeneous_collection.py
"""

import time

from repro import (
    Flix,
    FlixConfig,
    QueryRequest,
    StreamedList,
    collect_statistics,
)
from repro.datasets.synthetic import generate_figure1_collection


def main() -> None:
    collection = generate_figure1_collection(document_size=40)
    stats = collect_statistics(collection)
    print(f"collection: {stats.summary()}")
    print()

    for config in (
        FlixConfig.naive(),
        FlixConfig.maximal_ppo(),
        FlixConfig.unconnected_hopi(120),
        FlixConfig.hybrid(120),
    ):
        flix = Flix.build(collection, config)
        report = flix.report
        print(report.summary())
    print()

    # Hybrid in detail: which meta document got which strategy, and why?
    flix = Flix.build(collection, FlixConfig.hybrid(120))
    print("hybrid meta documents (strategy selector rationales):")
    for meta in flix.report.meta_documents:
        print(
            f"  meta {meta.meta_id:2d}: {meta.node_count:4d} nodes "
            f"-> {meta.strategy:5s} ({meta.rationale})"
        )
    print()

    # Streamed, multithreaded delivery (section 3.1): the client reads from
    # a list the framework fills, and may cancel at any time.
    start = collection.document_root("d05.xml")
    stream = StreamedList.feed(
        flix.query_stream(QueryRequest.descendants(start))
    )
    print("streaming descendants of d05's root (cancelling after 8):")
    consumed = 0
    for result in stream:
        print(f"  got node {result.node} at distance {result.distance}")
        consumed += 1
        if consumed >= 8:
            stream.cancel()
            break
    time.sleep(0.05)  # let the producer thread notice and wind down
    print(f"  delivered before cancellation: {len(stream)}")


if __name__ == "__main__":
    main()
