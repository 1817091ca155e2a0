"""The paper's evaluation scenario on synthetic DBLP (section 6).

Builds the six-system lineup of the paper (monolithic HOPI and APEX, plus
four FliX configurations), runs the Figure 5 query — "all article
descendants of Mohan's VLDB 99 paper about ARIES" — and prints Table-1
style sizes, time-to-k series, and the first results.

Run with::

    python examples/dblp_search.py [documents]
"""

import sys

from repro import QueryRequest
from repro.bench import (
    build_all_systems,
    figure5_query,
    format_series,
    time_to_k,
)
from repro.bench.reporting import BenchTable
from repro.datasets.dblp import DblpSpec, generate_dblp
from repro.storage.sizing import format_bytes


def main() -> None:
    documents = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    print(f"generating synthetic DBLP with {documents} records ...")
    collection = generate_dblp(DblpSpec(documents=documents))
    print(f"  {collection}")
    print()

    print("building the paper's system lineup ...")
    systems = build_all_systems(collection)

    table = BenchTable("index sizes", ["system", "size", "build [s]"])
    for system in systems:
        table.add_row(
            system.name, format_bytes(system.size_bytes), system.build_seconds
        )
    print()
    print(table.render())
    print()

    start, tag = figure5_query(collection)
    title_element = collection.element(start).find("title")
    title = title_element.text if title_element is not None else "?"
    print(f"Figure 5 query: descendants of {title!r} with tag {tag!r}")
    checkpoints = [1, 5, 10, 50, 100]
    series = {}
    request = QueryRequest.descendants(start, tag=tag)
    for system in systems:
        series[system.name] = time_to_k(
            lambda: system.flix.query_stream(request), checkpoints
        )
    print()
    print(format_series("seconds to k results", checkpoints, series))
    print()

    # stream the first 10 results from the best-to-first-result system
    flix = min(systems, key=lambda s: series[s.name][1]).flix
    print(f"first results from {min(series, key=lambda n: series[n][1])}:")
    for result in flix.query_stream(QueryRequest.descendants(start, tag=tag, limit=10)):
        record = collection.element(result.node)
        record_title = record.find("title")
        print(
            f"  distance {result.distance}: "
            f"{record_title.text if record_title else '?'}"
        )


if __name__ == "__main__":
    main()
