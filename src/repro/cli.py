"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``stats <dir>``
    Parse a directory of XML files and print the collection statistics the
    Meta Document Builder works from.

``build <dir> [--config NAME] [--partition-size N]``
    Run the build phase and print the build report (meta documents,
    strategies, rationales, sizes).

``query <dir> <start> <tag> [--config ...] [--limit K] [--max-distance D]``
    Evaluate ``start//tag`` and print the streamed results.  ``start`` is
    ``document.xml`` (that document's root) or ``document.xml#id`` (the
    anchored element).  ``tag`` may be ``*`` for the wildcard.

``explain <dir> <start> <tag> [--config ...] [--max-distance D]
          [--limit K] [--json]``
    Print the :class:`~repro.core.planner.QueryPlan` for ``start//tag``
    without running it: the meta documents the query can probe, with
    their strategy and residual-link fan-out, and the ones no residual
    link from the source reaches (see ``docs/PLANNING.md``).

``relaxed <dir> <query> [--top-k K]``
    Evaluate a relaxed path query (e.g. ``'//~movie//actor'``) with the
    default ontology and print ranked matches.

``demo-dblp [--documents N]``
    Generate the synthetic DBLP corpus and print the paper's section 6
    comparison (index sizes + Figure 5 series) on it.

``metrics <dir> [--config ...] [--queries N] [--format json|prom]
          [--no-observability] [--trace]``
    Build the collection, run ``N`` sample descendant queries (one per
    document root, wildcard tag), and print the collected metrics in the
    chosen exporter format (see ``docs/OBSERVABILITY.md``).  ``--trace``
    additionally prints the last query's span tree.

``repair <dir> <index_dir> [--check]``
    Verify a persisted index's per-file checksums against its manifest
    and rebuild only the damaged files from the collection (see
    ``docs/RESILIENCE.md``).  ``--check`` reports damage without
    repairing (exit status 1 when damage is found).

``shard-plan <dir> <index_dir> [--shards N]``
    Partition a saved index's meta documents into ``N`` shards over the
    meta-level residual-link graph, persist the resulting
    ``shard_map.json`` next to the index, and print the plan (per-shard
    weights, cross-shard links; see ``docs/SHARDING.md``).

``serve <dir> <index_dir> [--shards N] [--host H] [--port P]
        [--cross-shard delegate|distributed] [--cache-size N]``
    Spawn ``N`` shard worker processes over the saved index (planning a
    shard map first if none exists), connect a ``ShardCoordinator``, and
    serve ``POST /query``, ``POST /explain``, ``GET /health``,
    ``GET /metrics`` over HTTP
    until interrupted (see ``docs/SHARDING.md``).  SIGTERM drains
    gracefully: in-flight requests finish, workers fsync their WAL
    tails, everything exits 0.

``recover <dir> <index_dir> [--snapshot]``
    Crash recovery (``docs/DURABILITY.md``): load the last saved
    snapshot, replay the ``wal.log`` beside it to its valid tail
    (discarding any torn record a crash left), and print what was
    applied.  ``--snapshot`` then saves the recovered state, which
    checkpoints (truncates) the log.

``wal <index_dir> [--json]``
    Inspect a write-ahead log: base/tail generations, the logged verbs,
    and whether a torn tail is present.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.collection.collection import XmlCollection
from repro.collection.io import load_collection, save_collection
from repro.collection.stats import collect_statistics
from repro.core.config import FlixConfig
from repro.core.framework import Flix

_CONFIG_CHOICES = ("auto", "naive", "maximal_ppo", "unconnected_hopi", "hybrid")


def _make_config(name: str, partition_size: int) -> Optional[FlixConfig]:
    if name == "auto":
        return None
    if name == "naive":
        return FlixConfig.naive()
    if name == "maximal_ppo":
        return FlixConfig.maximal_ppo()
    if name == "unconnected_hopi":
        return FlixConfig.unconnected_hopi(partition_size)
    if name == "hybrid":
        return FlixConfig.hybrid(partition_size)
    raise AssertionError(f"unreachable config {name!r}")


def _resolve_start(collection: XmlCollection, spec: str) -> int:
    if "#" in spec:
        document_name, fragment = spec.split("#", 1)
        document = collection.documents.get(document_name)
        if document is None:
            raise SystemExit(f"error: no document named {document_name!r}")
        element = document.anchors.get(fragment)
        if element is None:
            raise SystemExit(
                f"error: no element with id={fragment!r} in {document_name!r}"
            )
        return collection.node_id_of(element)
    if spec not in collection.documents:
        raise SystemExit(f"error: no document named {spec!r}")
    return collection.document_root(spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FliX: flexible indexing of linked XML collections "
        "(EDBT 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print collection statistics")
    stats.add_argument("directory")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def add_build_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", choices=_CONFIG_CHOICES, default="auto")
        p.add_argument("--partition-size", type=int, default=5000)
        p.add_argument(
            "--jobs",
            type=positive_int,
            default=1,
            help="worker processes for the per-meta-document index builds "
            "(1 = sequential; any value yields an identical index)",
        )

    build = sub.add_parser("build", help="run the build phase, print the report")
    build.add_argument("directory")
    add_build_options(build)
    build.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase build timings (queue wait, graph, "
        "selection, index) and the slowest meta documents",
    )

    query = sub.add_parser("query", help="evaluate start//tag")
    query.add_argument("directory")
    query.add_argument("start", help="document.xml or document.xml#id")
    query.add_argument("tag", help="element name, or * for the wildcard")
    add_build_options(query)
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--max-distance", type=int, default=None)
    query.add_argument(
        "--index-dir",
        default=None,
        help="persisted-index directory: loaded when present, created "
        "(build + save) otherwise",
    )

    explain = sub.add_parser(
        "explain",
        help="print the meta documents start//tag can probe without "
        "running it (docs/PLANNING.md)",
    )
    explain.add_argument("directory")
    explain.add_argument("start", help="document.xml or document.xml#id")
    explain.add_argument("tag", help="element name, or * for the wildcard")
    add_build_options(explain)
    explain.add_argument("--limit", type=int, default=None)
    explain.add_argument("--max-distance", type=int, default=None)
    explain.add_argument(
        "--index-dir",
        default=None,
        help="persisted-index directory: loaded when present, created "
        "(build + save) otherwise",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="print the raw QueryPlan JSON instead of the table",
    )

    relaxed = sub.add_parser("relaxed", help="evaluate a relaxed path query")
    relaxed.add_argument("directory")
    relaxed.add_argument("query")
    add_build_options(relaxed)
    relaxed.add_argument("--top-k", type=int, default=10)

    demo = sub.add_parser("demo-dblp", help="run the paper's DBLP comparison")
    demo.add_argument("--documents", type=int, default=300)

    metrics = sub.add_parser(
        "metrics", help="build, run sample queries, print collected metrics"
    )
    metrics.add_argument("directory")
    add_build_options(metrics)
    metrics.add_argument(
        "--queries",
        type=int,
        default=3,
        help="sample descendant queries to run before exporting (default 3)",
    )
    metrics.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="exporter: structured JSON or Prometheus text format",
    )
    metrics.add_argument(
        "--no-observability",
        action="store_true",
        help="build with FlixConfig.observability off (the export is then "
        "empty; useful for verifying the opt-out)",
    )
    metrics.add_argument(
        "--trace",
        action="store_true",
        help="also print the last query's span tree",
    )

    repair = sub.add_parser(
        "repair", help="verify a persisted index and rebuild damaged files"
    )
    repair.add_argument("directory", help="the XML collection directory")
    repair.add_argument("index_dir", help="the persisted-index directory")
    repair.add_argument(
        "--check",
        action="store_true",
        help="only report damaged files (exit 1 when any), do not rebuild",
    )

    compact = sub.add_parser(
        "compact",
        help="merge a persisted index's incrementally-added meta documents "
        "in place (online compaction; see docs/MAINTENANCE.md)",
    )
    compact.add_argument("directory", help="the XML collection directory")
    compact.add_argument("index_dir", help="the persisted-index directory")
    compact.add_argument(
        "--check",
        action="store_true",
        help="only report whether compaction is advised (exit 1 when it "
        "is), do not compact",
    )
    compact.add_argument(
        "--min-metas",
        type=int,
        default=2,
        help="compact only when at least this many incrementally-added "
        "meta documents exist (default 2)",
    )

    shard_plan = sub.add_parser(
        "shard-plan",
        help="partition a saved index into N shards, write shard_map.json",
    )
    shard_plan.add_argument("directory", help="the XML collection directory")
    shard_plan.add_argument("index_dir", help="the persisted-index directory")
    shard_plan.add_argument(
        "--shards", type=positive_int, default=4,
        help="shard count to plan for (default 4)",
    )

    serve = sub.add_parser(
        "serve",
        help="spawn shard workers + coordinator, serve HTTP until "
        "interrupted (docs/SHARDING.md)",
    )
    serve.add_argument("directory", help="the XML collection directory")
    serve.add_argument("index_dir", help="the persisted-index directory")
    serve.add_argument(
        "--shards", type=positive_int, default=4,
        help="worker processes to spawn (default 4; re-plans the shard "
        "map when the saved one disagrees)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="front-door HTTP port (default 8080; 0 picks a free port)",
    )
    serve.add_argument(
        "--cross-shard",
        choices=("delegate", "distributed"),
        default="delegate",
        help="multi-shard strategy: delegate whole queries to the owning "
        "worker (default) or run the coordinator-side priority-queue "
        "merge over per-entry expansion RPCs",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096,
        help="coordinator result-cache entries (0 disables; default 4096)",
    )

    recover = sub.add_parser(
        "recover",
        help="replay the write-ahead log onto the last snapshot "
        "(docs/DURABILITY.md)",
    )
    recover.add_argument("directory", help="the XML collection directory")
    recover.add_argument("index_dir", help="the persisted-index directory")
    recover.add_argument(
        "--snapshot",
        action="store_true",
        help="save the recovered state back to the index directory "
        "(checkpoints the log)",
    )
    recover.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the manifest checksum verification on load",
    )

    wal = sub.add_parser(
        "wal", help="inspect a write-ahead log's records and tail state"
    )
    wal.add_argument("index_dir", help="directory holding wal.log")
    wal.add_argument(
        "--json", action="store_true",
        help="print the inspection as JSON instead of the listing",
    )
    return parser


def _cmd_stats(args) -> int:
    collection = load_collection(args.directory)
    stats = collect_statistics(collection)
    print(stats.summary())
    print(f"link density:        {stats.link_density:.4f} links/element")
    print(f"links per document:  {stats.links_per_document:.2f}")
    print(f"mean document size:  {stats.mean_document_size:.1f} elements")
    print(f"unresolved links:    {len(collection.unresolved_links)}")
    top = sorted(stats.tag_histogram.items(), key=lambda kv: -kv[1])[:10]
    print("most frequent tags: ", ", ".join(f"{t} ({n})" for t, n in top))
    return 0


def _cmd_build(args) -> int:
    collection = load_collection(args.directory)
    config = _make_config(args.config, args.partition_size)
    flix = Flix.build(collection, config, jobs=args.jobs)
    print(flix.describe())
    if getattr(args, "profile", False):
        report = flix.report
        totals = report.phase_totals()
        print()
        print(
            f"build profile ({report.jobs} jobs, {report.executor} executor, "
            f"{report.total_seconds:.3f}s wall):"
        )
        for phase in ("graph", "selection", "index", "queue_wait"):
            print(f"  {phase:<11} {totals[phase]:8.3f}s summed across metas")
        slowest = sorted(
            report.meta_documents,
            key=lambda m: m.profile.busy_seconds,
            reverse=True,
        )[:5]
        for meta in slowest:
            p = meta.profile
            print(
                f"  slowest meta {meta.meta_id}: {p.busy_seconds:.3f}s "
                f"({meta.strategy}, {meta.node_count} nodes, on {p.worker})"
            )
    return 0


def _cmd_query(args) -> int:
    from pathlib import Path

    collection = load_collection(args.directory)
    config = _make_config(args.config, args.partition_size)
    index_dir = getattr(args, "index_dir", None)
    if index_dir and (Path(index_dir) / "manifest.json").is_file():
        flix = Flix.load(collection, index_dir)
        print(f"(loaded persisted index from {index_dir})")
    else:
        flix = Flix.build(collection, config, jobs=args.jobs)
        if index_dir:
            flix.save(index_dir)
            print(f"(built and saved index to {index_dir})")
    from repro.core.api import QueryRequest

    start = _resolve_start(collection, args.start)
    tag = None if args.tag == "*" else args.tag
    request = QueryRequest.descendants(
        start,
        tag=tag,
        max_distance=args.max_distance,
        limit=args.limit,
    )
    count = 0
    for result in flix.query_stream(request):
        info = collection.info(result.node)
        text = collection.text(result.node).strip()
        if len(text) > 60:
            text = text[:57] + "..."
        print(
            f"distance {result.distance:3d}  <{info.tag}> in {info.document}"
            + (f"  {text!r}" if text else "")
        )
        count += 1
    print(f"-- {count} results")
    return 0


def _cmd_explain(args) -> int:
    import json
    from pathlib import Path

    from repro.core.api import QueryRequest

    collection = load_collection(args.directory)
    config = _make_config(args.config, args.partition_size)
    index_dir = getattr(args, "index_dir", None)
    if index_dir and (Path(index_dir) / "manifest.json").is_file():
        flix = Flix.load(collection, index_dir)
        print(f"(loaded persisted index from {index_dir})")
    else:
        flix = Flix.build(collection, config, jobs=args.jobs)
        if index_dir:
            flix.save(index_dir)
            print(f"(built and saved index to {index_dir})")
    start = _resolve_start(collection, args.start)
    tag = None if args.tag == "*" else args.tag
    request = QueryRequest.descendants(
        start,
        tag=tag,
        max_distance=args.max_distance,
        limit=args.limit,
    )
    plan = flix.explain(request)
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2))
        return 0
    print(
        f"plan: kind={plan.kind} mode={plan.mode} "
        f"generation={plan.generation}"
    )
    if plan.source_metas:
        print(
            "source metas: "
            + ", ".join(str(m) for m in plan.source_metas)
        )
    if plan.probes:
        print(f"{'meta':>4}  {'strategy':<8}  {'fan-out':>7}")
        for probe in plan.probes:
            print(
                f"{probe.meta_id:>4}  {probe.strategy:<8}  {probe.fan_out:>7}"
            )
    if plan.pruned_metas:
        print(
            "statically pruned metas: "
            + ", ".join(str(m) for m in plan.pruned_metas)
        )
    for key in sorted(plan.provenance):
        print(f"provenance.{key}: {plan.provenance[key]}")
    return 0


def _cmd_relaxed(args) -> int:
    from repro.query.engine import QueryEngine

    collection = load_collection(args.directory)
    config = _make_config(args.config, args.partition_size)
    flix = Flix.build(collection, config, jobs=args.jobs)
    engine = QueryEngine(flix)
    matches = engine.evaluate(args.query, top_k=args.top_k, auto_relax=True)
    for match in matches:
        info = collection.info(match.node)
        print(f"score {match.score:.3f}  <{info.tag}> in {info.document}")
    print(f"-- {len(matches)} results")
    return 0


def _cmd_demo_dblp(args) -> int:
    from repro.bench.harness import build_all_systems, time_to_k
    from repro.bench.reporting import BenchTable, format_series
    from repro.bench.workloads import figure5_query
    from repro.core.api import QueryRequest
    from repro.datasets.dblp import DblpSpec, generate_dblp
    from repro.storage.sizing import format_bytes

    collection = generate_dblp(DblpSpec(documents=args.documents))
    print(f"synthetic DBLP: {collection}")
    systems = build_all_systems(collection)
    table = BenchTable("index sizes", ["system", "size"])
    for system in systems:
        table.add_row(system.name, format_bytes(system.size_bytes))
    print()
    print(table.render())
    start, tag = figure5_query(collection)
    checkpoints = [1, 10, 50, 100]
    series = {
        system.name: time_to_k(
            lambda s=system: s.flix.query_stream(
                QueryRequest.descendants(start, tag=tag)
            ),
            checkpoints,
        )
        for system in systems
    }
    print()
    print(format_series("seconds to k results", checkpoints, series))
    return 0


def _cmd_metrics(args) -> int:
    collection = load_collection(args.directory)
    config = _make_config(args.config, args.partition_size)
    if config is None:
        config = FlixConfig.recommend_for(collection, args.partition_size)
    if args.no_observability:
        config = config.with_observability(False)
    flix = Flix.build(collection, config, jobs=args.jobs)
    roots = [
        collection.document_root(name)
        for name in sorted(collection.documents)[: max(0, args.queries)]
    ]
    from repro.core.api import QueryRequest

    for root in roots:
        for _ in flix.query_stream(QueryRequest.descendants(root)):
            pass
    output = flix.export_metrics(args.format)
    if output:
        print(output, end="" if output.endswith("\n") else "\n")
    else:
        print("(no metrics: observability is disabled)")
    if args.trace:
        trace = flix.trace_last_query()
        print()
        print(trace.render() if trace is not None else "(no query trace)")
    return 0


def _cmd_repair(args) -> int:
    from repro.core.persistence import repair_flix, verify_flix

    collection = load_collection(args.directory)
    damaged = verify_flix(collection, args.index_dir)
    if not damaged:
        print("index is intact; nothing to repair")
        return 0
    print("damaged files: " + ", ".join(damaged))
    if args.check:
        return 1
    repaired = repair_flix(collection, args.index_dir)
    print(f"rebuilt {len(repaired)} file(s): " + ", ".join(repaired))
    return 0


def _cmd_compact(args) -> int:
    collection = load_collection(args.directory)
    flix = Flix.load(collection, args.index_dir)
    candidates = flix.layout.compaction_candidates()
    if len(candidates) < max(args.min_metas, 2):
        print(
            f"{len(candidates)} incrementally-added meta document(s); "
            f"below the threshold of {args.min_metas} — nothing to compact"
        )
        return 0
    print(
        f"{len(candidates)} incrementally-added meta documents: "
        + ", ".join(str(m) for m in candidates)
    )
    if args.check:
        return 1
    merged = flix.compact(candidates)
    flix.save(args.index_dir)
    print(
        f"compacted into meta {merged.meta_id} ({merged.strategy}, "
        f"{len(merged.nodes)} nodes); layout generation "
        f"{flix.layout_generation}, saved in place"
    )
    return 0


def _cmd_shard_plan(args) -> int:
    from repro.shard.plan import ShardPlanner, write_shard_map

    collection = load_collection(args.directory)
    flix = Flix.load(collection, args.index_dir)
    shard_map = ShardPlanner(args.shards).plan(flix)
    path = write_shard_map(shard_map, args.index_dir)
    print(shard_map.describe())
    print(f"-> {path}")
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from repro.core.config import CacheConfig
    from repro.shard.coordinator import ShardCoordinator
    from repro.shard.http import FrontDoor
    from repro.shard.plan import (
        SHARD_MAP_NAME,
        ShardPlanner,
        load_shard_map,
        write_shard_map,
    )
    from repro.shard.worker import spawn_worker

    collection = load_collection(args.directory)
    flix = Flix.load(collection, args.index_dir)
    map_path = Path(args.index_dir) / SHARD_MAP_NAME
    shard_map = load_shard_map(args.index_dir) if map_path.is_file() else None
    if shard_map is None or shard_map.shards != args.shards:
        shard_map = ShardPlanner(args.shards).plan(flix)
        write_shard_map(shard_map, args.index_dir)
        print(f"(planned {args.shards} shards -> {map_path})")
    workers = [
        spawn_worker(args.directory, args.index_dir, shard)
        for shard in range(shard_map.shards)
    ]
    coordinator = ShardCoordinator.connect(
        args.index_dir,
        [(worker.host, worker.port) for worker in workers],
        cache=(
            CacheConfig(maxsize=args.cache_size, shards=8)
            if args.cache_size > 0 else None
        ),
        cross_shard=args.cross_shard,
    )
    door = FrontDoor(coordinator, host=args.host, port=args.port)
    host, port = door.address
    for worker in workers:
        print(f"shard {worker.shard_id}: pid {worker.process.pid} "
              f"on {worker.host}:{worker.port}")
    print(f"front door: http://{host}:{port}  "
          f"(POST /query, POST /explain, GET /health, GET /metrics)")

    import signal
    import threading

    draining = threading.Event()

    def _on_sigterm(signum, frame):
        # drain off the signal frame: door.drain() must not run on the
        # thread stuck in serve_forever (it would deadlock on shutdown)
        if not draining.is_set():
            draining.set()
            print("\ndraining (SIGTERM)")
            threading.Thread(target=door.drain, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        door.serve_forever()
        if draining.is_set():
            print("drained; shutting down")
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        door.close()
        coordinator.shutdown_workers()
        coordinator.close()
        for worker in workers:
            worker.close()
    return 0


def _cmd_recover(args) -> int:
    from repro.wal import recover_flix

    collection = load_collection(args.directory)
    flix, report = recover_flix(
        collection, args.index_dir, verify=not args.no_verify
    )
    print(report.describe())
    if report.applied_verbs:
        print("applied verbs: " + ", ".join(report.applied_verbs))
    if args.snapshot:
        # a checkpoint moves the collection and the index together: the
        # replayed verbs may have grown/shrunk the document set, and the
        # manifest fingerprints the collection it was saved against
        save_collection(flix.collection, args.directory, prune=True)
        flix.save(args.index_dir)
        print(
            f"snapshot saved at generation {flix.layout_generation}; "
            "log checkpointed"
        )
    return 0


def _cmd_wal(args) -> int:
    import json

    from repro.wal import BEGIN_VERB, read_wal, wal_path_for

    path = wal_path_for(args.index_dir)
    if not path.is_file():
        print(f"no write-ahead log at {path}")
        return 1
    records, discarded = read_wal(path)
    base = records[0].generation if records else 0
    tail = records[-1].generation if records else 0
    if args.json:
        print(json.dumps({
            "path": str(path),
            "base_generation": base,
            "tail_generation": tail,
            "records": [
                {"verb": r.verb, "generation": r.generation}
                for r in records
            ],
            "discarded_bytes": discarded,
        }, indent=2))
        return 0
    print(f"{path}: base generation {base}, tail generation {tail}")
    for record in records:
        if record.verb == BEGIN_VERB:
            continue
        print(f"  generation {record.generation:4d}  {record.verb}")
    if discarded:
        print(f"  (torn tail: {discarded} byte(s) will be discarded)")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "build": _cmd_build,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "relaxed": _cmd_relaxed,
    "demo-dblp": _cmd_demo_dblp,
    "metrics": _cmd_metrics,
    "repair": _cmd_repair,
    "compact": _cmd_compact,
    "shard-plan": _cmd_shard_plan,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
    "wal": _cmd_wal,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
