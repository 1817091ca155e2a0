"""FliX — a flexible framework for indexing complex XML document collections.

A faithful, from-scratch Python reproduction of Ralf Schenkel's EDBT 2004
paper.  The package bundles:

* a dependency-free XML substrate (:mod:`repro.xmlmodel`),
* the element-graph data model of interlinked collections
  (:mod:`repro.collection`),
* every path-index building block the paper composes — PPO, HOPI (2-hop),
  APEX, 1-index/A(k), DataGuide, transitive closure
  (:mod:`repro.indexes`),
* the FliX framework itself: meta-document building, strategy selection,
  index building, and the streaming path-expression evaluator
  (:mod:`repro.core`),
* a relaxed-XPath query layer with XXL-style ontology similarity
  (:mod:`repro.query`),
* dataset generators reproducing the paper's DBLP workload and the intro's
  movie scenario (:mod:`repro.datasets`), and
* the support code of the paper-figure suites under ``benchmarks/``
  (:mod:`repro.bench`: the section 6 system lineup, time-to-k, order
  error rate; performance is measured by ``benchmarks/spine``), and
* sharded multi-process serving — shard planning over the meta-document
  graph, mmap-attached worker processes, and a coordinator front door
  (:mod:`repro.shard`, ``docs/SHARDING.md``), and
* crash durability — a checksummed write-ahead log of maintenance
  verbs, snapshot + replay recovery, and WAL-tailing follower replicas
  (:mod:`repro.wal`, ``docs/DURABILITY.md``).

Quickstart::

    from repro import Flix, FlixConfig, QueryRequest, XmlDocument, build_collection

    docs = [XmlDocument.from_text("a.xml", "<movie><title>Matrix</title></movie>")]
    collection = build_collection(docs)
    flix = Flix.build(collection, FlixConfig.naive())
    start = collection.document_root("a.xml")
    results = list(flix.query_stream(QueryRequest.descendants(start, tag="title")))
"""

from repro.collection import (
    CollectionStats,
    XmlCollection,
    XmlDocument,
    build_collection,
    collect_statistics,
)
from repro.core import (
    CacheConfig,
    Flix,
    FlixConfig,
    MetaDocument,
    PathExpressionEvaluator,
    QueryBudget,
    QueryRequest,
    QueryResponse,
    QueryResult,
    StreamedList,
)
from repro.core.cache import ShardedLRUCache
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.shard import (
    FrontDoor,
    ShardCoordinator,
    ShardMap,
    ShardPlanner,
    ShardWorker,
    load_shard_map,
    spawn_worker,
    write_shard_map,
)
from repro.xmlmodel import XmlElement, parse_document, serialize

__version__ = "1.0.0"

__all__ = [
    "Flix",
    "FlixConfig",
    "CacheConfig",
    "ShardedLRUCache",
    "QueryBudget",
    "QueryRequest",
    "QueryResponse",
    "FaultPlan",
    "FrontDoor",
    "ShardCoordinator",
    "ShardMap",
    "ShardPlanner",
    "ShardWorker",
    "load_shard_map",
    "spawn_worker",
    "write_shard_map",
    "MetaDocument",
    "MetricsRegistry",
    "Observability",
    "PathExpressionEvaluator",
    "QueryResult",
    "StreamedList",
    "Tracer",
    "XmlCollection",
    "XmlDocument",
    "XmlElement",
    "CollectionStats",
    "build_collection",
    "collect_statistics",
    "parse_document",
    "serialize",
    "__version__",
]
