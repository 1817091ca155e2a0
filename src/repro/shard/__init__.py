"""Sharded multi-process serving: the FliX cut applied at cluster scale.

A single ``Flix`` splits the collection into meta documents and follows
residual links between them at query time.  This package applies the
same partitioning one level up (``docs/SHARDING.md``):

* :class:`ShardPlanner` assigns meta documents to N shards over the
  meta-level residual-link graph and records the links that now cross
  shards in a persisted :class:`ShardMap` (``shard_map.json``);
* :class:`ShardWorker` is the per-shard process — it mmap-attaches the
  saved packed index (O(1) cold start, page cache shared between
  workers) and serves framed requests over loopback TCP
  (:mod:`repro.shard.protocol`);
* :class:`ShardCoordinator` routes each request to its owning shard,
  runs the PEE's one priority-queue loop with per-entry expansions
  shipped as RPCs for multi-shard closures (the remote expander,
  :class:`DistributedEvaluator`), caches results
  in a :class:`~repro.core.cache.ShardedLRUCache`, and degrades
  (failover → ``truncated`` → ``degraded``) instead of failing;
* :class:`FrontDoor` exposes ``/query``, ``/health``, and ``/metrics``
  over stdlib HTTP (the ``repro serve`` CLI).
"""

from repro.shard.coordinator import ShardClient, ShardCoordinator
from repro.shard.distributed import DistributedEvaluator, ExpansionLost
from repro.shard.http import FrontDoor, request_from_json, response_to_json
from repro.shard.plan import (
    SHARD_MAP_NAME,
    ShardMap,
    ShardPlanError,
    ShardPlanner,
    load_shard_map,
    write_shard_map,
)
from repro.shard.protocol import (
    ProtocolError,
    RemoteShardError,
    ShardUnavailable,
)
from repro.shard.worker import ShardWorker, WorkerProcess, spawn_worker

__all__ = [
    "SHARD_MAP_NAME",
    "DistributedEvaluator",
    "ExpansionLost",
    "FrontDoor",
    "ProtocolError",
    "RemoteShardError",
    "ShardClient",
    "ShardCoordinator",
    "ShardMap",
    "ShardPlanError",
    "ShardPlanner",
    "ShardUnavailable",
    "ShardWorker",
    "WorkerProcess",
    "load_shard_map",
    "request_from_json",
    "response_to_json",
    "spawn_worker",
    "write_shard_map",
]
