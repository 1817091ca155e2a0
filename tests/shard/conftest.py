"""Shared fixtures for the sharded-serving tests.

One packed DBLP deployment is built and saved once per test package;
individual tests plan shard maps over it and start in-process workers
(real sockets, real framing, no subprocess cost).  The subprocess path
is covered separately in ``test_worker_process.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.collection.io import save_collection
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.datasets.dblp import DblpSpec, generate_dblp
from repro.shard.coordinator import ShardCoordinator
from repro.shard.plan import ShardPlanner, write_shard_map
from repro.shard.worker import ShardWorker


@pytest.fixture(scope="package")
def deployment(tmp_path_factory):
    """A saved packed index + collection directory, built once."""
    base = tmp_path_factory.mktemp("shard-deployment")
    collection = generate_dblp(DblpSpec(documents=6, seed=7))
    flix = Flix.build(collection, FlixConfig.naive())
    collection_dir = base / "collection"
    index_dir = base / "index"
    save_collection(collection, collection_dir)
    flix.save(index_dir)
    return SimpleNamespace(
        collection=collection,
        flix=flix,
        collection_dir=collection_dir,
        index_dir=index_dir,
    )


@contextmanager
def in_process_cluster(
    deployment,
    shards: int,
    cross_shard: str = "delegate",
    cache: CacheConfig = None,
):
    """Plan ``shards`` shards, start that many in-process workers, and
    yield ``(coordinator, workers)``; tears everything down on exit."""
    shard_map = ShardPlanner(shards).plan(deployment.flix)
    write_shard_map(shard_map, deployment.index_dir)
    workers = [
        ShardWorker.attach(
            deployment.collection_dir, deployment.index_dir, shard
        )
        for shard in range(shards)
    ]
    endpoints = [worker.start() for worker in workers]
    coordinator = ShardCoordinator.connect(
        deployment.index_dir,
        endpoints,
        cache=cache,
        cross_shard=cross_shard,
    )
    try:
        yield coordinator, workers
    finally:
        coordinator.close()
        for worker in workers:
            worker.close()
