"""A peer chooses the verb of every frame; the worker's request counter
must not let it choose the metric series."""

from __future__ import annotations

import socket

import pytest

from repro.shard.plan import ShardPlanner, write_shard_map
from repro.shard.protocol import read_frame, write_frame
from repro.shard.worker import ShardWorker

REQUESTS = "flix_shard_worker_requests_total"


@pytest.fixture()
def worker(deployment):
    write_shard_map(ShardPlanner(1).plan(deployment.flix), deployment.index_dir)
    live = ShardWorker.attach(
        deployment.collection_dir, deployment.index_dir, 0
    )
    address = live.start()
    try:
        yield live, address
    finally:
        live.close()


def _series(worker):
    counter = worker._obs.registry.get(REQUESTS)
    return set() if counter is None else {key for key, _ in counter.samples()}


def test_bogus_verbs_share_one_series(worker):
    live, address = worker
    with socket.create_connection(address, timeout=10.0) as sock:
        write_frame(sock, ("ping", {}))
        assert read_frame(sock)[0] == "pong"
        before = _series(live)
        for i in range(50):
            write_frame(sock, (f"bogus-verb-{i}", {}))
            reply_verb, reply = read_frame(sock)
            assert reply_verb == "error"
            assert "unknown verb" in reply["message"]
        grown = _series(live) - before
        assert len(grown) <= 1
        assert all(
            dict(key)["verb"] == "unknown" for key in grown
        )
        # the connection still serves real verbs
        write_frame(sock, ("ping", {}))
        assert read_frame(sock)[0] == "pong"
    counter = live._obs.registry.get(REQUESTS)
    assert counter.value(verb="unknown", status="error") == 50
