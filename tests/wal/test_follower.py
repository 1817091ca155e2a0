"""Follower replicas: WAL tailing, query parity, lag, and gap handling."""

from __future__ import annotations

import pytest

from repro.wal import (
    FileWalSource,
    FollowerFlix,
    RemoteWalSource,
    ReplicationError,
    wal_path_for,
)
from tests.conftest import _response_signature, parity_requests

from .conftest import checkpoint, run_verbs


@pytest.fixture()
def primary(deployment):
    deployment.flix.enable_wal(wal_path_for(deployment.index_dir))
    return deployment.flix


def test_follower_tails_the_log_incrementally(deployment, primary, mutation_docs):
    follower = FollowerFlix.attach(
        deployment.collection_dir, deployment.index_dir
    )
    assert follower.role == "follower"
    assert follower.poll() == 0  # nothing to replicate yet
    # attached from the snapshot of a fresh build: same fingerprint
    assert follower.index_fingerprint() == primary.index_fingerprint()

    primary.add_document(mutation_docs[0])
    primary.add_document(mutation_docs[1])
    assert follower.replication_lag == 0  # lag observed at last poll
    assert follower.poll() == 2
    assert follower.generation == primary.layout_generation
    assert follower.replication_lag == 0

    primary.add_documents(mutation_docs[2:4])
    primary.remove_document(mutation_docs[0].name)
    assert follower.poll() == 2
    assert follower.index_fingerprint() == primary.index_fingerprint()
    follower.close()


def test_follower_parity_across_all_query_kinds(deployment, primary, mutation_docs):
    run_verbs(primary, mutation_docs)
    follower = FollowerFlix.attach(
        deployment.collection_dir, deployment.index_dir
    )
    follower.poll()
    assert follower.index_fingerprint() == primary.index_fingerprint()

    # the follower's collection grew through the log; build the parity
    # mix against it so both sides resolve the same roots
    for name, request in parity_requests(follower.flix.collection):
        expected = _response_signature(primary.query(request))
        got = _response_signature(follower.query(request))
        assert got == expected, name
    follower.close()


def test_follower_lag_counts_unapplied_generations(deployment, primary, mutation_docs):
    follower = FollowerFlix.attach(
        deployment.collection_dir, deployment.index_dir
    )
    follower.poll()
    primary.add_document(mutation_docs[0])
    primary.add_document(mutation_docs[1])
    primary.add_document(mutation_docs[2])

    # a poll observes the tail; lag counts what it applied is zero —
    # use a source that reports the tail without new records to see lag
    source = FileWalSource(wal_path_for(deployment.index_dir))
    segment = source.fetch(follower.generation)
    assert segment.tail_generation - follower.generation == 3

    follower.poll()
    assert follower.replication_lag == 0
    assert follower.generation == primary.layout_generation
    follower.close()


def test_truncation_past_follower_is_a_gap(deployment, primary, mutation_docs):
    follower = FollowerFlix.attach(
        deployment.collection_dir, deployment.index_dir
    )
    follower.poll()
    primary.add_document(mutation_docs[0])
    checkpoint(deployment, primary)  # the checkpoint truncates the log
    primary.add_document(mutation_docs[1])
    with pytest.raises(ReplicationError, match="truncated past"):
        follower.poll()

    # re-attach from the fresh snapshot and catch up
    reattached = FollowerFlix.attach(
        deployment.collection_dir, deployment.index_dir
    )
    reattached.poll()
    assert reattached.index_fingerprint() == primary.index_fingerprint()
    follower.close()
    reattached.close()


def test_remote_wal_source_pulls_from_worker(deployment, primary, mutation_docs):
    from repro.shard.plan import ShardPlanner, write_shard_map
    from repro.shard.worker import ShardWorker

    write_shard_map(ShardPlanner(1).plan(primary), deployment.index_dir)
    run_verbs(primary, mutation_docs)

    worker = ShardWorker.attach(
        deployment.collection_dir, deployment.index_dir, 0, verify=False
    )
    host, port = worker.start()
    try:
        source = RemoteWalSource(host, port)
        follower = FollowerFlix.attach(
            deployment.collection_dir, deployment.index_dir, source=source
        )
        assert follower.poll() == 5
        assert follower.generation == primary.layout_generation
        assert follower.index_fingerprint() == primary.index_fingerprint()
        for name, request in parity_requests(follower.flix.collection):
            assert _response_signature(follower.query(request)) == \
                _response_signature(primary.query(request)), name
        follower.close()
    finally:
        worker.close()


def test_remote_wal_source_pages_through_backlog(deployment, primary, mutation_docs):
    """One poll never ships the whole backlog in a single frame: the
    server pages on ``max_records`` and the client iterates."""
    from repro.shard.plan import ShardPlanner, write_shard_map
    from repro.shard.worker import ShardWorker

    write_shard_map(ShardPlanner(1).plan(primary), deployment.index_dir)
    run_verbs(primary, mutation_docs)

    worker = ShardWorker.attach(
        deployment.collection_dir, deployment.index_dir, 0, verify=False
    )
    host, port = worker.start()
    try:
        # the server truncates an over-long page and flags the remainder
        verb, payload = worker._dispatch(
            "wal_pull", {"after_generation": -1, "max_records": 2}
        )
        assert verb == "wal_records"
        assert len(payload["records"]) == 2
        assert payload["truncated"] is True

        # a page_size=1 client still assembles the full, ordered history
        source = RemoteWalSource(host, port, page_size=1)
        segment = source.fetch(after_generation=0)
        assert [r.verb for r in segment.records] == [
            "add", "add", "add", "add_batch", "remove",
        ]
        assert segment.tail_generation == primary.layout_generation

        follower = FollowerFlix.attach(
            deployment.collection_dir, deployment.index_dir, source=source
        )
        assert follower.poll() == 5
        assert follower.index_fingerprint() == primary.index_fingerprint()
        follower.close()
    finally:
        worker.close()


def test_remote_source_empty_log_serves_cleanly(deployment):
    from repro.shard.plan import ShardPlanner, write_shard_map
    from repro.shard.worker import ShardWorker

    write_shard_map(
        ShardPlanner(1).plan(deployment.flix), deployment.index_dir
    )
    assert not wal_path_for(deployment.index_dir).exists()  # no log at all
    worker = ShardWorker.attach(
        deployment.collection_dir, deployment.index_dir, 0
    )
    host, port = worker.start()
    try:
        segment = RemoteWalSource(host, port).fetch(after_generation=0)
        assert segment.records == ()
        assert segment.base_generation == segment.tail_generation == 0
    finally:
        worker.close()


def test_follower_metrics_move(deployment, primary, mutation_docs):
    follower = FollowerFlix.attach(
        deployment.collection_dir, deployment.index_dir
    )
    primary.add_document(mutation_docs[0])
    follower.poll()
    reg = follower.flix.obs.registry
    assert reg.get("flix_replication_polls_total").value(outcome="ok") == 1
    assert reg.get("flix_replication_applied_total").value(verb="add") == 1
    assert reg.get("flix_replication_lag").value() == 0
    assert (
        reg.get("flix_replication_generation").value()
        == follower.generation
    )
    follower.close()
