"""Crash-consistent recovery: snapshot + WAL replay == the live index."""

from __future__ import annotations

import pytest

from repro.collection.io import load_collection
from repro.core.framework import Flix
from repro.wal import (
    RecoveryReport,
    WalCorruptionError,
    WriteAheadLog,
    read_wal,
    recover_flix,
    wal_path_for,
)

from .conftest import checkpoint, fresh_reference, run_verbs


def test_recovery_reproduces_the_live_index(deployment, mutation_docs):
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)
    live_generation = flix.layout_generation
    live_fingerprint = flix.index_fingerprint()

    # "crash": nothing saved since the snapshot; recover from cold.
    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert recovered.layout_generation == live_generation
    assert recovered.index_fingerprint() == live_fingerprint
    assert report.records_applied == report.records_seen > 0
    assert report.final_generation == live_generation
    assert report.applied_verbs == ["add", "add", "add", "add_batch", "remove"]

    # ...and matches an uncrashed run of the same history exactly.
    reference = fresh_reference(deployment, mutation_docs)
    assert recovered.index_fingerprint() == reference.index_fingerprint()


def test_recovery_without_wal_degrades_to_plain_load(deployment):
    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert recovered.layout_generation == deployment.flix.layout_generation
    # the live index here is the fresh build the snapshot was taken of
    assert recovered.index_fingerprint() == deployment.flix.index_fingerprint()
    assert recovered.index_fingerprint() == Flix.build(
        collection, deployment.flix.config
    ).index_fingerprint()
    assert report.records_seen == report.records_applied == 0
    assert "replayed 0/0" in report.describe()


def test_save_truncates_the_log(deployment, mutation_docs):
    flix = deployment.flix
    wal = flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)
    checkpoint(deployment, flix)
    records, discarded = wal.records()
    assert discarded == 0
    assert [r.verb for r in records] == ["begin"]
    assert records[0].generation == flix.layout_generation

    # a recovery from the fresh checkpoint replays nothing
    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert report.records_applied == 0
    assert recovered.index_fingerprint() == flix.index_fingerprint()


def test_backup_save_keeps_the_log(deployment, mutation_docs, tmp_path):
    """Saving a copy somewhere else is not a checkpoint: the deployment
    directory's snapshot still needs the logged records to recover."""
    flix = deployment.flix
    wal = flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)
    before = [r.verb for r in wal.records()[0]]
    assert len(before) > 1

    flix.save(tmp_path / "backup")  # not the WAL's deployment directory
    records, _ = wal.records()
    assert [r.verb for r in records] == before  # log untouched

    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert recovered.index_fingerprint() == flix.index_fingerprint()
    assert report.records_applied == 5

    # an explicit checkpoint=True forces truncation wherever the save goes
    flix.save(tmp_path / "backup2", checkpoint=True)
    records, _ = wal.records()
    assert [r.verb for r in records] == ["begin"]


def test_crashed_checkpoint_truncation_still_recovers(deployment, mutation_docs):
    """A crash between truncate()'s file truncation and its begin append
    leaves a magic-only log; the snapshot just saved is complete, so
    recovery must attach cleanly, replay nothing, and resume logging."""
    from repro.wal import WAL_MAGIC

    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)
    checkpoint(deployment, flix)
    # rewind the log to the crash point: truncated, begin never written
    wal_path_for(deployment.index_dir).write_bytes(WAL_MAGIC)

    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert report.records_applied == report.records_seen == 0
    assert recovered.index_fingerprint() == flix.index_fingerprint()
    assert recovered.wal.base_generation == flix.layout_generation
    recovered.add_document(mutation_docs[5])  # logging resumed


def test_recovered_instance_resumes_logging(deployment, mutation_docs):
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)

    collection = load_collection(deployment.collection_dir)
    recovered, _ = recover_flix(collection, deployment.index_dir)
    assert recovered.wal is not None
    recovered.add_document(mutation_docs[5])

    # a second cold recovery sees the resumed history too
    collection2 = load_collection(deployment.collection_dir)
    second, report = recover_flix(collection2, deployment.index_dir)
    assert second.layout_generation == recovered.layout_generation
    assert second.index_fingerprint() == recovered.index_fingerprint()
    assert report.applied_verbs[-1] == "add"


def test_stale_records_are_skipped_not_reapplied(deployment, mutation_docs):
    """A snapshot saved mid-history makes the earlier records no-ops."""
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    flix.add_document(mutation_docs[0])
    checkpoint(deployment, flix)  # truncates the log
    flix.add_document(mutation_docs[1])

    # graft the pre-checkpoint record back in front, simulating a
    # checkpoint that persisted the snapshot but failed to truncate
    path = wal_path_for(deployment.index_dir)
    records, _ = read_wal(path)
    stale = WriteAheadLog(deployment.index_dir / "stale.log", base_generation=0)
    for record in records:
        if record.verb != "begin":
            stale.append(record.verb, record.generation, record.payload)
    stale.close()

    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert recovered.index_fingerprint() == flix.index_fingerprint()
    assert report.records_skipped == 0  # truncation did run here


def test_unknown_verb_is_corruption(deployment):
    generation = deployment.flix.layout_generation
    wal = WriteAheadLog(
        wal_path_for(deployment.index_dir), base_generation=generation
    )
    wal.append("mystery", generation + 1, {})
    wal.close()
    collection = load_collection(deployment.collection_dir)
    with pytest.raises(WalCorruptionError, match="unknown verb"):
        recover_flix(collection, deployment.index_dir)


def test_generation_mismatch_is_corruption(deployment, mutation_docs):
    from repro.wal import document_to_payload

    generation = deployment.flix.layout_generation
    wal = WriteAheadLog(
        wal_path_for(deployment.index_dir), base_generation=generation
    )
    # an add that claims to produce generation +2 (it produces +1)
    wal.append(
        "add",
        generation + 2,
        {"documents": [document_to_payload(mutation_docs[0])]},
    )
    wal.close()
    collection = load_collection(deployment.collection_dir)
    with pytest.raises(WalCorruptionError, match="disagree"):
        recover_flix(collection, deployment.index_dir)


def test_report_describe_mentions_torn_tail():
    report = RecoveryReport(
        snapshot_generation=3,
        records_seen=4,
        records_applied=2,
        discarded_bytes=17,
        final_generation=5,
    )
    text = report.describe()
    assert "generation 5" in text
    assert "2/4" in text
    assert "17 torn tail byte(s)" in text


def test_update_document_logs_remove_then_add(deployment, mutation_docs):
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    flix.add_document(mutation_docs[0])
    flix.update_document(mutation_docs[0])
    records, _ = read_wal(wal_path_for(deployment.index_dir))
    assert [r.verb for r in records] == ["begin", "add", "remove", "add"]

    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    assert recovered.index_fingerprint() == flix.index_fingerprint()
    assert report.records_applied == 3


@pytest.mark.parametrize("shape", ["built", "loaded", "recovered", "follower"])
def test_every_instance_shape_maintains_alike(
    deployment, mutation_docs, shape, monkeypatch
):
    """However a ``Flix`` came to be — built, loaded from a save,
    recovered, or following a log — the maintenance verbs produce the
    same index and answers, and no SQLite file is opened: the snapshot
    is blobs only."""
    import sqlite3
    from pathlib import Path

    from repro.wal import FollowerFlix
    from tests.conftest import _response_signature, parity_requests

    def script(flix):
        run_verbs(flix, mutation_docs)  # add x3, add_batch, remove
        flix.update_document(mutation_docs[3])
        assert flix.compact() is not None

    opened = []
    connect = sqlite3.connect

    def recording(database, *args, **kwargs):
        opened.append(Path(database).name)
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", recording)
    primary = deployment.flix
    primary.enable_wal(wal_path_for(deployment.index_dir))
    if shape == "loaded":
        subject = Flix.load(
            load_collection(deployment.collection_dir), deployment.index_dir
        )
    script(primary)
    if shape == "built":
        subject = primary
    elif shape == "loaded":
        script(subject)
    elif shape == "recovered":
        subject, _ = recover_flix(
            load_collection(deployment.collection_dir),
            deployment.index_dir,
            attach=False,
        )
    else:
        follower = FollowerFlix.attach(
            deployment.collection_dir, deployment.index_dir
        )
        assert follower.poll() > 0
        subject = follower.flix
    assert opened == []

    assert subject.index_fingerprint() == primary.index_fingerprint()
    for name, request in parity_requests(subject.collection):
        assert _response_signature(subject.query(request)) == (
            _response_signature(primary.query(request))
        ), name
