"""The crash-point matrix: die at every write boundary, recover, compare.

Two sweeps cover the space:

* **Torn-log matrix** — run the full verb history, then truncate the log
  image at every record boundary and recover.  Each cut must land
  exactly on the fingerprint of an uncrashed run of that verb prefix.
* **Injected-crash matrix** — rerun the history under a
  :class:`FaultPlan` that kills the process at the Nth append (with a
  torn partial frame on disk), for every N, and recover from the wreck.

An env-driven variant re-reads ``FAULT_PLAN`` so the CI crash-chaos job can
pick the crash point without editing code.
"""

from __future__ import annotations

import os

import pytest

from repro.collection.io import load_collection
from repro.faults import FaultPlan, InjectedCrash, plan_from_env
from repro.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    read_wal,
    recover_flix,
    wal_path_for,
)

from .conftest import checkpoint, run_verbs


VERB_COUNT = 5  # run_verbs appends five records


def _reference_fingerprints(deployment, docs):
    """Fingerprint + generation after each verb prefix (0..5 verbs)."""
    collection = load_collection(deployment.collection_dir)
    from repro.core.framework import Flix

    flix = Flix.load(collection, deployment.index_dir)
    points = [(flix.index_fingerprint(), flix.layout_generation)]
    flix.add_document(docs[0])
    points.append((flix.index_fingerprint(), flix.layout_generation))
    flix.add_document(docs[1])
    points.append((flix.index_fingerprint(), flix.layout_generation))
    flix.add_document(docs[2])
    points.append((flix.index_fingerprint(), flix.layout_generation))
    flix.add_documents(docs[3:5])
    points.append((flix.index_fingerprint(), flix.layout_generation))
    flix.remove_document(docs[1].name)
    points.append((flix.index_fingerprint(), flix.layout_generation))
    return points


def test_torn_log_matrix_recovers_every_prefix(deployment, mutation_docs):
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)
    path = wal_path_for(deployment.index_dir)
    image = path.read_bytes()

    # record boundaries: magic, begin, then one per verb
    records, _ = read_wal(path)
    assert len(records) == VERB_COUNT + 1
    boundaries = [len(WAL_MAGIC)]
    for record in records:
        boundaries.append(boundaries[-1] + len(record.to_bytes()))

    points = _reference_fingerprints(deployment, mutation_docs)
    for survivors in range(VERB_COUNT + 1):
        # keep magic+begin plus the first `survivors` verbs, then tear
        # three bytes into the next record (torn write, if any follows)
        cut = boundaries[survivors + 1]
        torn = image[:cut] + image[cut : cut + 3]
        path.write_bytes(torn)
        collection = load_collection(deployment.collection_dir)
        recovered, report = recover_flix(
            collection, deployment.index_dir, attach=False
        )
        expected_fp, expected_gen = points[survivors]
        assert recovered.layout_generation == expected_gen, survivors
        assert recovered.index_fingerprint() == expected_fp, survivors
        assert report.records_applied == survivors
        if cut < len(image):
            assert report.discarded_bytes == 3


@pytest.mark.parametrize("crash_after", range(VERB_COUNT))
def test_injected_crash_matrix(deployment, mutation_docs, crash_after):
    flix = deployment.flix
    plan = FaultPlan(crash_after_writes=crash_after, torn_write_bytes=5)
    flix.enable_wal(wal_path_for(deployment.index_dir), fault_plan=plan)
    with pytest.raises(InjectedCrash):
        run_verbs(flix, mutation_docs)

    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    expected_fp, expected_gen = _reference_fingerprints(
        deployment, mutation_docs
    )[crash_after]
    assert recovered.layout_generation == expected_gen
    assert recovered.index_fingerprint() == expected_fp
    assert report.records_applied == crash_after
    assert report.discarded_bytes == 5  # the torn frame of the fatal append

    # service resumes on the recovered instance's clean tail
    recovered.add_document(mutation_docs[5])
    records, discarded = read_wal(wal_path_for(deployment.index_dir))
    assert discarded == 0
    assert records[-1].generation == recovered.layout_generation


def test_env_driven_crash_plan(deployment, mutation_docs, monkeypatch):
    """The CI crash-chaos job's path: FAULT_PLAN chooses the crash point."""
    spec = os.environ.get(
        "FAULT_PLAN", "crash_after_writes=2,torn_write_bytes=7"
    )
    plan = plan_from_env({"FAULT_PLAN": spec})
    if plan is None or plan.crash_after_writes is None:
        plan = FaultPlan(crash_after_writes=2, torn_write_bytes=7)

    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir), fault_plan=plan)
    crashed = False
    try:
        run_verbs(flix, mutation_docs)
    except InjectedCrash:
        crashed = True
    assert crashed or plan.crash_after_writes >= VERB_COUNT

    collection = load_collection(deployment.collection_dir)
    recovered, report = recover_flix(collection, deployment.index_dir)
    survivors = min(plan.crash_after_writes, VERB_COUNT)
    expected_fp, expected_gen = _reference_fingerprints(
        deployment, mutation_docs
    )[survivors]
    assert recovered.layout_generation == expected_gen
    assert recovered.index_fingerprint() == expected_fp
    assert report.records_applied == survivors


def test_crash_during_checkpoint_is_recoverable(deployment, mutation_docs):
    """Die after the appends but before save(): nothing is lost."""
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir))
    run_verbs(flix, mutation_docs)
    live_fingerprint = flix.index_fingerprint()
    # the checkpoint never happens (simulated death before save)

    collection = load_collection(deployment.collection_dir)
    recovered, _ = recover_flix(collection, deployment.index_dir)
    assert recovered.index_fingerprint() == live_fingerprint

    # now the checkpoint completes on the recovered instance, and a
    # third incarnation loads it with an empty log
    checkpoint(deployment, recovered)
    collection2 = load_collection(deployment.collection_dir)
    third, report = recover_flix(collection2, deployment.index_dir)
    assert third.index_fingerprint() == live_fingerprint
    assert report.records_applied == 0


def test_double_crash_same_boundary(deployment, mutation_docs):
    """Crash, recover, crash again at the same point, recover again."""
    plan = FaultPlan(crash_after_writes=1, torn_write_bytes=4)
    flix = deployment.flix
    flix.enable_wal(wal_path_for(deployment.index_dir), fault_plan=plan)
    with pytest.raises(InjectedCrash):
        run_verbs(flix, mutation_docs)

    collection = load_collection(deployment.collection_dir)
    first, _ = recover_flix(collection, deployment.index_dir, attach=False)

    # the torn tail is still on disk (attach=False left it); a second
    # recovery over the same wreck reaches the same state
    collection2 = load_collection(deployment.collection_dir)
    second, report = recover_flix(collection2, deployment.index_dir)
    assert second.index_fingerprint() == first.index_fingerprint()
    assert report.discarded_bytes == 4
