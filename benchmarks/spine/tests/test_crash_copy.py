import random

import inputs
import lifecycle
import workloads
from deploy import LifecycleDeployment
from repro.wal import WAL_NAME, read_wal
from speed import SpeedMonitor


def test_crash_copy_keeps_acked_bytes_and_half_of_the_unacked_record(tmp_path):
    index = tmp_path / "index"
    index.mkdir()
    (index / "manifest.json").write_text("{}")
    (index / WAL_NAME).write_bytes(b"A" * 100 + b"unflushed tail")
    torn = b"0123456789"
    copy = lifecycle.build_crash_copy(index, tmp_path / "crashed", 100, torn)
    assert (copy / WAL_NAME).read_bytes() == b"A" * 100 + b"01234"
    assert (copy / "manifest.json").read_text() == "{}"
    # the live directory is untouched
    assert (index / WAL_NAME).read_bytes() == b"A" * 100 + b"unflushed tail"


def test_recovery_from_the_crash_copy_loses_no_acknowledged_write():
    documents = inputs.dblp_documents(60 + 200)
    base, held_out = documents[:60], documents[60:]
    rng = random.Random(11)
    with LifecycleDeployment(lambda: list(base), workloads.PPO) as deployment:
        flix = deployment.flix
        with SpeedMonitor() as monitor:
            ran = lifecycle.run_script(
                flix, inputs.mutation_script(held_out[:-1], rng),
                [d.name for d in base], rng, 0.3, monitor,
            )
        assert ran.failed == 0 and ran.acked_present and ran.acked_absent
        acked = flix.wal.path.stat().st_size
        torn = lifecycle.unacknowledged_add(held_out[-1], flix.layout_generation + 1)
        crashed = lifecycle.build_crash_copy(
            deployment.index_dir, deployment.work / "crashed", acked, torn
        )
        records, discarded = read_wal(crashed / WAL_NAME)
        assert discarded == len(torn) // 2
        recovery = lifecycle.recover_and_audit(
            flix, ran, deployment.collection_dir, crashed, rng
        )
        assert recovery.lost_acked_writes == 0
        assert recovery.discarded_bytes == len(torn) // 2
        assert recovery.records_applied == len(records) - 1  # minus begin

        # an audit that expects a write the log never held must notice
        ran.acked_present.add(held_out[-1].name)
        again = lifecycle.recover_and_audit(
            flix, ran, deployment.collection_dir, crashed, rng, stepwise=True
        )
        assert again.lost_acked_writes == 1
        assert set(again.steps) == {
            "collection.load_s", "core.persistence.load_s", "wal.read_s",
            "wal.replay_s",
        }
