"""Durability meets serving: wal_pull, roles, and graceful drains."""

from __future__ import annotations

import signal
import socket
import threading
import urllib.request

import pytest

from repro.shard.coordinator import ShardCoordinator
from repro.shard.http import FrontDoor
from repro.shard.plan import ShardPlanner, write_shard_map
from repro.shard.protocol import read_frame, write_frame
from repro.shard.worker import ShardWorker, spawn_worker

from .conftest import in_process_cluster


def _single_worker(deployment, **kwargs):
    write_shard_map(ShardPlanner(1).plan(deployment.flix), deployment.index_dir)
    worker = ShardWorker.attach(
        deployment.collection_dir, deployment.index_dir, 0, **kwargs
    )
    host, port = worker.start()
    return worker, host, port


def _call(host, port, verb, payload):
    with socket.create_connection((host, port), timeout=10.0) as sock:
        write_frame(sock, (verb, payload))
        return read_frame(sock)


class TestWalPullVerb:
    def test_ping_reports_role(self, deployment):
        worker, host, port = _single_worker(deployment, role="follower")
        try:
            verb, payload = _call(host, port, "ping", {})
            assert verb == "pong"
            assert payload["role"] == "follower"
        finally:
            worker.close()

    def test_missing_log_serves_empty_segment(self, deployment):
        worker, host, port = _single_worker(deployment)
        try:
            verb, payload = _call(host, port, "wal_pull", {"after_generation": 4})
            assert verb == "wal_records"
            assert payload["records"] == []
            assert payload["base_generation"] == 4
            assert payload["tail_generation"] == 4
        finally:
            worker.close()

    def test_records_filtered_by_cursor(self, deployment, tmp_path):
        from repro.wal import WriteAheadLog, wal_path_for

        wal = WriteAheadLog(wal_path_for(deployment.index_dir))
        wal.append("remove", 1, {"name": "x.xml"})
        wal.append("remove", 2, {"name": "y.xml"})
        wal.close()
        worker, host, port = _single_worker(deployment)
        try:
            _, payload = _call(host, port, "wal_pull", {"after_generation": 1})
            assert [r["generation"] for r in payload["records"]] == [2]
            assert payload["base_generation"] == 0
            assert payload["tail_generation"] == 2
        finally:
            worker.close()
            wal_path_for(deployment.index_dir).unlink()


class TestWorkerDrain:
    def test_draining_worker_refuses_new_requests(self, deployment):
        worker, host, port = _single_worker(deployment)
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            worker._draining = True  # simulate mid-drain
            write_frame(sock, ("ping", {}))
            verb, payload = read_frame(sock)
            assert verb == "error"
            assert payload["type"] == "ShardUnavailable"
            sock.close()
        finally:
            worker._draining = False
            worker.close()

    def test_drain_syncs_and_stops(self, deployment):
        from repro.wal import wal_path_for

        worker, host, port = _single_worker(deployment)
        worker.flix.enable_wal(wal_path_for(deployment.index_dir), fsync="none")
        worker.drain(timeout=5.0)
        with pytest.raises(OSError):
            _call(host, port, "ping", {})
        worker.flix.wal.close()
        wal_path_for(deployment.index_dir).unlink()

    def test_sigterm_drains_subprocess_to_exit_zero(self, deployment):
        write_shard_map(
            ShardPlanner(1).plan(deployment.flix), deployment.index_dir
        )
        worker = spawn_worker(
            deployment.collection_dir, deployment.index_dir, 0
        )
        try:
            verb, _ = _call(worker.host, worker.port, "ping", {})
            assert verb == "pong"
            worker.process.send_signal(signal.SIGTERM)
            assert worker.process.wait(timeout=30.0) == 0
        finally:
            worker.close()


class TestCoordinatorRoles:
    def test_health_carries_roles(self, deployment):
        with in_process_cluster(deployment, 2) as (coordinator, _workers):
            report = coordinator.health()
            assert report["role"] == "primary"
            assert all(
                entry["role"] == "primary" for entry in report["shards"]
            )
            assert "replication_lag" not in report

    def test_follower_coordinator_reports_lag(self, deployment):
        class FakeReplication:
            replication_lag = 3
            generation = 11

        write_shard_map(
            ShardPlanner(1).plan(deployment.flix), deployment.index_dir
        )
        worker = ShardWorker.attach(
            deployment.collection_dir, deployment.index_dir, 0,
            role="follower",
        )
        endpoint = worker.start()
        coordinator = ShardCoordinator.connect(
            deployment.index_dir, [endpoint],
            role="follower", replication=FakeReplication(),
        )
        try:
            report = coordinator.health()
            assert report["role"] == "follower"
            assert report["replication_lag"] == 3
            assert report["replication_generation"] == 11
            assert all(
                entry["role"] == "follower" for entry in report["shards"]
            )
        finally:
            coordinator.close()
            worker.close()

    def test_bad_role_rejected(self, deployment):
        shard_map = ShardPlanner(1).plan(deployment.flix)
        with pytest.raises(ValueError, match="role"):
            ShardCoordinator(shard_map, [object()], role="scribe")


class TestFrontDoorDrain:
    def test_drain_finishes_inflight_then_refuses(self, deployment):
        with in_process_cluster(deployment, 2) as (coordinator, _workers):
            door = FrontDoor(coordinator)
            host, port = door.start()
            with urllib.request.urlopen(
                f"http://{host}:{port}/health", timeout=10.0
            ) as reply:
                assert reply.status == 200
            door.drain(timeout=10.0)
            with pytest.raises(OSError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/health", timeout=2.0
                )
            door.close()  # second close is a no-op

    def test_drain_waits_for_inflight_requests(self, deployment):
        with in_process_cluster(deployment, 2) as (coordinator, _workers):
            door = FrontDoor(coordinator)
            door.start()
            entered = threading.Event()
            release = threading.Event()

            with door._track():
                pass  # sanity: the tracker balances

            def hold():
                with door._track():
                    entered.set()
                    release.wait(timeout=10.0)

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            assert entered.wait(timeout=5.0)

            drained = threading.Event()

            def drain():
                door.drain(timeout=10.0)
                drained.set()

            threading.Thread(target=drain, daemon=True).start()
            assert not drained.wait(timeout=0.5)  # blocked on the holder
            release.set()
            assert drained.wait(timeout=10.0)
            holder.join(timeout=5.0)
