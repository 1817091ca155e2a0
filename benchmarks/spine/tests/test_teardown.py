"""Worker subprocesses, the front door and scratch directories are gone
after a normal exit, after an exception mid-run, and after a set-up that
fails half-way."""

import os
import socket

import pytest

import deploy
import inputs
import workloads
from deploy import HttpDeployment


def documents():
    return inputs.dblp_documents(40)


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # a reaped child is gone; a zombie would still answer kill(0)
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()[0] != "Z"


def listening(address) -> bool:
    with socket.socket() as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(tuple(address)) == 0


def assert_gone(pids, address, work):
    assert pids and not any(alive(pid) for pid in pids)
    assert not listening(address)
    assert not work.exists()


def test_normal_exit_leaves_nothing_behind():
    with HttpDeployment(documents, workloads.PPO, 2, None, "delegate") as deployment:
        pids, address, work = deployment.worker_pids, deployment.address, deployment.work
        assert all(alive(pid) for pid in pids) and listening(address) and work.is_dir()
    assert_gone(pids, address, work)


def test_exception_mid_run_leaves_nothing_behind():
    with pytest.raises(RuntimeError, match="mid-run"):
        with HttpDeployment(documents, workloads.PPO, 2, None, "distributed") as deployment:
            pids, address, work = deployment.worker_pids, deployment.address, deployment.work
            raise RuntimeError("mid-run")
    assert_gone(pids, address, work)


def test_failed_set_up_releases_what_it_had_started(monkeypatch):
    spawned = []
    real_spawn = deploy.spawn_worker

    def spawn_then_remember(*args, **kwargs):
        worker = real_spawn(*args, **kwargs)
        spawned.append(worker.process.pid)
        return worker

    monkeypatch.setattr(deploy, "spawn_worker", spawn_then_remember)
    before = set(deploy.WORK_ROOT.glob("run-*")) if deploy.WORK_ROOT.exists() else set()
    with pytest.raises(ValueError, match="cross_shard"):
        # the coordinator rejects the mode only after both workers are up
        HttpDeployment(documents, workloads.PPO, 2, None, "no-such-mode")
    assert len(spawned) == 2 and not any(alive(pid) for pid in spawned)
    assert set(deploy.WORK_ROOT.glob("run-*")) == before


def test_workload_failure_mid_measurement_tears_down(monkeypatch):
    import readloop

    seen = {}
    real_pass = readloop.http_pass

    def failing_pass(address, bodies, clients, worker_pids, *args, **kwargs):
        if "pids" in seen:  # the warm-up went through; fail the first timed pass
            raise RuntimeError("injected")
        seen["pids"], seen["address"] = list(worker_pids), address
        return real_pass(address, bodies, clients, worker_pids, *args, **kwargs)

    monkeypatch.setattr(workloads, "http_pass", failing_pass)
    before = set(deploy.WORK_ROOT.glob("run-*")) if deploy.WORK_ROOT.exists() else set()
    with pytest.raises(RuntimeError, match="injected"):
        workloads.run("dblp_http_delegate", seed=1, seconds=0.2, traced=False, smoke=True)
    assert not any(alive(pid) for pid in seen["pids"])
    assert not listening(seen["address"])
    assert set(deploy.WORK_ROOT.glob("run-*")) == before
