"""BENCHMARK.json and the harness agree, and the one command honours the
contract's output shape."""

import json

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def test_benchmark_json_names_exactly_the_harness_workloads(contract):
    assert [w["name"] for w in contract["workloads"]] == list(workloads.SIZES)
    assert set(workloads.CLIENTS) == set(workloads.SIZES)
    assert contract["paths"] == ["benchmarks/spine"]
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_setup_has_the_largest_bound_and_no_bound_exceeds_a_quarter(contract):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all("bound" not in m for m in contract["per_layer"])


def test_overrides_in_the_environment_abort_the_run(monkeypatch, capsys):
    assert run.forbidden_environment(
        {"FLIX_PLANNER": "1", "FAULT_PLAN": "x", "PATH": "/bin", "FLIX_PACKED": "0"}
    ) == ["FAULT_PLAN", "FLIX_PACKED", "FLIX_PLANNER"]
    monkeypatch.setenv("FLIX_SHARD_LATENCY_MS", "10")
    assert run.main(["--workload", "dblp_ppo_inproc", "--smoke"]) == 2
    assert "FLIX_SHARD_LATENCY_MS" in capsys.readouterr().err


@pytest.mark.parametrize("traced, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_is_the_result_object(contract, capsys, tmp_path, traced, section):
    out = tmp_path / "result.json"
    status = run.main([
        "--workload", "dblp_lifecycle", "--smoke", "--seed", "3",
        "--trace", str(traced), "--out", str(out),
    ])
    assert status == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in contract[section]]
    units = {m["name"]: m["unit"] for m in contract[section]}
    assert all(entry["unit"] == units[name] for name, entry in last["metrics"].items())
    document = json.loads(out.read_text())
    assert document["seed"] == 3 and document["trace"] == traced
    detail = document["runs"][0]["detail"]
    assert detail["lost_acked_writes"] == 0 and len(detail["requests_sha256"]) == 64
    if traced:
        assert detail["self_times_sum_to_client_span"] is True
