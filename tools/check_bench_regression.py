#!/usr/bin/env python
"""Fail if a committed benchmark result violates its floors.

The bench-regression guard re-checks committed ``BENCH_*.json`` files
against the same acceptance floors the benches assert *without
re-running them*, so CI (and a reviewer) can verify the committed
numbers are in contract even on a machine too noisy to reproduce them.
The payload kind is detected from its keys:

``BENCH_microops.json`` (``benchmarks/bench_microops.py``):

* ``median_probe_speedup``      >= 2.0   (packed probes, strategy mix)
* ``cold_attach.speedup``       >= 10.0  (verified mmap attach vs
                                          verified SQLite rehydration)
* every per-op speedup          >= 0.8   (no single op regresses
                                          beyond measurement noise)

``BENCH_durability.json`` (``benchmarks/bench_durability.py``):

* ``recovery.fingerprint_match`` / ``generation_match``  must be true
  (crash recovery lands byte-exactly on the crashed primary's index)
* ``recovery.records_per_second``  >= 50    (WAL replay must not crawl)
* ``follower.parity``  true  and  ``follower.final_lag`` == 0
  (a caught-up replica answers all eight query kinds byte-identically)
* ``fsync_batching_speedup``  >= 0.8  (group commit never regresses
  below per-record fsync beyond measurement noise)

Run from the repository root::

    python tools/check_bench_regression.py [path/to/BENCH_file.json ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

MEDIAN_PROBE_FLOOR = 2.0
COLD_ATTACH_FLOOR = 10.0
PER_OP_FLOOR = 0.8
REPLAY_RATE_FLOOR = 50.0
BATCHING_FLOOR = 0.8


def check(payload: dict) -> list:
    """The floor violations in a microops payload (empty = in contract)."""
    failures = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    median = payload.get("median_probe_speedup")
    require(
        isinstance(median, (int, float)) and median >= MEDIAN_PROBE_FLOOR,
        f"median_probe_speedup {median!r} < {MEDIAN_PROBE_FLOOR}",
    )
    attach = payload.get("cold_attach", {})
    speedup = attach.get("speedup")
    require(
        isinstance(speedup, (int, float)) and speedup >= COLD_ATTACH_FLOOR,
        f"cold_attach.speedup {speedup!r} < {COLD_ATTACH_FLOOR}",
    )
    require(
        attach.get("verified") is True,
        "cold_attach must time the *verified* attach path on both sides",
    )
    ops = payload.get("ops", {})
    require(bool(ops), "payload has no per-op section")
    for op, strategies in ops.items():
        for strategy, entry in strategies.items():
            per_op = entry.get("speedup")
            require(
                isinstance(per_op, (int, float)) and per_op >= PER_OP_FLOOR,
                f"ops.{op}.{strategy}.speedup {per_op!r} < {PER_OP_FLOOR}",
            )
    return failures


def check_durability(payload: dict) -> list:
    """The floor violations in a durability payload."""
    failures = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    recovery = payload.get("recovery", {})
    require(
        recovery.get("fingerprint_match") is True,
        "recovery.fingerprint_match must be true (recovered index must "
        "equal the crashed primary's byte-for-byte)",
    )
    require(
        recovery.get("generation_match") is True,
        "recovery.generation_match must be true",
    )
    rate = recovery.get("records_per_second")
    require(
        isinstance(rate, (int, float)) and rate >= REPLAY_RATE_FLOOR,
        f"recovery.records_per_second {rate!r} < {REPLAY_RATE_FLOOR}",
    )
    follower = payload.get("follower", {})
    require(
        follower.get("parity") is True,
        "follower.parity must be true (all eight query kinds byte-"
        "identical to the primary)",
    )
    require(
        follower.get("final_lag") == 0,
        f"follower.final_lag {follower.get('final_lag')!r} != 0",
    )
    batching = payload.get("fsync_batching_speedup")
    require(
        isinstance(batching, (int, float)) and batching >= BATCHING_FLOOR,
        f"fsync_batching_speedup {batching!r} < {BATCHING_FLOOR}",
    )
    return failures


def _check_file(path: Path) -> int:
    if not path.is_file():
        print(f"check_bench_regression: {path} not found", file=sys.stderr)
        return 1
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"check_bench_regression: {path} is not JSON: {exc}", file=sys.stderr)
        return 1
    if "recovery" in payload and "fsync_policies" in payload:
        failures = check_durability(payload)
        summary = (
            f"{path.name}: replay "
            f"{payload['recovery']['records_per_second']:.0f} records/s, "
            f"follower parity {payload['follower']['parity']}, "
            f"lag {payload['follower']['final_lag']}"
        )
    else:
        failures = check(payload)
        summary = (
            f"{path.name}: "
            f"median probe {payload.get('median_probe_speedup')}x, "
            f"cold attach {payload.get('cold_attach', {}).get('speedup')}x, "
            f"{sum(len(s) for s in payload.get('ops', {}).values())} "
            "per-op floors"
        )
    if failures:
        for failure in failures:
            print(
                f"check_bench_regression: FAIL [{path.name}] {failure}",
                file=sys.stderr,
            )
        return 1
    print(f"check_bench_regression: {summary} OK")
    return 0


def main(argv: list) -> int:
    paths = (
        [Path(arg) for arg in argv[1:]]
        if len(argv) > 1
        else [
            REPO_ROOT / "BENCH_microops.json",
            REPO_ROOT / "BENCH_durability.json",
        ]
    )
    status = 0
    for path in paths:
        status |= _check_file(path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
