#!/usr/bin/env python
"""Fail if a committed benchmark result violates its floors.

The bench-regression guard re-checks the committed
``BENCH_durability.json`` against the same acceptance floors the bench
asserts *without re-running it*, so CI (and a reviewer) can verify the
committed numbers are in contract even on a machine too noisy to
reproduce them.

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

REPLAY_RATE_FLOOR = 50.0
BATCHING_FLOOR = 0.8


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
    failures = check_durability(payload)
    if failures:
        for failure in failures:
            print(
                f"check_bench_regression: FAIL [{path.name}] {failure}",
                file=sys.stderr,
            )
        return 1
    recovery, follower = payload["recovery"], payload["follower"]
    print(
        f"check_bench_regression: {path.name}: replay "
        f"{recovery['records_per_second']:.0f} records/s, "
        f"follower parity {follower['parity']}, "
        f"lag {follower['final_lag']} OK"
    )
    return 0


def main(argv: list) -> int:
    paths = (
        [Path(arg) for arg in argv[1:]]
        if len(argv) > 1
        else [REPO_ROOT / "BENCH_durability.json"]
    )
    status = 0
    for path in paths:
        status |= _check_file(path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
