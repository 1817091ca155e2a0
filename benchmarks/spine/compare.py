#!/usr/bin/env python3
"""Compare bench-spine result files.

    python3 benchmarks/spine/compare.py A.json B.json [more...]

Result files (``run.py --out``) are grouped by their ``label`` — the git
commit unless ``run.py --label`` named the set — in order of first
appearance; the first group is the base every other group is held
against.  For each (workload, end-to-end metric) the group medians are
compared under the bound ``BENCHMARK.json`` fixes:

``ok``          the new median is no worse than the base's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  a group's inter-quartile spread exceeds the bound and the
                two groups' runs overlap, so the data cannot tell

Per-layer metrics (traced result files) have no bound and are listed with
their ratio only.  Exit status is 1 on any regression, on more failed
operations than the base, or on an incorrect run; otherwise 0.  Two sets
of runs of one commit "agree" when this prints no ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from stats import iqr_share

ROOT = Path(__file__).resolve().parents[2]


def load_groups(paths) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        groups.setdefault(document["label"], []).append(document)
    return groups


def collect(documents: List[dict]) -> Tuple[Dict[Tuple[str, str], List[float]], Dict[str, int], bool]:
    """``{(workload, metric): values}``, ``{workload: failed operations}``
    and whether every run was correct, over one group's files."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, int] = {}
    correct = True
    for document in documents:
        for run in document["runs"]:
            correct = correct and run["correct"]
            failed[run["workload"]] = failed.get(run["workload"], 0) + run["failed"]
            for metric, entry in run["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values, failed, correct


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    loss = worse_by(statistics.median(base), statistics.median(new), better)
    noisy = max(iqr_share(base), iqr_share(new)) > bound
    overlap = min(base) <= max(new) and min(new) <= max(base)
    if noisy and overlap:
        return "unresolved"
    return "regressed" if loss > bound else "ok"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2:
        print(__doc__)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    groups = load_groups(paths)
    if len(groups) < 2:
        print("all files carry the same label; name the sets with run.py --label")
        return 2
    labels = list(groups)
    base_values, base_failed, base_correct = collect(groups[labels[0]])
    status = 0 if base_correct else 1
    for label in labels[1:]:
        new_values, new_failed, new_correct = collect(groups[label])
        print(f"base {labels[0][:12]} ({len(groups[labels[0]])} files)  vs  "
              f"{label[:12]} ({len(groups[label])} files)")
        print(f"{'workload':24s} {'metric':42s} {'base':>14s} {'new':>14s} "
              f"{'ratio':>7s}  verdict")
        for key in sorted(set(base_values) & set(new_values)):
            workload, metric = key
            spec = declared.get(metric)
            if spec is None:
                continue
            base, new = base_values[key], new_values[key]
            base_mid, new_mid = statistics.median(base), statistics.median(new)
            ratio = new_mid / base_mid if base_mid else float("nan")
            word = (
                verdict(base, new, spec["better"], spec["bound"])
                if "bound" in spec else "-"
            )
            if word == "regressed":
                status = 1
            print(f"{workload:24s} {metric:42s} {base_mid:14.4f} {new_mid:14.4f} "
                  f"{ratio:7.3f}  {word}")
        for workload in sorted(new_failed):
            if new_failed[workload] > base_failed.get(workload, 0):
                print(f"{workload}: failed operations rose from "
                      f"{base_failed.get(workload, 0)} to {new_failed[workload]}")
                status = 1
        if not new_correct:
            print(f"{label[:12]}: at least one run was not correct")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
