#!/usr/bin/env python3
"""The bench spine's one command.

    python3 benchmarks/spine/run.py --workload <name|all> --seed <int>
        [--seconds <int>] [--trace 0|1] [--smoke] [--out <file>]
        [--history <file>] [--label <text>]

Prints every metric of the run by name with its unit, then — as the last
line of standard output — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones (a separate, traced
run; end-to-end numbers never come from it).  Exit status 0 means the
run completed and printed a result; whether the answers were right is the
``correct`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
ROOT = SPINE_DIR.parents[1]

#: environment overrides that would change what the program does behind
#: the benchmark's back (probe planner, layout, fault plans, injected
#: worker stalls); the run refuses to start under any of them
FORBIDDEN_ENV_PREFIX = "FLIX_"
FORBIDDEN_ENV_NAMES = ("FAULT_PLAN",)


def forbidden_environment(environ) -> list:
    return sorted(
        name for name in environ
        if name.startswith(FORBIDDEN_ENV_PREFIX) or name in FORBIDDEN_ENV_NAMES
    )


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
        return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def reported(result, declared: list) -> dict:
    """The run's metrics in the contract's shape, exactly the declared
    names; a per-layer metric whose layer did no work in this workload
    reads 0."""
    values = result.metrics
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def run_one(name: str, args, seconds: float, declared: list) -> dict:
    """Run one workload in this process, print its metrics, and return
    its entry of the result file."""
    import workloads

    started = time.perf_counter()
    result = workloads.run(name, args.seed, seconds, bool(args.trace), args.smoke)
    metrics = reported(result, declared)
    print(f"== {name}  seed={args.seed}  trace={args.trace}  "
          f"attempted={result.attempted}  failed={result.failed}  "
          f"correct={result.correct}  "
          f"({time.perf_counter() - started:.1f} s)")
    for metric, entry in metrics.items():
        print(f"{metric:48s} {entry['value']:16.6f} {entry['unit']}")
    layer_table = result.detail.get("layers")
    if layer_table:
        print("-- self time per layer (sums to the client span per request)")
        for layer, row in layer_table.items():
            print(f"{layer:48s} {row['self_ms_p50']:12.4f} ms p50  "
                  f"{row['self_share'] * 100:6.2f} %  n={row['spans']}")
    return {
        "workload": name,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "detail": result.detail,
    }


def each_in_its_own_process(name: str, args, seconds: float) -> dict:
    """``--workload all``: run ``name`` as the driver would, in a process
    of its own — peak memory is a high-water mark of the process, and one
    workload's heap would be the next one's floor."""
    from deploy import WORK_ROOT

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
        out = Path(scratch) / "result.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--out", str(out),
        ] + (["--smoke"] if args.smoke else [])
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            try:
                stdout, _ = child.communicate()
            except BaseException:
                # terminated, it unwinds like a failed run (see __main__)
                child.terminate()
                child.wait()
                raise
        if child.returncode != 0:
            raise SystemExit(f"{name} exited with status {child.returncode}")
        # everything but the child's own result line
        print("\n".join(stdout.splitlines()[:-1]), flush=True)
        return json.loads(out.read_text(encoding="utf-8"))["runs"][0]


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one set-up, one second per workload")
    parser.add_argument("--out", help="write the full result file here")
    parser.add_argument("--history", help="append one line per workload run "
                        "(label, commit, seed, metric values) to this file")
    parser.add_argument("--label", help="group name compare.py files this "
                        "run under (default: the git commit)")
    args = parser.parse_args(argv)

    overrides = forbidden_environment(os.environ)
    if overrides:
        print(f"refusing to run with {overrides} set: the spine measures "
              "the program's defaults", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # the program under test, and the spine's own modules beside this file
    # (trace.py shadows the unused stdlib module of that name — deliberate)
    sys.path.insert(0, str(ROOT / "src"))

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(contract["run_seconds"])
    if args.workload == "all":
        runs = [each_in_its_own_process(name, args, seconds) for name in names]
    else:
        declared = contract["per_layer" if args.trace else "end_to_end"]
        runs = [run_one(args.workload, args, seconds, declared)]

    sha = git_sha() if args.out or args.history else "unknown"
    if args.history:
        history = Path(args.history)
        history.parent.mkdir(parents=True, exist_ok=True)
        with open(history, "a", encoding="utf-8") as handle:
            for entry in runs:
                handle.write(json.dumps({
                    "label": args.label or sha, "git_sha": sha,
                    "seed": args.seed, "seconds": seconds,
                    "trace": args.trace, "smoke": args.smoke,
                    "workload": entry["workload"],
                    "correct": entry["correct"], "failed": entry["failed"],
                    "metrics": {
                        name: metric["value"]
                        for name, metric in entry["metrics"].items()
                    },
                }) + "\n")
    if args.out:
        document = {
            "schema": "flix-spine/1",
            "label": args.label or sha,
            "git_sha": sha,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "runs": runs,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    if len(runs) == 1:
        merged = runs[0]["metrics"]
    else:
        merged = {
            f"{run['workload']}.{metric}": entry
            for run in runs for metric, entry in run["metrics"].items()
        }
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the coordinator's result cache shards by hash(key) and keys hold
        # strings: without a fixed hash seed the same inputs evict (and
        # iterate sets) differently from run to run.  Workers inherit it.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    # a terminated run unwinds like a failed one: workers stopped, the
    # front door closed, scratch directories removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
