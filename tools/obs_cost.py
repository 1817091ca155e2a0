#!/usr/bin/env python
"""What leaving observability on costs an in-process query.

Builds the index of one in-process bench-spine workload twice — with
observability on (the default) and with ``with_observability(False)`` —
and replays that workload's timed request list (seed 1, full sizes)
through ``Flix.query`` on each side, with the spine's own sampling
(``workloads._sample``), client loop (``readloop.inproc_pass``) and
``query_p50_ms`` (``readloop.Passes.end_to_end``).  Each of ``RUNS``
runs is ``ROUNDS`` rounds of one pass per side, the side that goes first
alternating, so both sides share the machine's drift.  Prints every
run's two ``query_p50_ms`` and the on/off ratio of their medians.

    python tools/obs_cost.py --workload dblp_ppo_inproc

Answers are not oracle-checked here (the spine does that); the script
only times.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT / "benchmarks" / "spine")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from inputs import dblp_documents, hetero_documents  # noqa: E402
from readloop import Passes, harness_garbage_held, inproc_pass  # noqa: E402
from speed import SpeedMonitor  # noqa: E402
from workloads import HYBRID, PPO, SIZES, _sample  # noqa: E402

from repro import Flix, build_collection  # noqa: E402

WORKLOADS = ("dblp_ppo_inproc", "hetero_hybrid_inproc")
SEED = 1
RUNS = 5
#: passes per side in one run; a run reads each request at the median of
#: its passes, as the spine does
ROUNDS = 3


def _setup(name: str):
    """``(documents, config, timed requests, warm-up requests)``."""
    sizes = SIZES[name]["full"]
    if name == "dblp_ppo_inproc":
        documents = lambda: dblp_documents(sizes["dblp"])
        config = PPO
    else:
        documents = lambda: hetero_documents(sizes["dblp"], sizes["articles"])
        config = HYBRID
    timed, warm = _sample(
        build_collection(documents()), sizes["requests"], sizes["warmup"],
        random.Random(f"{name}:{SEED}"),
    )
    return documents, config, [s.request for s in timed], [s.request for s in warm]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    args = parser.parse_args(argv)

    documents, config, timed, warm = _setup(args.workload)
    sides = {}
    for label, enabled in (("on", True), ("off", False)):
        flix = Flix.build(
            build_collection(documents()), config.with_observability(enabled)
        )
        for request in warm:
            flix.query(request)
        sides[label] = flix

    readings = {"on": [], "off": []}
    with SpeedMonitor() as monitor:
        for run in range(RUNS):
            passes = {label: Passes(per_slot=True) for label in sides}
            for round_ in range(ROUNDS):
                order = ("on", "off") if (run + round_) % 2 == 0 else ("off", "on")
                for label in order:
                    with harness_garbage_held():
                        one = inproc_pass(sides[label].query, timed, monitor)
                        one.answers = []
                    passes[label].runs.append(one)
            for label in sides:
                readings[label].append(passes[label].end_to_end()["query_p50_ms"])
            print(f"run {run + 1}: query_p50_ms on {readings['on'][-1]:.3f} "
                  f"off {readings['off'][-1]:.3f} "
                  f"ratio {readings['on'][-1] / readings['off'][-1]:.3f}")
    on = statistics.median(readings["on"])
    off = statistics.median(readings["off"])
    print(f"{args.workload} seed {SEED}: median query_p50_ms "
          f"on {on:.3f} off {off:.3f}; on/off {on / off:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
