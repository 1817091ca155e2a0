"""``tools/obs_cost.py`` borrows the bench spine's sampling and client
loop; it must keep running as those evolve.  Run at the spine's smoke
sizes, one pass per side, in a subprocess (the spine's modules, among
them one named ``trace``, stay out of this interpreter)."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DRIVER = """
import sys
sys.path.insert(0, "tools")
import obs_cost
obs_cost.SIZES = {name: {"full": s["smoke"]} for name, s in obs_cost.SIZES.items()}
obs_cost.RUNS = obs_cost.ROUNDS = 1
sys.exit(obs_cost.main(["--workload", sys.argv[1]]))
"""


@pytest.mark.parametrize("workload", ["dblp_ppo_inproc", "hetero_hybrid_inproc"])
def test_obs_cost_runs_at_smoke_sizes(workload):
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, workload],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("run 1: query_p50_ms on ")
    assert lines[-1].startswith(f"{workload} seed 1: median query_p50_ms on ")
    ratio = float(lines[-1].rsplit("on/off ", 1)[1])
    assert ratio > 0
