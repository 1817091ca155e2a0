"""Makes the spine's flat modules and the program under test importable:
``python -m pytest benchmarks/spine/tests`` needs no PYTHONPATH."""

import sys
from pathlib import Path

SPINE = Path(__file__).resolve().parents[1]
for entry in (str(SPINE.parents[1] / "src"), str(SPINE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
