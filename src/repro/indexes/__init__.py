"""Path Indexing Strategies (PIS) — the building blocks FliX composes.

Section 2.2 reviews the landscape; we implement all of the strategies the
paper works with.  Each one is a *builder* (its construction algorithm)
plus one *packed* class that answers the probes of
:class:`repro.indexes.base.PathIndex` off a FLXPACK blob
(:mod:`repro.indexes.packed`).  :func:`build_index` builds, packs and
attaches, and returns the packed index.  The builders:

* :mod:`repro.indexes.ppo` — Grust's pre/postorder scheme (trees/forests);
* :mod:`repro.indexes.hopi` — HOPI, the 2-hop reachability+distance cover,
  with both a centralized and a divide-and-conquer builder;
* :mod:`repro.indexes.apex` — APEX, the adaptive path index (structure-graph
  guided evaluation, optional workload refinement);
* :mod:`repro.indexes.kindex` — the Index Definition Scheme family:
  1-index, A(k)-indexes and the F&B index via bisimulation;
* :mod:`repro.indexes.dataguide` — strong DataGuides;
* :mod:`repro.indexes.fabric` — the Index Fabric's trie over label paths;
* :mod:`repro.indexes.transitive` — the materialized transitive closure
  (the paper's size strawman).

The reference every packed index is tested against is the BFS oracle of
:mod:`repro.graph.traversal` / :mod:`repro.graph.closure`.
"""

from repro.indexes.base import IndexNotApplicableError, PathIndex
from repro.indexes.registry import available_strategies, build_index

__all__ = [
    "PathIndex",
    "IndexNotApplicableError",
    "available_strategies",
    "build_index",
]
