"""Randomized transitive-closure size estimation (Cohen, JCSS 1997).

Section 2.2 of the paper notes that HOPI's size must be *estimated* from the
size of the transitive closure, and cites Edith Cohen's randomized
size-estimation framework as the intended tool ("for our current prototype we
have not yet applied such elaborated methods").  We apply it: the Indexing
Strategy Selector uses this estimator to decide when HOPI would grow too
large for a candidate meta document (see :mod:`repro.core.iss`), and the
ablation benchmark ``bench_estimator`` measures its accuracy against the
exact closure.

The estimator assigns independent Exp(1) ranks to all nodes and propagates,
for every node, the minimum rank over its reachable set.  The minimum of
``n`` Exp(1) variables is Exp(n)-distributed, so with ``k`` independent
rounds the reachable-set cardinality ``n`` has the unbiased maximum-
likelihood estimate ``(k - 1) / sum_of_minima`` — Cohen's least-element
estimator in its exact (exponential-rank) form.  Propagation runs over the
condensation DAG in reverse topological order, so cyclic link structures
are handled exactly.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List

from repro.graph.digraph import Digraph
from repro.graph.scc import condensation
from repro.graph.traversal import topological_sort

Node = Hashable


def estimate_descendant_counts(
    graph: Digraph,
    rounds: int = 25,
    seed: int = 0,
) -> Dict[Node, float]:
    """Estimated ``|descendants-or-self(v)|`` for every node ``v``.

    ``rounds`` trades accuracy for time; the relative standard error decays
    roughly as ``1 / sqrt(rounds)``.
    """
    if rounds < 2:
        raise ValueError("need at least 2 rounds for the least-element estimator")
    dag, component_of = condensation(graph)
    members: Dict[int, List[Node]] = {}
    for node, cid in component_of.items():
        members.setdefault(cid, []).append(node)
    order = topological_sort(dag)
    rng = random.Random(seed)

    # sum of per-round minimum ranks, per component
    min_sums: Dict[int, float] = {cid: 0.0 for cid in dag}
    for _ in range(rounds):
        ranks = {node: rng.expovariate(1.0) for node in graph}
        comp_min: Dict[int, float] = {}
        for cid in reversed(order):
            best = min(ranks[node] for node in members[cid])
            for succ in dag.successors(cid):
                if comp_min[succ] < best:
                    best = comp_min[succ]
            comp_min[cid] = best
        for cid, value in comp_min.items():
            min_sums[cid] += value

    estimates: Dict[Node, float] = {}
    for cid, total in min_sums.items():
        if total <= 0.0:  # pragma: no cover - probability zero
            size = float(graph.node_count)
        else:
            size = (rounds - 1) / total
        # A reachable set always contains the node itself and never exceeds
        # the graph, so clamp the raw estimate into the feasible range.
        size = max(1.0, min(size, float(graph.node_count)))
        for node in members[cid]:
            estimates[node] = size
    return estimates


def estimate_closure_size(
    graph: Digraph,
    rounds: int = 25,
    seed: int = 0,
) -> float:
    """Estimated number of (ancestor, descendant) pairs, self-pairs included.

    This is the quantity HOPI's storage is proportional to in the worst case,
    and hence what the strategy selector budgets against.
    """
    counts = estimate_descendant_counts(graph, rounds=rounds, seed=seed)
    return sum(counts.values())
