"""The Indexing Strategy Selector (ISS), sections 3.2 and 4.1.

Chooses, per meta document, the best strategy among those the configuration
allows, "based on structure, size and other properties of the meta
documents".  The decision procedure encodes the paper's rules of thumb
(section 2.2):

* no links / tree-shaped data -> PPO;
* long paths and wildcard-heavy loads -> HOPI, *if* its estimated size fits
  the budget (the estimate uses Cohen's randomized closure-size estimator,
  exactly the method the paper cites as the intended size predictor);
* otherwise -> APEX (or whatever summary index is allowed).

The selector is a pure function of the configuration and the graph,
which is what keeps parallel builds and incremental growth deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FlixConfig
from repro.graph.digraph import Digraph
from repro.graph.estimation import estimate_closure_size
from repro.graph.treecheck import is_forest
from repro.indexes.base import IndexNotApplicableError


@dataclass(frozen=True)
class StrategyChoice:
    """The selected strategy plus the reasoning, for build reports."""

    strategy: str
    rationale: str
    estimated_closure_pairs: float = 0.0


class IndexingStrategySelector:
    """Rule/cost based per-meta-document strategy selection."""

    #: graphs below this size skip the randomized estimator: the exact
    #: closure bound n*n is cheap to reason about and the estimator's
    #: overhead isn't worth it.
    SMALL_GRAPH_NODES = 64

    def __init__(self, config: FlixConfig) -> None:
        self._config = config

    def choose(self, graph: Digraph) -> StrategyChoice:
        """Select a strategy for the meta document with element graph ``graph``."""
        allowed = self._config.allowed_strategies
        forest = is_forest(graph)
        if forest and "ppo" in allowed:
            return StrategyChoice("ppo", "element graph is a forest of trees")
        non_ppo = tuple(name for name in allowed if name != "ppo")
        if not non_ppo:
            raise IndexNotApplicableError(
                "configuration only allows PPO but the meta document's "
                "element graph is not a forest"
            )
        if "hopi" in non_ppo:
            pairs = self._estimated_pairs(graph)
            per_node = pairs / max(1, graph.node_count)
            if per_node <= self._config.hopi_pairs_per_node_budget:
                reason = (
                    "graph has links and the expected load is descendants-"
                    "heavy" if self._config.expect_long_paths
                    else "graph has links"
                )
                if self._config.expect_long_paths or len(non_ppo) == 1:
                    return StrategyChoice(
                        "hopi",
                        f"{reason}; estimated closure of {pairs:.0f} pairs "
                        f"({per_node:.1f}/node) fits the budget",
                        pairs,
                    )
            elif len(non_ppo) == 1:
                return StrategyChoice(
                    "hopi",
                    f"estimated closure of {pairs:.0f} pairs exceeds the "
                    "budget but the configuration allows no alternative",
                    pairs,
                )
            else:
                return StrategyChoice(
                    self._first_summary(non_ppo),
                    f"estimated closure of {pairs:.0f} pairs "
                    f"({per_node:.1f}/node) exceeds the HOPI budget",
                    pairs,
                )
        return StrategyChoice(
            self._first_summary(non_ppo),
            "short-path / summary strategy preferred by the configuration",
        )

    def _estimated_pairs(self, graph: Digraph) -> float:
        if graph.node_count <= self.SMALL_GRAPH_NODES:
            # For tiny graphs the worst case is already affordable.
            return float(graph.node_count * graph.node_count) / 2.0
        return estimate_closure_size(graph, rounds=8)

    @staticmethod
    def _first_summary(candidates) -> str:
        for name in candidates:
            if name != "hopi":
                return name
        return candidates[0]
