"""Registry of Path Indexing Strategies.

FliX is "extensible and can be tailored to the needs of the application"
(section 1.2): new strategies register themselves here, and the Indexing
Strategy Selector picks among whatever is registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Type

from repro.graph.digraph import Digraph
from repro.indexes.apex import ApexIndex
from repro.indexes.base import NodeId, PathIndex
from repro.indexes.dataguide import DataGuideIndex
from repro.indexes.fabric import FabricIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.kindex import ForwardBackwardIndex, KBisimulationIndex
from repro.indexes.ppo import PpoIndex
from repro.indexes.transitive import TransitiveClosureIndex

_REGISTRY: Dict[str, Type[PathIndex]] = {}


def register_strategy(index_class: Type[PathIndex]) -> None:
    """Register an index class under its ``strategy_name``."""
    name = index_class.strategy_name
    if not name or name == "abstract":
        raise ValueError("index class must define a concrete strategy_name")
    _REGISTRY[name] = index_class


def available_strategies() -> List[str]:
    """All registered strategy names, sorted."""
    return sorted(_REGISTRY)


def strategy_class(name: str) -> Type[PathIndex]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None


def build_index(
    name: str,
    graph: Digraph,
    tags: Mapping[NodeId, str],
) -> PathIndex:
    """Build an index of the named strategy over ``graph``."""
    return strategy_class(name).build(graph, tags)


@dataclass(frozen=True)
class IndexBuildRequest:
    """A picklable description of one index build.

    This is the hand-off unit of the parallel Index Builder: it names the
    strategy instead of carrying the class (worker processes resolve it
    against their own registry after import) and describes the graph with
    primitives, so the request crosses process boundaries cheaply.  When
    the caller already holds a built :class:`Digraph` — the IB builds one
    for strategy selection anyway — ``nodes``/``edges`` may stay empty and
    the graph is passed to :func:`execute_build_request` directly.
    """

    strategy: str
    tags: Mapping[NodeId, str]
    nodes: Tuple[NodeId, ...] = ()
    edges: Tuple[Tuple[NodeId, NodeId], ...] = ()

    def to_graph(self) -> Digraph:
        graph = Digraph()
        for node in self.nodes:
            graph.add_node(node)
        for u, v in self.edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_graph(
        cls,
        strategy: str,
        graph: Digraph,
        tags: Mapping[NodeId, str],
    ) -> "IndexBuildRequest":
        return cls(
            strategy=strategy,
            tags=dict(tags),
            nodes=tuple(graph),
            edges=tuple(graph.edges()),
        )


def execute_build_request(
    request: IndexBuildRequest,
    graph: Optional[Digraph] = None,
) -> PathIndex:
    """Run one :class:`IndexBuildRequest`: the strategy's object build,
    which the pack step then compiles into its blob
    (``docs/DATA_LAYOUT.md``).

    ``graph`` short-circuits the rebuild from primitives when the caller
    already materialized it (the IB's workers do, for strategy selection).
    """
    if graph is None:
        graph = request.to_graph()
    return strategy_class(request.strategy).build(graph, request.tags)


for _cls in (
    PpoIndex,
    HopiIndex,
    ApexIndex,
    KBisimulationIndex,
    ForwardBackwardIndex,
    DataGuideIndex,
    FabricIndex,
    TransitiveClosureIndex,
):
    register_strategy(_cls)
