"""The Path Indexing Strategies, and the one way to build an index.

Each strategy pairs a *builder* (its construction algorithm, the modules
beside this one) with a *pack step* (:mod:`repro.indexes.packed`) that
compiles the builder's state into a FLXPACK blob.  This module is the
only place the two meet: :func:`build_index` builds, packs and attaches,
and returns the packed index — the one form of an index a
:class:`repro.core.framework.Flix` serves, saves and loads.  The builder
is garbage as soon as its pack step has read it.  The Indexing Strategy
Selector picks among :func:`available_strategies`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.graph.digraph import Digraph
from repro.indexes.apex import ApexIndex
from repro.indexes.base import NodeId, PathIndex
from repro.indexes.dataguide import DataGuideIndex
from repro.indexes.fabric import FabricIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.kindex import ForwardBackwardIndex, KBisimulationIndex
from repro.indexes.packed import attach_packed_blob
from repro.indexes.packed.blob import PackedBlob
from repro.indexes.packed.closure import pack_closure
from repro.indexes.packed.hopi import pack_hopi
from repro.indexes.packed.ppo import pack_ppo
from repro.indexes.packed.summary import pack_summary
from repro.indexes.ppo import PpoIndex
from repro.indexes.transitive import TransitiveClosureIndex

#: strategy name -> (builder class, pack step)
_STRATEGIES: Dict[str, Tuple[type, Callable[[object], bytes]]] = {
    builder.strategy_name: (builder, pack)
    for builder, pack in (
        (PpoIndex, pack_ppo),
        (HopiIndex, pack_hopi),
        (ApexIndex, pack_summary),
        (KBisimulationIndex, pack_summary),
        (ForwardBackwardIndex, pack_summary),
        (DataGuideIndex, pack_summary),
        (FabricIndex, pack_summary),
        (TransitiveClosureIndex, pack_closure),
    )
}


def available_strategies() -> List[str]:
    """All strategy names, sorted."""
    return sorted(_STRATEGIES)


def strategy_class(name: str) -> type:
    """The builder class of the named strategy."""
    try:
        return _STRATEGIES[name][0]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None


def build_index(
    name: str,
    graph: Digraph,
    tags: Mapping[NodeId, str],
) -> PathIndex:
    """The packed index of the named strategy over ``graph``; ``tags``
    maps every node to its element name."""
    return pack_built(strategy_class(name).build(graph, tags))


def pack_built(builder) -> PathIndex:
    """Pack a finished builder and attach the blob.

    :func:`build_index` runs each strategy's default construction; this
    is also the way to serve a variant one (HOPI's divide-and-conquer
    build, an A(k)-index, a workload-refined APEX).
    """
    name = builder.strategy_name
    data = _STRATEGIES[name][1](builder)
    return attach_packed_blob(PackedBlob.from_bytes(data, source=f"<packed {name}>"))
