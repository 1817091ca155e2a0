"""The FliX framework itself (sections 3-5 of the paper).

Build phase (section 4): the :class:`~repro.core.mdb.MetaDocumentBuilder`
splits the collection into meta documents following one of the paper's
configurations, the :class:`~repro.core.iss.IndexingStrategySelector` picks
the best strategy per meta document, and the
:class:`~repro.core.ib.IndexBuilder` materializes the indexes plus the
residual link sets.

Query phase (section 5): the :class:`~repro.core.pee.PathExpressionEvaluator`
answers ``a//b``, ``a//*``, ``A//B``, ancestor, and connection-test queries
by combining per-meta-document index lookups with run-time link traversal,
streaming results in approximately ascending distance.

:class:`~repro.core.framework.Flix` is the facade tying both phases together.
"""

from repro.core.api import (
    QUERY_KINDS,
    QueryRequest,
    QueryResponse,
)
from repro.core.config import CacheConfig, FlixConfig
from repro.core.connections import ConnectionEvaluator, ConnectionModel
from repro.core.meta_document import MetaDocument, MetaDocumentSpec
from repro.core.mdb import MetaDocumentBuilder
from repro.core.iss import IndexingStrategySelector, StrategyChoice
from repro.core.ib import IndexBuilder
from repro.core.pee import (
    PathExpressionEvaluator,
    QueryBudget,
    QueryResult,
    QueryStream,
)
from repro.core.planner import QueryPlan
from repro.core.results import StreamedList
from repro.core.framework import Flix
from repro.core.subcollections import (
    Subcollection,
    identify_subcollections,
)

__all__ = [
    "Flix",
    "FlixConfig",
    "CacheConfig",
    "QUERY_KINDS",
    "QueryRequest",
    "QueryResponse",
    "QueryBudget",
    "QueryStream",
    "ConnectionModel",
    "ConnectionEvaluator",
    "Subcollection",
    "identify_subcollections",
    "MetaDocument",
    "MetaDocumentSpec",
    "MetaDocumentBuilder",
    "IndexingStrategySelector",
    "StrategyChoice",
    "IndexBuilder",
    "PathExpressionEvaluator",
    "QueryResult",
    "StreamedList",
    "QueryPlan",
]
