"""``repro.indexes.packed`` — flat columnar hot-path index layouts.

The object-graph indexes (:mod:`repro.indexes.ppo`, ``hopi``, the summary
family, the transitive closure) are the *build-time* representation and
the tests' reference; this package compiles a built index into an
immutable FLXPACK blob (:mod:`.blob`) of int64 columns and serves every
:class:`repro.indexes.base.PathIndex` probe straight off those columns —
byte-identically to the object form.  The blob is the index: a packed
index (:mod:`.base`) answers its size and content fingerprint from its
blob, and every index a :class:`repro.core.framework.Flix` serves is one
of these (``docs/DATA_LAYOUT.md``).

Entry points:

* :func:`pack_index` — blob bytes for a built index;
* :func:`packed_clone` — the in-memory packed form of a built index,
  after which the object index can be dropped — the framework's one
  pack step;
* :func:`attach_packed_file` / :func:`attach_packed_blob` — mmap (or
  wrap) a blob and return the matching packed index, for millisecond
  cold starts out of a save directory.
"""

from __future__ import annotations

from repro.indexes.base import PathIndex
from repro.indexes.packed.base import PackedIndex
from repro.indexes.packed.blob import (
    FORMAT_VERSION,
    HEADER_BYTES,
    MAGIC,
    BlobWriter,
    PackedBlob,
)
from repro.indexes.packed.closure import (
    CLOSURE_BLOB_STRATEGY,
    PackedClosureIndex,
    pack_closure,
)
from repro.indexes.packed.hopi import PackedHopiIndex, pack_hopi
from repro.indexes.packed.ppo import PackedPpoIndex, pack_ppo
from repro.indexes.packed.summary import (
    SUMMARY_STRATEGIES,
    PackedSummaryIndex,
    pack_summary,
)
from repro.storage.errors import CorruptionError

#: strategies with a packed form: every registered one
PACKABLE_STRATEGIES = frozenset(
    ("ppo", "hopi", "transitive_closure") + SUMMARY_STRATEGIES
)


def is_packed(index) -> bool:
    """Whether ``index`` is already an attached packed index."""
    return isinstance(index, PackedIndex)


def pack_index(index: PathIndex):
    """Blob bytes for a built index.

    An already-packed index hands out its blob's own bytes as a read-only
    view (:attr:`PackedBlob.data`) — nothing is re-packed or copied.
    Raises ``TypeError`` for an index class with no packed form (a
    strategy registered from outside this package)."""
    from repro.indexes._summary import SummaryIndex
    from repro.indexes.hopi import HopiIndex
    from repro.indexes.ppo import PpoIndex
    from repro.indexes.transitive import TransitiveClosureIndex

    if is_packed(index):
        return index.blob.data
    if isinstance(index, PpoIndex):
        return pack_ppo(index)
    if isinstance(index, HopiIndex):
        return pack_hopi(index)
    if isinstance(index, SummaryIndex):
        return pack_summary(index)
    if isinstance(index, TransitiveClosureIndex):
        return pack_closure(index)
    raise TypeError(f"{type(index).__name__} has no packed form")


def attach_packed_blob(blob: PackedBlob) -> PathIndex:
    """The packed index served by an already-attached blob."""
    strategy = blob.strategy
    if strategy == "ppo":
        return PackedPpoIndex(blob)
    if strategy == "hopi":
        return PackedHopiIndex(blob)
    if strategy in SUMMARY_STRATEGIES:
        return PackedSummaryIndex(blob)
    if strategy == CLOSURE_BLOB_STRATEGY:
        return PackedClosureIndex(blob)
    raise CorruptionError(
        f"packed blob names unknown strategy {strategy!r}"
    )


def attach_packed_file(path) -> PathIndex:
    """mmap a blob file (verifying its checksum) and attach the index.

    Raises :class:`repro.storage.errors.CorruptionError` when the file is
    truncated, bit-flipped, or otherwise not a valid FLXPACK blob.
    """
    return attach_packed_blob(PackedBlob.attach(path))


def packed_clone(index: PathIndex) -> PathIndex:
    """The in-memory packed form of a built index.

    The clone does not reference the object index: once the caller drops
    it, the blob is the only copy.  An already-packed index is its own
    packed form.
    """
    if is_packed(index):
        return index
    return attach_packed_blob(
        PackedBlob.from_bytes(
            pack_index(index), source=f"<packed {index.strategy_name}>"
        )
    )


__all__ = [
    "PACKABLE_STRATEGIES",
    "FORMAT_VERSION",
    "HEADER_BYTES",
    "MAGIC",
    "BlobWriter",
    "CorruptionError",
    "PackedBlob",
    "PackedClosureIndex",
    "PackedHopiIndex",
    "PackedIndex",
    "PackedPpoIndex",
    "PackedSummaryIndex",
    "attach_packed_blob",
    "attach_packed_file",
    "is_packed",
    "pack_index",
    "packed_clone",
]
