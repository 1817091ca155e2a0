"""``repro.indexes.packed`` — flat columnar hot-path index layouts.

The object-graph indexes (:mod:`repro.indexes.ppo`, ``hopi``, the summary
family) are the *build-time* representation and the tests' reference;
this package compiles a built index into an immutable FLXPACK blob
(:mod:`.blob`) of int64 columns and serves every
:class:`repro.indexes.base.PathIndex` probe straight off those columns —
byte-identically to the object form.  The blob is the index: a packed
index (:mod:`.base`) keeps no storage backend, and its size and content
fingerprint are the blob's.  Every index a
:class:`repro.core.framework.Flix` serves is one of these
(``docs/DATA_LAYOUT.md``).

Entry points:

* :func:`pack_index` — blob bytes for a built index (``None`` when the
  strategy has no packed form, e.g. ``transitive_closure``);
* :func:`packed_clone` — the in-memory packed form of a built index,
  which (with its tables) can then be dropped — the framework's one
  pack step;
* :func:`attach_packed_file` / :func:`attach_packed_blob` — mmap (or
  wrap) a blob and return the matching packed index, for millisecond
  cold starts out of a save directory.
"""

from __future__ import annotations

from typing import Optional

from repro.indexes.base import PathIndex
from repro.indexes.packed.base import PackedIndex
from repro.indexes.packed.blob import (
    FORMAT_VERSION,
    HEADER_BYTES,
    MAGIC,
    BlobWriter,
    PackedBlob,
)
from repro.indexes.packed.hopi import PackedHopiIndex, pack_hopi
from repro.indexes.packed.ppo import PackedPpoIndex, pack_ppo
from repro.indexes.packed.summary import (
    SUMMARY_STRATEGIES,
    PackedSummaryIndex,
    pack_summary,
)
from repro.storage.errors import CorruptionError

#: strategies with a packed form; others stay object-backed ("strategy
#: permitting" — the fallback ladder's transitive_closure metas do)
PACKABLE_STRATEGIES = frozenset(("ppo", "hopi") + SUMMARY_STRATEGIES)


def is_packed(index) -> bool:
    """Whether ``index`` is already an attached packed index."""
    return isinstance(index, PackedIndex)


def pack_index(index: PathIndex) -> Optional[bytes]:
    """Blob bytes for a built index; ``None`` if the strategy is unpackable.

    An already-packed index hands out its blob's own bytes as a read-only
    view (:attr:`PackedBlob.data`) — nothing is re-packed or copied."""
    from repro.indexes._summary import SummaryIndex
    from repro.indexes.hopi import HopiIndex
    from repro.indexes.ppo import PpoIndex

    if is_packed(index):
        return index.blob.data
    if isinstance(index, PpoIndex):
        return pack_ppo(index)
    if isinstance(index, HopiIndex):
        return pack_hopi(index)
    if isinstance(index, SummaryIndex):
        return pack_summary(index)
    return None


def attach_packed_blob(blob: PackedBlob) -> PathIndex:
    """The packed index served by an already-attached blob."""
    strategy = blob.strategy
    if strategy == "ppo":
        return PackedPpoIndex(blob)
    if strategy == "hopi":
        return PackedHopiIndex(blob)
    if strategy in SUMMARY_STRATEGIES:
        return PackedSummaryIndex(blob)
    raise CorruptionError(
        f"packed blob names unknown strategy {strategy!r}"
    )


def attach_packed_file(path) -> PathIndex:
    """mmap a blob file (verifying its checksum) and attach the index.

    Raises :class:`repro.storage.errors.CorruptionError` when the file is
    truncated, bit-flipped, or otherwise not a valid FLXPACK blob.
    """
    return attach_packed_blob(PackedBlob.attach(path))


def packed_clone(index: Optional[PathIndex]) -> Optional[PathIndex]:
    """The in-memory packed form of a built index (``None`` if unpackable).

    The clone references neither the object index nor its storage
    backend: once the caller drops those, the blob is the only copy.
    """
    if index is None or is_packed(index):
        return None
    data = pack_index(index)
    if data is None:
        return None
    return attach_packed_blob(
        PackedBlob.from_bytes(data, source=f"<packed {index.strategy_name}>")
    )


__all__ = [
    "PACKABLE_STRATEGIES",
    "FORMAT_VERSION",
    "HEADER_BYTES",
    "MAGIC",
    "BlobWriter",
    "CorruptionError",
    "PackedBlob",
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
