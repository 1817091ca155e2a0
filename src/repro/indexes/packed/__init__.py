"""``repro.indexes.packed`` — flat columnar hot-path index layouts.

The object-graph indexes (:mod:`repro.indexes.ppo`, ``hopi``, the summary
family) are the *build-time* representation and the tests' reference;
this package compiles a built index into an immutable FLXPACK blob
(:mod:`.blob`) of int64 columns and serves every
:class:`repro.indexes.base.PathIndex` probe straight off those columns —
byte-identically to the object form, with the same backend fingerprint
(see :mod:`.backend`).  Every index a :class:`repro.core.framework.Flix`
serves is one of these (``docs/DATA_LAYOUT.md``).

Entry points:

* :func:`pack_index` — blob bytes for a built index (``None`` when the
  strategy has no packed form, e.g. ``transitive_closure``);
* :func:`packed_clone` — an in-memory packed twin of a built index,
  sharing its storage backend (the framework's one pack step);
* :func:`attach_packed_file` / :func:`attach_packed_blob` — mmap (or
  wrap) a blob and return the matching packed index, for millisecond
  cold starts out of a save directory.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.indexes.base import PathIndex
from repro.indexes.packed.backend import PackedBackend
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
from repro.storage.table import StorageBackend

#: strategies with a packed form; others stay object-backed ("strategy
#: permitting" — the fallback ladder's transitive_closure metas do)
PACKABLE_STRATEGIES = frozenset(("ppo", "hopi") + SUMMARY_STRATEGIES)

_PACKED_CLASSES = (PackedPpoIndex, PackedHopiIndex, PackedSummaryIndex)


def is_packed(index) -> bool:
    """Whether ``index`` is already an attached packed index."""
    return isinstance(index, _PACKED_CLASSES)


def pack_index(index: PathIndex) -> Optional[bytes]:
    """Blob bytes for a built index; ``None`` if the strategy is unpackable."""
    from repro.indexes._summary import SummaryIndex
    from repro.indexes.hopi import HopiIndex
    from repro.indexes.ppo import PpoIndex

    if is_packed(index):
        return index.blob._buffer if isinstance(index.blob._buffer, bytes) else bytes(
            index.blob._buffer
        )
    if isinstance(index, PpoIndex):
        return pack_ppo(index)
    if isinstance(index, HopiIndex):
        return pack_hopi(index)
    if isinstance(index, SummaryIndex):
        return pack_summary(index)
    return None


def _index_for(blob: PackedBlob, backend: PackedBackend) -> PathIndex:
    strategy = blob.strategy
    if strategy == "ppo":
        return PackedPpoIndex(backend, blob)
    if strategy == "hopi":
        return PackedHopiIndex(backend, blob)
    if strategy in SUMMARY_STRATEGIES:
        return PackedSummaryIndex(backend, blob)
    raise CorruptionError(
        f"packed blob names unknown strategy {strategy!r}"
    )


def attach_packed_blob(
    blob: PackedBlob,
    *,
    source: Optional[StorageBackend] = None,
    source_factory: Optional[Callable[[], StorageBackend]] = None,
    fingerprint: Optional[str] = None,
) -> PathIndex:
    """The packed index served by an already-attached blob."""
    backend = PackedBackend(
        blob,
        source=source,
        source_factory=source_factory,
        fingerprint=fingerprint,
    )
    return _index_for(blob, backend)


def attach_packed_file(
    path,
    *,
    source_factory: Optional[Callable[[], StorageBackend]] = None,
    fingerprint: Optional[str] = None,
) -> PathIndex:
    """mmap a blob file (verifying its checksum) and attach the index.

    Raises :class:`repro.storage.errors.CorruptionError` when the file is
    truncated, bit-flipped, or otherwise not a valid FLXPACK blob.
    """
    blob = PackedBlob.attach(path)
    return attach_packed_blob(
        blob, source_factory=source_factory, fingerprint=fingerprint
    )


def packed_clone(index: Optional[PathIndex]) -> Optional[PathIndex]:
    """An in-memory packed twin of a built index (``None`` if unpackable).

    The clone shares the original's storage backend, so persistence and
    fingerprinting see exactly the tables the object index persisted.
    """
    if index is None or is_packed(index):
        return None
    data = pack_index(index)
    if data is None:
        return None
    blob = PackedBlob.from_bytes(data, source=f"<packed {index.strategy_name}>")
    return attach_packed_blob(blob, source=index.backend)


__all__ = [
    "PACKABLE_STRATEGIES",
    "FORMAT_VERSION",
    "HEADER_BYTES",
    "MAGIC",
    "BlobWriter",
    "CorruptionError",
    "PackedBackend",
    "PackedBlob",
    "PackedHopiIndex",
    "PackedPpoIndex",
    "PackedSummaryIndex",
    "attach_packed_blob",
    "attach_packed_file",
    "is_packed",
    "pack_index",
    "packed_clone",
]
