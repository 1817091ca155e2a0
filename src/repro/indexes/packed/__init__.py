"""``repro.indexes.packed`` — flat columnar index layouts and their probes.

The builders (:mod:`repro.indexes.ppo`, ``hopi``, the summary family, the
transitive closure) hold a strategy's state only while it is built; each
module here has the pack step that compiles that state into an immutable
FLXPACK blob (:mod:`.blob`) of int64 columns, and the one class that
serves every :class:`repro.indexes.base.PathIndex` probe of the strategy
straight off those columns.  The blob is the index: a packed index
(:mod:`.base`) answers its size and content fingerprint from its blob,
and every index a :class:`repro.core.framework.Flix` serves is one of
these (``docs/DATA_LAYOUT.md``).  The tests hold every packed class
against the BFS oracle of :mod:`repro.graph`.

Entry points (:func:`repro.indexes.registry.build_index` builds, packs
and attaches in one call):

* :func:`pack_index` — the blob bytes of a packed index, as a read-only
  view;
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
from repro.indexes.packed.closure import CLOSURE_BLOB_STRATEGY, PackedClosureIndex
from repro.indexes.packed.hopi import PackedHopiIndex
from repro.indexes.packed.ppo import PackedPpoIndex
from repro.indexes.packed.summary import SUMMARY_STRATEGIES, PackedSummaryIndex
from repro.storage.errors import CorruptionError


def pack_index(index: PackedIndex) -> memoryview:
    """The blob bytes of a packed index: its blob's own bytes as a
    read-only view (:attr:`PackedBlob.data`), nothing re-packed or
    copied."""
    return index.blob.data


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


__all__ = [
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
    "pack_index",
]
