"""What the four packed index classes share: the blob *is* the index.

Every probe, the size and the content fingerprint of a packed index are
answered from the attached FLXPACK blob, the one copy of the meta
document's index in memory and on disk (``docs/DATA_LAYOUT.md``).
"""

from __future__ import annotations

import threading

from repro.indexes.base import PathIndex
from repro.indexes.packed.blob import PackedBlob


class PackedIndex(PathIndex):
    """A :class:`PathIndex` served straight off an attached blob."""

    def __init__(self, blob: PackedBlob) -> None:
        self._blob = blob
        # serving threads that race the first probe wait for one
        # promotion instead of each repeating it
        self._promotion = threading.Lock()

    @property
    def blob(self) -> PackedBlob:
        return self._blob

    def __reduce__(self):
        # a packed index crosses a process boundary (the Index Builder's
        # worker pool) as its blob's bytes, and is attached again there
        return (_attach_bytes, (type(self), bytes(self._blob.data)))

    def size_bytes(self) -> int:
        """The blob is the whole persisted state of a packed index."""
        return self._blob.size_bytes()

    def fingerprint(self) -> str:
        """Equal content packs to equal bytes, so the blob's hash is the
        index's content hash."""
        return self._blob.raw_fingerprint()


def _attach_bytes(cls, data: bytes) -> PackedIndex:
    return cls(PackedBlob.from_bytes(data, source=f"<packed {cls.strategy_name}>"))
