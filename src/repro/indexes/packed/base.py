"""What the three packed index classes share: the blob *is* the index.

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

    @classmethod
    def build(cls, graph, tags):  # pragma: no cover - build-time is object-graph
        raise NotImplementedError(
            "packed indexes are compiled from a built object index "
            "(repro.indexes.packed.pack_index), not built from a graph"
        )

    def size_bytes(self) -> int:
        """The blob is the whole persisted state of a packed index."""
        return self._blob.size_bytes()

    def fingerprint(self) -> str:
        """Equal content packs to equal bytes, so the blob's hash is the
        index's content hash."""
        return self._blob.raw_fingerprint()
