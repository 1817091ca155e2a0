"""The residual links' one stored form: the ``links.pack`` blob.

In memory the residual links live only in the meta documents
(``MetaDocument.outgoing_links`` / ``incoming_links``).  On disk they are
one FLXPACK blob of two int64 columns, ``src`` and ``dst``, sorted by
``(src, dst)`` — 16 bytes per link after a fixed header and directory.
The same bytes are what ``Flix.size_bytes()`` counts and
``Flix.index_fingerprint()`` hashes for the links
(``docs/DATA_LAYOUT.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.meta_document import Edge, MetaDocument
from repro.indexes.packed.blob import BlobWriter, PackedBlob
from repro.storage.errors import CorruptionError

LINKS_FILENAME = "links.pack"
#: the blob header's strategy field
LINKS_BLOB_STRATEGY = "links"


def residual_links(metas: Iterable[Optional[MetaDocument]]) -> List[Edge]:
    """Every residual link of the live meta documents, sorted."""
    return sorted(
        (source, target)
        for meta in metas
        if meta is not None
        for source, targets in meta.outgoing_links.items()
        for target in targets
    )


def wire_links(
    slots: Sequence[Optional[MetaDocument]],
    meta_of: Dict[int, int],
    links: Iterable[Edge],
) -> None:
    """Add ``links`` (sorted) to the meta documents' link maps.  The
    caller finalizes the touched metas."""
    for u, v in links:
        slots[meta_of[u]].outgoing_links.setdefault(u, []).append(v)
        slots[meta_of[v]].incoming_links.setdefault(v, []).append(u)


def pack_links(links: Sequence[Edge]) -> bytes:
    """The ``links.pack`` bytes of sorted residual links."""
    writer = BlobWriter(LINKS_BLOB_STRATEGY)
    writer.add_column("src", (u for u, _ in links))
    writer.add_column("dst", (v for _, v in links))
    return writer.to_bytes()


#: header + directory of a links blob; each link adds two int64 values
_EMPTY_BYTES = len(pack_links(()))


def links_pack_bytes(count: int) -> int:
    """Size of the ``links.pack`` blob holding ``count`` links."""
    return _EMPTY_BYTES + 16 * count


def read_links(path) -> List[Edge]:
    """The residual links a ``links.pack`` file holds, in file order.

    Raises :class:`~repro.storage.errors.CorruptionError` for a file that
    is not a valid links blob."""
    blob = PackedBlob.attach(path)
    try:
        if blob.strategy != LINKS_BLOB_STRATEGY:
            raise CorruptionError(
                f"{path}: a {blob.strategy!r} blob, not residual links"
            )
        sources = blob.column_list("src")
        targets = blob.column_list("dst")
    finally:
        blob.close()
    if len(sources) != len(targets):
        raise CorruptionError(f"{path}: src and dst columns differ in length")
    return list(zip(sources, targets))
