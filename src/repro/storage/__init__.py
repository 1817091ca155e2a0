"""What is left of the storage layer once every index is a FLXPACK blob.

* :mod:`repro.storage.atomic` — durable file writes (temp file + fsync +
  rename + directory fsync) for saves, collection layouts and the WAL;
* :mod:`repro.storage.errors` — the typed errors
  (:class:`StorageError` and its :class:`CorruptionError` kind) that blob
  attach, ``links.pack`` and the format-1 reader raise;
* :func:`format_bytes` — human-readable sizes for reports.
"""

from repro.storage.errors import CorruptionError, StorageError
from repro.storage.sizing import format_bytes

__all__ = [
    "StorageError",
    "CorruptionError",
    "format_bytes",
]
