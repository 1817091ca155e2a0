"""What is left of the storage layer once every index is a FLXPACK blob.

* :mod:`repro.storage.atomic` — durable file writes (temp file + fsync +
  rename + directory fsync) for saves, collection layouts and the WAL;
* :mod:`repro.storage.errors` — the typed error taxonomy
  (:class:`StorageError` and its transient / permanent / corruption
  kinds) that blob attach, the PEE's degrade path and the fault injector
  speak;
* :func:`format_bytes` — human-readable sizes for reports.
"""

from repro.storage.errors import (
    CorruptionError,
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage.sizing import format_bytes

__all__ = [
    "StorageError",
    "TransientStorageError",
    "PermanentStorageError",
    "CorruptionError",
    "format_bytes",
]
