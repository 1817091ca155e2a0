"""Typed storage errors: the stable contract callers of the storage API
catch on.

Every backend maps its native errors into this hierarchy, so a caller
decides by class rather than by message:

* :class:`TransientStorageError` — may succeed on retry (lock contention,
  I/O hiccups).
* :class:`PermanentStorageError` — retrying cannot help (schema violations,
  misuse, missing tables).
* :class:`CorruptionError` — the stored bytes are damaged (malformed
  database image, checksum mismatch); the repair path
  (:func:`repro.core.persistence.repair_flix`) is the cure.

Raw backend exceptions (``sqlite3.OperationalError``, ...) must not leak to
callers of the storage API; the SQLite backend converts them at every
public entry point.
"""

from __future__ import annotations


class StorageError(RuntimeError):
    """Base class of every storage-layer failure."""


class TransientStorageError(StorageError):
    """A failure that may succeed on retry (contention, flaky I/O)."""


class PermanentStorageError(StorageError):
    """A failure retrying cannot fix (misuse, constraint violations)."""


class CorruptionError(StorageError):
    """The stored data itself is damaged (malformed image, bad checksum)."""


#: sqlite3.OperationalError messages that indicate a retryable condition
_TRANSIENT_SQLITE_MARKERS = (
    "locked",
    "busy",
    "disk i/o error",
    "unable to open",
    "interrupted",
)


def classify_sqlite_error(exc: BaseException) -> StorageError:
    """Map a ``sqlite3`` exception onto the typed hierarchy.

    ``OperationalError`` splits on its message: lock/busy/I-O conditions are
    transient, everything else (missing table, syntax) is permanent.
    ``DatabaseError`` outside that — notably ``"database disk image is
    malformed"`` — is corruption.  Anything else is permanent.
    """
    import sqlite3

    message = str(exc)
    lowered = message.lower()
    if isinstance(exc, sqlite3.OperationalError):
        if any(marker in lowered for marker in _TRANSIENT_SQLITE_MARKERS):
            return TransientStorageError(message)
        return PermanentStorageError(message)
    if isinstance(exc, (sqlite3.IntegrityError, sqlite3.ProgrammingError)):
        return PermanentStorageError(message)
    if isinstance(exc, sqlite3.DatabaseError):
        return CorruptionError(message)
    return PermanentStorageError(message)
