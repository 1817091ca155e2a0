"""Typed storage errors: the stable contract callers catch on.

Whatever reads stored bytes or probes an index raises into this
hierarchy, so a caller decides by class rather than by message:

* :class:`TransientStorageError` — may succeed on retry (lock contention,
  I/O hiccups).
* :class:`PermanentStorageError` — retrying cannot help (schema violations,
  misuse, missing tables).
* :class:`CorruptionError` — the stored bytes are damaged (a truncated or
  bit-flipped FLXPACK blob, an unreadable format-1 file); the repair path
  (:func:`repro.core.persistence.repair_flix`) is the cure.
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
