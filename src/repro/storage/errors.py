"""Typed storage errors: the stable contract callers catch on.

:class:`CorruptionError` — the stored bytes are damaged (a truncated or
bit-flipped FLXPACK blob, a malformed ``links.pack``, an unreadable
format-1 file); the repair path
(:func:`repro.core.persistence.repair_flix`) is the cure.
"""

from __future__ import annotations


class StorageError(RuntimeError):
    """Base class of every storage-layer failure."""


class CorruptionError(StorageError):
    """The stored data itself is damaged (malformed image, bad checksum)."""
