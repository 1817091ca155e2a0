"""Human-readable byte counts for reports."""

from __future__ import annotations


def format_bytes(size: int) -> str:
    """Human-readable size, e.g. ``'27.3 MB'`` (for bench reports)."""
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(size)
    for unit in units:
        if value < 1024.0 or unit == units[-1]:
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")
