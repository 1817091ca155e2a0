"""Paper-style result rendering for the benchmark suites.

Table 1 is a one-row table of index sizes; Figure 5 is a set of
time-vs-results series.  :class:`BenchTable` renders the former,
:func:`format_series` the latter (as aligned text — the numbers, not the
plot, are the reproduction target).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float]


class BenchTable:
    """A small fixed-column text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(name) for name in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print()
        print(self.render())
        print()


def format_series(
    title: str,
    checkpoints: Sequence[int],
    series: Dict[str, Dict[int, float]],
    unit: str = "s",
    precision: int = 4,
) -> str:
    """Render Figure-5-style series: one row per system, one column per k."""
    name_width = max(len(name) for name in series) if series else 8
    col_width = max(precision + 4, max(len(f"k={k}") for k in checkpoints))
    lines = [title]
    header = " " * (name_width + 2) + "  ".join(
        f"k={k}".rjust(col_width) for k in checkpoints
    )
    lines.append(header)
    for name in series:
        cells = "  ".join(
            f"{series[name].get(k, float('nan')):.{precision}f}".rjust(col_width)
            for k in checkpoints
        )
        lines.append(f"{name.ljust(name_width)}  {cells}")
    lines.append(f"(values in {unit})")
    return "\n".join(lines)


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
