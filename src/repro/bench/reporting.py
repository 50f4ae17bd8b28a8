"""Plain-text table rendering for the benchmark reports.

The benches print the same rows and series the paper's tables and
figures report, with paper-expected values alongside measured ones, so
``pytest benchmarks/ --benchmark-only -s`` regenerates a readable copy
of the evaluation section.
"""

from __future__ import annotations

from typing import List, Sequence


class Table:
    """A simple aligned text table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
        print()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)

