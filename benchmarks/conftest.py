"""Shared helpers for the experiment benchmarks (E1–E12).

Every E-test regenerates one paper claim (DESIGN.md §2).  Helpers here
print compact tables, so that running

    pytest benchmarks/ --benchmark-only -s

prints the paper-style summary rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Render a fixed-width table to stdout."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n== {title}")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
