"""Shared helpers for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only -s

Each bench prints the reproduced table/figure (paper-expected vs
measured) and registers a representative operation with
pytest-benchmark for real-time statistics.  The counts come from
:mod:`repro.bench.report` (``join_roles``, ``leave_window``,
``serial_total``), the one place the serial-count rule is written.
"""

from __future__ import annotations

from repro.bench.reporting import Table


def row_table(number, title, rows, expected_fn, counter, n, exclude=()):
    """One role's rows of Table ``number`` (2 or 3) at size ``n``: the
    paper's value of each row (``expected_fn(n)``) against ``counter``'s
    label for it, then the total; asserts every pair equal.  ``exclude`` labels are
    noted below the total when the window holds any (tenure setup the
    paper does not count)."""
    expected = dict(expected_fn(n))
    table = Table(f"Table {number} ({title}, n={n})",
                  ["row", "paper", "measured", "match"])
    measured = [(row, counter.get(label)) for label, row in rows]
    measured.append(("Total", sum(count for _, count in measured)))
    for row, count in measured:
        table.add(row, expected[row], count,
                  "OK" if count == expected[row] else "MISMATCH")
    for label in exclude:
        if counter.get(label):
            table.add(f"[{label}] (tenure setup, uncounted in paper)",
                      "-", counter.get(label), "noted")
    assert all(count == expected[row] for row, count in measured), (title, n)
    return table
