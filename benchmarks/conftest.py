"""Shared helpers for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only -s

Each bench prints the reproduced table/figure (paper-expected vs
measured) and registers a representative operation with
pytest-benchmark for real-time statistics.
"""

from __future__ import annotations

import pytest

# join_counts(protocol, n): measured counters for a join reaching size
# ``n`` — (controller window counter, joiner window counter).
from repro.bench.report import join_roles as join_counts  # noqa: F401
from repro.testbed import measure


def leave_counts(protocol: str, n: int, controller_leaves: bool, params=None):
    """Measured counter window for the member performing a leave at
    size ``n`` (the first to emit: it started the protocol run)."""
    operation = "controller_leave" if controller_leaves else "leave"
    record = measure(protocol, operation, n, params=params)
    return record.windows[record.serial[0]]


@pytest.fixture
def show():
    """Print helper that survives pytest's capture when -s is absent."""

    def _show(text: str) -> None:
        print()
        print(text)

    return _show
