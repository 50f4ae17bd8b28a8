"""Shared helpers for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only -s

Each bench prints the reproduced table/figure (paper-expected vs
measured) and registers a representative operation with
pytest-benchmark for real-time statistics.
"""

from __future__ import annotations

import pytest

from repro.testbed import ProtocolGroup


def join_counts(protocol: str, n: int, params=None):
    """Measured counters for a join reaching size ``n``: returns
    (controller window counter, joiner counter)."""
    group = ProtocolGroup(protocol, params=params)
    group.grow_to(n - 1)
    controller = group.key_controller
    with group.counter_of(controller).window() as window:
        joiner = group.join()
    return window, group.counter_of(joiner)


def leave_counts(protocol: str, n: int, controller_leaves: bool, params=None):
    """Measured counter window for the member performing a leave at
    size ``n``."""
    group = ProtocolGroup(protocol, params=params)
    group.grow_to(n)
    if controller_leaves:
        leaver = group.key_controller
        performer = (
            group.members[-2] if protocol == "cliques" else group.members[1]
        )
    else:
        leaver = (
            group.members[0] if protocol == "cliques" else group.members[-1]
        )
        performer = group.key_controller
    with group.counter_of(performer).window() as window:
        group.leave(leaver)
    return window


@pytest.fixture
def show():
    """Print helper that survives pytest's capture when -s is absent."""

    def _show(text: str) -> None:
        print()
        print(text)

    return _show
