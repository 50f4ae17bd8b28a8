"""The control-plane fast path must be invisible to the paper's tables.

Runs whole paper-512 join / controller-leave operations with the
fixed-base backend on and off and asserts byte-identical per-member
exponentiation counters, equal group secrets, and agreement with the
analytic Table 2-4 formulas — i.e. the tables regenerate identically
whichever backend computed them.
"""

from __future__ import annotations

import pytest

from repro.bench.expcount import table4
from repro.testbed import ProtocolGroup
from repro.crypto import fixed_base
from repro.crypto.dh import DHParams

N = 5  # small enough for tier-1 speed, large enough to exercise batches


def _run(protocol: str, operation: str, seed: int):
    """Every member's counter window, the serial members and the secret
    of one operation at N members, paper-512."""
    group = ProtocolGroup(protocol, params=DHParams.paper_512(), seed=seed)
    if operation == "join":
        group.grow_to(N - 1)
        record = group.join()
    else:
        group.grow_to(N)
        record = group.leave()  # the key controller
    windows = {name: w.snapshot() for name, w in record.windows.items()}
    return windows, record.serial, group.secret()


def _run_join(protocol: str):
    return _run(protocol, "join", seed=11)


def _run_controller_leave(protocol: str):
    return _run(protocol, "leave", seed=12)


@pytest.mark.parametrize("protocol", ["cliques", "ckd"])
def test_join_counts_and_secret_identical_fast_on_off(protocol):
    with fixed_base.fast_backend(True):
        fast = _run_join(protocol)
    with fixed_base.fast_backend(False):
        ref = _run_join(protocol)
    assert fast == ref


@pytest.mark.parametrize("protocol", ["cliques", "ckd"])
def test_controller_leave_counts_identical_fast_on_off(protocol):
    with fixed_base.fast_backend(True):
        fast = _run_controller_leave(protocol)
    with fixed_base.fast_backend(False):
        ref = _run_controller_leave(protocol)
    assert fast == ref


@pytest.mark.parametrize("enabled", [True, False])
def test_totals_match_the_paper_formulas_on_both_backends(enabled):
    paper = table4(N)
    with fixed_base.fast_backend(enabled):
        for protocol, label in (("cliques", "Cliques"), ("ckd", "CKD")):
            windows, serial, _ = _run_join(protocol)
            join_total = sum(sum(windows[m].values()) for m in serial)
            assert join_total == paper[label]["Join"]
            windows, serial, _ = _run_controller_leave(protocol)
            leave_window = windows[serial[0]]
            leave_total = sum(leave_window.values()) - leave_window.get(
                "controller_hello", 0
            )
            assert leave_total == paper[label]["Controller leaves"]
