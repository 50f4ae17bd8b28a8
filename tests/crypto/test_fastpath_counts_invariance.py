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


def _run_join(protocol: str):
    """Counters and secret of a join reaching N members at paper-512."""
    group = ProtocolGroup(protocol, params=DHParams.paper_512(), seed=11)
    group.grow_to(N - 1)
    controller = group.key_controller
    with group.counter_of(controller).window() as ctrl_win:
        joiner = group.join()
    snapshots = {
        name: group.counter_of(name).snapshot() for name in group.members
    }
    secret = group.contexts[group.members[0]].secret()
    assert group.secrets_agree()
    return ctrl_win.snapshot(), group.counter_of(joiner).snapshot(), snapshots, secret


def _run_controller_leave(protocol: str):
    group = ProtocolGroup(protocol, params=DHParams.paper_512(), seed=12)
    group.grow_to(N)
    leaver = group.key_controller
    performer = group.members[-2] if protocol == "cliques" else group.members[1]
    with group.counter_of(performer).window() as window:
        group.leave(leaver)
    assert group.secrets_agree()
    return window.snapshot(), {
        name: group.counter_of(name).snapshot() for name in group.members
    }


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
            ctrl, joiner, _, _ = _run_join(protocol)
            join_total = sum(ctrl.values()) + sum(joiner.values())
            assert join_total == paper[label]["Join"]
            leave_window, _ = _run_controller_leave(protocol)
            leave_total = sum(leave_window.values()) - leave_window.get(
                "controller_hello", 0
            )
            assert leave_total == paper[label]["Controller leaves"]
