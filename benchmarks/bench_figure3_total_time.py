"""Figure 3 — Total time of one join/leave vs group size (with network).

The paper's setup: three machines, one Spread daemon each; two carry one
member, the third carries everybody else.  Total time includes network
overhead and the Flush (View Synchrony) layer; crypto dominates.  We
reproduce on the simulated testbed with the Pentium II cost model
(2.5 ms per 512-bit exponentiation) charged as virtual time, and also
report the Flush-layer-only line (membership change with no security),
which grows superlinearly because every member broadcasts a flush
acknowledgement to all others.

Expected shape (and the paper's): secure join ~= 3n * exp_cost + small
network overhead; secure leave ~= n * exp_cost; flush-only far below
both but superlinear.
"""

import pytest

from repro.bench.platform_model import PENTIUM_II_450
from repro.bench.reporting import Table
from repro.testbed import SecureTestbed
from repro.secure.session import CryptoCostModel
from repro.spread.client import SpreadClient
from repro.spread.events import MembershipEvent
from repro.spread.flush import FlushClient

SIZES = [2, 4, 6, 8, 10, 12, 14]


def secure_join_leave_times(module: str, platform=PENTIUM_II_450, link=None):
    """Grow a secure group, timing the join that reaches each size and
    the leave back down from it."""
    testbed = SecureTestbed(
        cost_model=CryptoCostModel(platform.exp_cost), link=link
    )
    names = []
    join_times = {}
    for size in range(1, max(SIZES) + 1):
        duration = testbed.timed_join(names, module=module)
        if size in SIZES:
            join_times[size] = duration
    leave_times = {}
    for size in range(max(SIZES), 1, -1):
        duration = testbed.timed_leave(names)
        if size in SIZES:
            leave_times[size] = duration
    return join_times, leave_times


def flush_only_join_times():
    """The Flush layer line: time for a VS view change with no security."""
    testbed = SecureTestbed()
    clients = []
    times = {}

    def current_views_ok(expected_count):
        def check():
            for fc in clients:
                views = [
                    e for e in fc.queue
                    if isinstance(e, MembershipEvent) and str(e.group) == "f"
                ]
                if not views or len(views[-1].members) != expected_count:
                    return False
            return True

        return check

    for index in range(max(SIZES)):
        raw = SpreadClient(
            testbed.kernel, f"f{index}", testbed.daemons[testbed.placement(index)]
        )
        raw.connect()
        fc = FlushClient(raw, auto_flush=True)
        clients.append(fc)
        start = testbed.kernel.now
        fc.join("f")
        testbed.run_until(current_views_ok(index + 1), timeout=60)
        size = index + 1
        if size in SIZES:
            times[size] = testbed.kernel.now - start
    return times


def test_figure3_total_time(benchmark):
    cliques_join, cliques_leave = secure_join_leave_times("cliques")
    ckd_join, ckd_leave = secure_join_leave_times("ckd")
    flush_only = flush_only_join_times()

    table = Table(
        "Figure 3 — total time of one operation vs group size"
        " (seconds, Pentium model, simulated LAN)",
        ["n", "cliques join", "cliques leave", "ckd join", "ckd leave",
         "flush only", "3n*exp (ref)"],
    )
    for n in SIZES:
        table.add(
            n,
            cliques_join[n],
            cliques_leave[n],
            ckd_join[n],
            ckd_leave[n],
            flush_only[n],
            3 * n * PENTIUM_II_450.exp_cost,
        )
    table.show()

    # Shape assertions matching the paper's findings:
    # 1. Join cost grows linearly and tracks the serial-exponentiation
    #    reference (network overhead is small by comparison).
    for n in SIZES:
        reference = 3 * n * PENTIUM_II_450.exp_cost
        assert cliques_join[n] >= reference * 0.9
        assert cliques_join[n] <= reference + 0.25
    # 2. Leave is cheaper than join at every size.
    for n in SIZES[1:]:
        assert cliques_leave[n] < cliques_join[n]
        assert ckd_leave[n] < ckd_join[n]
    # 3. The flush layer alone is far cheaper than any secure operation.
    for n in SIZES[1:]:
        assert flush_only[n] < cliques_join[n]
        assert flush_only[n] < ckd_join[n]
    # 4. Exponentiation dominates: network+flush overhead within the
    #    secure join is a minor fraction at larger sizes.
    big = SIZES[-1]
    crypto = 3 * big * PENTIUM_II_450.exp_cost
    assert (cliques_join[big] - crypto) / cliques_join[big] < 0.35

    # 5. The paper's other testbed — SUN Ultra-2 machines on 10BaseT —
    #    shows the same shape scaled by the platform's 12 ms/exp.
    from repro.bench.platform_model import SUN_ULTRA2
    from repro.net.link import LinkModel

    sun_join, sun_leave = secure_join_leave_times(
        "cliques", platform=SUN_ULTRA2, link=LinkModel.ethernet_10base_t()
    )
    sun_table = Table(
        "Figure 3 (SUN Ultra-2 model, 10BaseT) — Cliques (seconds)",
        ["n", "join", "leave", "3n*exp (ref)"],
    )
    for n in SIZES:
        sun_table.add(n, sun_join[n], sun_leave[n], 3 * n * SUN_ULTRA2.exp_cost)
        reference = 3 * n * SUN_ULTRA2.exp_cost
        assert sun_join[n] >= reference * 0.9
        assert sun_leave[n] < sun_join[n] or n == SIZES[0]
    sun_table.show()

    def one_secure_join():
        testbed = SecureTestbed(
            cost_model=CryptoCostModel(PENTIUM_II_450.exp_cost)
        )
        names = []
        for __ in range(5):
            testbed.timed_join(names)

    benchmark.pedantic(one_secure_join, rounds=2, iterations=1)
