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
from repro.bench.report import FIGURE3_SIZES as SIZES, figure3_series
from repro.bench.reporting import Table
from repro.testbed import SecureTestbed


def flush_only_join_times():
    """The Flush layer line: time for a VS view change with no security."""
    testbed = SecureTestbed()
    clients = []
    times = {}
    for size in range(1, max(SIZES) + 1):
        duration, __ = testbed.plain_join(clients, f"f{size - 1}", group="f")
        if size in SIZES:
            times[size] = duration
    return times


def test_figure3_total_time(benchmark):
    cliques_join, cliques_leave = figure3_series("cliques")
    ckd_join, ckd_leave = figure3_series("ckd")
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

    sun_join, sun_leave = figure3_series(
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

    # Five joins and one leave on the Pentium model.
    benchmark.pedantic(
        lambda: figure3_series(sizes=(5,)), rounds=2, iterations=1
    )
