"""Figure 4 — CPU time of Join and Leave vs group size.

The paper reports per-operation CPU time (getrusage) on two platforms
and observes that the curves "follow closely the total number of
expected exponentiations" — e.g. a join in a group of fifteen takes
0.1125 s of modular exponentiation out of 0.1285 s total CPU on the
Pentium (~88% in exponentiation).

We reproduce the figure three ways:

1. model both paper platforms from the *measured* exponentiation
   counters (counts x published per-exp cost);
2. measure real CPU time of the 512-bit operations with Python big-int
   ``pow`` on this machine and check that exponentiation dominates;
3. verify the paper's join@15 spot values against the model.
"""

import time

import pytest

from repro.bench.platform_model import (
    PENTIUM_II_450,
    SUN_ULTRA2,
    calibrate_local_machine,
)
from repro.bench.report import serial_total
from repro.bench.reporting import Table
from repro.testbed import ProtocolGroup
from repro.crypto.dh import DHParams

SIZES = [2, 5, 10, 15, 20, 25, 30]


def serial_counts(protocol: str, n: int):
    """(join, controller-leave) serial exponentiations at size ``n``."""
    return tuple(
        serial_total(protocol, operation, n)
        for operation in ("join", "controller_leave")
    )


def test_figure4_modeled_cpu_time(benchmark):
    counts = {
        protocol: {n: serial_counts(protocol, n) for n in SIZES}
        for protocol in ("cliques", "ckd")
    }
    for platform in (SUN_ULTRA2, PENTIUM_II_450):
        table = Table(
            f"Figure 4 — CPU time (s) on {platform.name}"
            f" ({platform.exp_cost * 1000:.1f} ms/exp)",
            ["n", "cliques join", "ckd join", "cliques leave", "ckd leave"],
        )
        for n in SIZES:
            cliques_join, cliques_leave = counts["cliques"][n]
            ckd_join, ckd_leave = counts["ckd"][n]
            table.add(
                n,
                platform.time_for(cliques_join),
                platform.time_for(ckd_join),
                platform.time_for(cliques_leave),
                platform.time_for(ckd_leave),
            )
        table.show()

    # Paper spot check: join at n=15 on the Pentium needs 45 serial
    # exponentiations = 0.1125 s of modular exponentiation.
    join15, __ = counts["cliques"][15]
    assert join15 == 45
    assert PENTIUM_II_450.time_for(join15) == pytest.approx(0.1125)
    # The paper's measured total CPU was 0.1285 s -> 88% exponentiation.
    paper_total_cpu = 0.1285
    assert PENTIUM_II_450.time_for(join15) / paper_total_cpu == pytest.approx(
        0.875, abs=0.01
    )
    # Crossover shape: CKD join is cheaper than Cliques join for n > 3,
    # while Cliques leave beats CKD controller-leave everywhere.
    for n in [5, 10, 15, 20, 25, 30]:
        cliques_join, cliques_leave = counts["cliques"][n]
        ckd_join, ckd_leave = counts["ckd"][n]
        assert ckd_join < cliques_join
        assert cliques_leave < ckd_leave

    benchmark.pedantic(
        lambda: serial_counts("cliques", 15), rounds=3, iterations=1
    )


def test_figure4_real_cpu_exponentiation_dominates(benchmark):
    """With real 512-bit arithmetic, exponentiation must dominate the
    join CPU time, as the paper found (88%)."""
    local = calibrate_local_machine()
    params = DHParams.paper_512()

    group = ProtocolGroup("cliques", params=params)
    group.grow_to(14)
    start = time.process_time()
    join = group.join()
    elapsed = time.process_time() - start
    # The join of member 15 performs work at every member; the serial
    # path is controller + joiner = 45 exponentiations, but this process
    # runs *all* members, so count every exponentiation performed.
    total_exps = join.total + 2 * 13
    exp_time = local.exp_cost * total_exps
    fraction = exp_time / elapsed
    table = Table(
        "Figure 4 spot check — join at n=15, this machine",
        ["quantity", "value"],
    )
    table.add("measured CPU (s)", elapsed)
    table.add("exponentiation count (all members)", total_exps)
    table.add("modeled exponentiation time (s)", exp_time)
    table.add("fraction in exponentiation", fraction)
    table.add("paper's fraction (Pentium II)", 0.88)
    table.show()
    assert fraction > 0.5, "exponentiation should dominate join CPU time"

    benchmark.pedantic(
        lambda: pow(0xABCDEF, 0x123457, params.p), rounds=10, iterations=100
    )
