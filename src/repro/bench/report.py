"""Standalone evaluation report: ``python -m repro.bench.report``.

Regenerates the paper's evaluation in one run — Tables 2-4 from the
measured exponentiation counters, Figure 3 from the simulated testbed,
Figure 4 from the platform cost models — without pytest, for quick
inspection or piping into a file.  (The benchmark suite under
``benchmarks/`` runs the same code with assertions and statistics.)
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.expcount import table4
from repro.bench.platform_model import (
    PENTIUM_II_450,
    SUN_ULTRA2,
    calibrate_local_machine,
)
from repro.bench.reporting import Table
from repro.secure.session import CryptoCostModel
from repro.testbed import ProtocolGroup, SecureTestbed

TABLE_SIZES = [3, 5, 10, 15, 30]
FIGURE3_SIZES = [2, 4, 6, 8, 10, 12, 14]


def measured_join(protocol: str, n: int):
    group = ProtocolGroup(protocol)
    group.grow_to(n - 1)
    controller = group.key_controller
    with group.counter_of(controller).window() as window:
        joiner = group.join()
    return window, group.counter_of(joiner)


def measured_controller_leave(protocol: str, n: int):
    group = ProtocolGroup(protocol)
    group.grow_to(n)
    leaver = group.key_controller
    performer = group.members[-2] if protocol == "cliques" else group.members[1]
    with group.counter_of(performer).window() as window:
        group.leave(leaver)
    return window


def report_tables() -> None:
    table = Table(
        "Tables 2-4 — serial exponentiations, paper vs measured",
        ["n", "protocol", "join paper/meas", "ctrl-leave paper/meas"],
    )
    for n in TABLE_SIZES:
        paper = table4(n)
        for protocol, label in (("cliques", "Cliques"), ("ckd", "CKD")):
            controller, joiner = measured_join(protocol, n)
            join_total = controller.total + joiner.total
            leave_window = measured_controller_leave(protocol, n)
            leave_total = leave_window.total - leave_window.get(
                "controller_hello"
            )
            table.add(
                n,
                label,
                f"{paper[label]['Join']}/{join_total}",
                f"{paper[label]['Controller leaves']}/{leave_total}",
            )
    table.show()


def report_figure3() -> None:
    testbed = SecureTestbed(cost_model=CryptoCostModel(PENTIUM_II_450.exp_cost))
    names = []
    join_times, leave_times = {}, {}
    for size in range(1, max(FIGURE3_SIZES) + 1):
        duration = testbed.timed_join(names)
        if size in FIGURE3_SIZES:
            join_times[size] = duration
    for size in range(max(FIGURE3_SIZES), 1, -1):
        duration = testbed.timed_leave(names)
        if size in FIGURE3_SIZES:
            leave_times[size] = duration
    table = Table(
        "Figure 3 — total time (s), Cliques, Pentium model, simulated LAN",
        ["n", "join", "leave", "3n*exp reference"],
    )
    for n in FIGURE3_SIZES:
        table.add(n, join_times[n], leave_times[n],
                  3 * n * PENTIUM_II_450.exp_cost)
    table.show()


def report_figure4() -> None:
    for platform in (SUN_ULTRA2, PENTIUM_II_450):
        table = Table(
            f"Figure 4 — modeled CPU time (s) on {platform.name}",
            ["n", "cliques join", "ckd join", "cliques leave", "ckd leave"],
        )
        for n in TABLE_SIZES:
            rows = {}
            for protocol in ("cliques", "ckd"):
                controller, joiner = measured_join(protocol, n)
                join_total = controller.total + joiner.total
                leave_window = measured_controller_leave(protocol, n)
                leave_total = leave_window.total - leave_window.get(
                    "controller_hello"
                )
                rows[protocol] = (join_total, leave_total)
            table.add(
                n,
                platform.time_for(rows["cliques"][0]),
                platform.time_for(rows["ckd"][0]),
                platform.time_for(rows["cliques"][1]),
                platform.time_for(rows["ckd"][1]),
            )
        table.show()


def report_calibration() -> None:
    local = calibrate_local_machine()
    table = Table("Local calibration (512-bit modular exponentiation)",
                  ["platform", "ms per exponentiation"])
    table.add(SUN_ULTRA2.name, SUN_ULTRA2.exp_cost * 1000)
    table.add(PENTIUM_II_450.name, PENTIUM_II_450.exp_cost * 1000)
    table.add(local.name, local.exp_cost * 1000)
    table.show()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables and figures."
    )
    parser.add_argument(
        "--skip-figure3",
        action="store_true",
        help="skip the (slower) full-stack Figure 3 simulation",
    )
    args = parser.parse_args(argv)
    report_calibration()
    report_tables()
    report_figure4()
    if not args.skip_figure3:
        report_figure3()
    return 0


if __name__ == "__main__":
    sys.exit(main())
