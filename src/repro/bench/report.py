"""Standalone evaluation report: ``python -m repro.bench.report``.

Regenerates the paper's evaluation in one run — Tables 2-4 from the
measured exponentiation counters, Figure 3 from the simulated testbed,
Figure 4 from the platform cost models — without pytest, for quick
inspection or piping into a file.  (The benchmark suite under
``benchmarks/`` runs the same code with assertions and statistics.)

``--markdown`` prints the generated blocks of EXPERIMENTS.md (Tables
2-4, Figure 4: counts and counts x the paper's per-exponentiation
constants, so byte-deterministic); CI's ``paper`` job diffs them
against the file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.expcount import table2, table4
from repro.bench.platform_model import (
    PENTIUM_II_450,
    SUN_ULTRA2,
    PlatformModel,
    calibrate_local_machine,
)
from repro.bench.reporting import Table
from repro.net.link import LinkModel
from repro.secure.session import CryptoCostModel
from repro.testbed import SecureTestbed, measure

TABLE_SIZES = [3, 5, 10, 15, 30]
FIGURE3_SIZES = [2, 4, 6, 8, 10, 12, 14]

#: The paper's two modules: (registry name, Table 4 row label).
PAPER_MODULES = (("cliques", "Cliques"), ("ckd", "CKD"))
#: Table 4's columns -> the operation :func:`repro.testbed.measure` runs.
TABLE4_OPERATIONS = {
    "Join": "join",
    "Leave": "leave",
    "Controller leaves": "controller_leave",
}


def leave_window(protocol: str, operation: str, n: int, **group_args):
    """The counter window Table 3 itemises: that of the member that ran
    a leave ("leave" or "controller_leave") at size ``n`` — the first to
    emit, which started the protocol run."""
    record = measure(protocol, operation, n, **group_args)
    return record.windows[record.serial[0]]


def serial_total(protocol: str, operation: str, n: int, **group_args) -> int:
    """Serial exponentiations of one operation, as Tables 2-4 count them.

    A join totals every serial member (controller + new member).  A
    leave is the initiator's window alone — the CKD members' round-2
    replies to a takeover run in parallel and the paper leaves them
    out — less the once-per-tenure ``controller_hello`` (Table 5).
    """
    if operation == "join":
        return measure(protocol, operation, n, **group_args).total
    window = leave_window(protocol, operation, n, **group_args)
    return window.total - window.get("controller_hello")


def join_roles(protocol: str, n: int, **group_args):
    """(controller window, new member window) of a join reaching ``n``."""
    record = measure(protocol, "join", n, **group_args)
    (joiner,) = record.joined
    (controller,) = (m for m in record.serial if m != joiner)
    return record.windows[controller], record.windows[joiner]


def figure3_series(
    module: str = "cliques",
    platform: PlatformModel = PENTIUM_II_450,
    link: Optional[LinkModel] = None,
    seed: int = 42,
    sizes: Sequence[int] = FIGURE3_SIZES,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Figure 3 on the simulated deployment: the virtual seconds of the
    join that reaches each of ``sizes`` while the group grows to
    ``max(sizes)``, and of the leave from each on the way back down to
    ``min(sizes)`` (the newest member leaves: Cliques' controller)."""
    testbed = SecureTestbed(
        cost_model=CryptoCostModel(platform.exp_cost), link=link, seed=seed
    )
    names: List[str] = []
    joins = {}
    for size in range(1, max(sizes) + 1):
        duration = testbed.timed_join(names, module=module)
        if size in sizes:
            joins[size] = duration
    leaves = {}
    for size in range(max(sizes), min(sizes) - 1, -1):
        duration = testbed.timed_leave(names)
        if size in sizes:
            leaves[size] = duration
    return joins, leaves


def report_figure3() -> None:
    join_times, leave_times = figure3_series()
    table = Table(
        "Figure 3 — total time (s), Cliques, Pentium model, simulated LAN",
        ["n", "join", "leave", "3n*exp reference"],
    )
    for n in FIGURE3_SIZES:
        table.add(n, join_times[n], leave_times[n],
                  3 * n * PENTIUM_II_450.exp_cost)
    table.show()


def report_calibration() -> None:
    local = calibrate_local_machine()
    table = Table("Local calibration (512-bit modular exponentiation)",
                  ["platform", "ms per exponentiation"])
    table.add(SUN_ULTRA2.name, SUN_ULTRA2.exp_cost * 1000)
    table.add(PENTIUM_II_450.name, PENTIUM_II_450.exp_cost * 1000)
    table.add(local.name, local.exp_cost * 1000)
    table.show()


def _block(name: str, header: Sequence[str], rows: List[Sequence[object]]) -> str:
    lines = [header, ["---"] * len(header), *rows]
    body = "\n".join("| " + " | ".join(map(str, line)) + " |" for line in lines)
    return f"<!-- report:{name} -->\n{body}\n<!-- /report:{name} -->"


def markdown() -> str:
    """The generated blocks of EXPERIMENTS.md: Tables 2 and 4 as
    ``paper / measured`` counts, Figure 4 as modeled CPU seconds
    ``SUN / Pentium`` (measured counts x the published cost)."""
    roles, totals, figure4 = [], [], []
    for n in TABLE_SIZES:
        paper2, paper4 = table2(n), table4(n)
        measured = {
            (label, column): serial_total(protocol, operation, n)
            for protocol, label in PAPER_MODULES
            for column, operation in TABLE4_OPERATIONS.items()
        }
        roles.append([n] + [
            f"{dict(paper2[f'{label} / {role}'])['Total']} / {window.total}"
            for protocol, label in PAPER_MODULES
            for role, window in zip(
                ("Controller", "New member"), join_roles(protocol, n)
            )
        ])
        totals.append([n] + [
            f"{paper4[label][column]} / {count}"
            for (label, column), count in measured.items()
        ])
        figure4.append([n] + [
            f"{SUN_ULTRA2.time_for(measured[label, column]):.3f}"
            f" / {PENTIUM_II_450.time_for(measured[label, column]):.4f}"
            for column in ("Join", "Controller leaves")
            for _, label in PAPER_MODULES
        ])
    return "\n".join([
        _block("table2", ["n", "Cliques controller", "Cliques new member",
                          "CKD controller", "CKD new member"], roles),
        _block("table4", ["n", "Cliques join", "Cliques leave",
                          "Cliques ctrl-leave", "CKD join", "CKD leave",
                          "CKD ctrl-leave"], totals),
        _block("figure4", ["n", "Cliques join", "CKD join",
                           "Cliques ctrl-leave", "CKD ctrl-leave"], figure4),
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables and figures."
    )
    parser.add_argument(
        "--skip-figure3",
        action="store_true",
        help="skip the (slower) full-stack Figure 3 simulation",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print only the generated Table 2-4 / Figure 4 blocks of"
        " EXPERIMENTS.md",
    )
    args = parser.parse_args(argv)
    if not args.markdown:
        report_calibration()
        print("Tables 2-4 and Figure 4 (the generated blocks of EXPERIMENTS.md;"
              " counts are paper / measured, times SUN / Pentium):\n")
    print(markdown())
    if not (args.markdown or args.skip_figure3):
        report_figure3()
    return 0


if __name__ == "__main__":
    sys.exit(main())
