"""Message complexity per key management event (paper §1.2's tradeoffs).

The paper frames protocol choice as a trade among "number of messages
sent per event, number of participants per event, amount of serial
computation..." — the computation side is Tables 2-4; this bench
measures the *message* side on the wire: datagrams and bytes per
join/leave for both modules, at several group sizes, including
everything the real system pays (flush acknowledgements, key
confirmations, heartbeats within the operation window).
"""

import pytest

from repro.bench.reporting import Table
from repro.testbed import SecureTestbed

SIZES = [3, 5, 8]


def measure_operation_cost(module: str, size: int):
    """(datagrams, bytes) for the join reaching ``size`` and the leave
    back from it."""
    testbed = SecureTestbed(seed=7)
    names = []
    for __ in range(size - 1):
        testbed.timed_join(names, module=module)
    before_d = testbed.network.datagrams_sent
    before_b = testbed.network.bytes_sent
    testbed.timed_join(names, module=module)
    join_cost = (
        testbed.network.datagrams_sent - before_d,
        testbed.network.bytes_sent - before_b,
    )
    before_d = testbed.network.datagrams_sent
    before_b = testbed.network.bytes_sent
    testbed.timed_leave(names)
    leave_cost = (
        testbed.network.datagrams_sent - before_d,
        testbed.network.bytes_sent - before_b,
    )
    return join_cost, leave_cost


def test_message_counts_per_operation(benchmark):
    join_rows = Table(
        "Wire cost of one join (datagrams / bytes, full stack)",
        ["n", "cliques", "ckd"],
    )
    leave_rows = Table(
        "Wire cost of one leave (datagrams / bytes, full stack)",
        ["n", "cliques", "ckd"],
    )
    measured = {}
    for n in SIZES:
        for module in ("cliques", "ckd"):
            measured[(module, n)] = measure_operation_cost(module, n)
    for n in SIZES:
        cj, cl = measured[("cliques", n)]
        kj, kl = measured[("ckd", n)]
        join_rows.add(n, f"{cj[0]} / {cj[1]}", f"{kj[0]} / {kj[1]}")
        leave_rows.add(n, f"{cl[0]} / {cl[1]}", f"{kl[0]} / {kl[1]}")
    join_rows.show()
    leave_rows.show()

    # Qualitative assertions from the paper's discussion:
    for n in SIZES:
        cliques_join, cliques_leave = measured[("cliques", n)]
        ckd_join, ckd_leave = measured[("ckd", n)]
        # Leave needs fewer messages than join for both protocols (one
        # broadcast vs a multi-step exchange).
        assert cliques_leave[0] <= cliques_join[0]
        assert ckd_leave[0] <= ckd_join[0]
    # Message cost grows with the group for both joins (bigger tokens,
    # more flush/confirm traffic).
    assert measured[("cliques", SIZES[-1])][0][1] > measured[
        ("cliques", SIZES[0])
    ][0][1]

    benchmark.pedantic(
        lambda: measure_operation_cost("cliques", 5), rounds=1, iterations=1
    )
