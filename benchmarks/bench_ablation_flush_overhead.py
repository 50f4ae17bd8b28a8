"""Ablation — what the Flush (View Synchrony) layer costs.

The paper chose VS over raw EVS for the secure layer (§3.1) and noted
the Flush layer's superlinear behaviour in Figure 3 (every member
broadcasts a flush acknowledgement to all others).  This bench
quantifies the choice:

* view-change latency and message count through the flush layer, vs
* the same membership change observed at the raw EVS layer,

and the per-message data-path overhead of the flush wrapper.
"""

import pytest

from repro.bench.reporting import Table
from repro.testbed import SecureTestbed

SIZES = [2, 4, 8, 12]


def last_join(size: int, flush: bool, seed: int = 9):
    """(virtual seconds, datagrams) until every member sees the view
    when member #size joins a group of size-1: through the flush layer
    (VS), or at the raw EVS layer, with no flush round."""
    testbed = SecureTestbed(seed=seed)
    clients = []
    for index in range(size):
        cost = testbed.plain_join(clients, f"c{index}", flush=flush)
    return cost


def test_flush_vs_evs_join_latency(benchmark):
    table = Table(
        "Ablation — membership delivery latency: EVS vs Flush/VS (seconds)",
        ["n", "EVS only", "Flush (VS)", "VS overhead"],
    )
    for n in SIZES:
        evs, __ = last_join(n, flush=False)
        vs, __ = last_join(n, flush=True)
        table.add(n, evs, vs, vs - evs)
        # VS costs a flush round on top of EVS, so it is never cheaper.
        assert vs >= evs * 0.99
    table.show()

    benchmark.pedantic(lambda: last_join(6, True), rounds=2, iterations=1)


def test_flush_message_overhead(benchmark):
    """Wire datagram count for a view change: the flush round adds one
    acknowledgement multicast per member."""
    __, with_flush = last_join(4, True, seed=13)
    __, without = last_join(4, False, seed=13)
    table = Table(
        "Ablation — datagrams for the final join (4th member)",
        ["layer", "datagrams"],
    )
    table.add("EVS only", without)
    table.add("Flush (VS)", with_flush)
    table.show()
    assert with_flush > without  # flush markers cost real messages

    benchmark.pedantic(
        lambda: last_join(4, True, seed=13), rounds=2, iterations=1
    )
