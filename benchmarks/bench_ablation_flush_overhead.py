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
from repro.spread.client import SpreadClient
from repro.spread.events import MembershipEvent
from repro.spread.flush import FlushClient

SIZES = [2, 4, 8, 12]


def vs_join_latency(size: int) -> float:
    """Time for the flush layer to deliver the view when member #size
    joins a group of size-1."""
    testbed = SecureTestbed(seed=9)
    clients = []
    for index in range(size):
        raw = SpreadClient(
            testbed.kernel, f"c{index}", testbed.daemons[testbed.placement(index)]
        )
        raw.connect()
        fc = FlushClient(raw, auto_flush=True)
        clients.append(fc)
        start = testbed.kernel.now
        fc.join("g")

        def delivered():
            for client in clients:
                views = [
                    e for e in client.queue if isinstance(e, MembershipEvent)
                ]
                if not views or len(views[-1].members) != len(clients):
                    return False
            return True

        testbed.run_until(delivered, timeout=60)
        latency = testbed.kernel.now - start
    return latency


def evs_join_latency(size: int) -> float:
    """Time for the raw (EVS) layer to deliver the membership event when
    member #size joins — no flush round."""
    testbed = SecureTestbed(seed=9)
    clients = []
    for index in range(size):
        raw = SpreadClient(
            testbed.kernel, f"c{index}", testbed.daemons[testbed.placement(index)]
        )
        raw.connect()
        clients.append(raw)
        start = testbed.kernel.now
        raw.join("g")

        def delivered():
            for client in clients:
                views = [
                    e for e in client.queue if isinstance(e, MembershipEvent)
                ]
                if not views or len(views[-1].members) != len(clients):
                    return False
            return True

        testbed.run_until(delivered, timeout=60)
        latency = testbed.kernel.now - start
    return latency


def test_flush_vs_evs_join_latency(benchmark):
    table = Table(
        "Ablation — membership delivery latency: EVS vs Flush/VS (seconds)",
        ["n", "EVS only", "Flush (VS)", "VS overhead"],
    )
    for n in SIZES:
        evs = evs_join_latency(n)
        vs = vs_join_latency(n)
        table.add(n, evs, vs, vs - evs)
        # VS costs a flush round on top of EVS, so it is never cheaper.
        assert vs >= evs * 0.99
    table.show()

    benchmark.pedantic(lambda: vs_join_latency(6), rounds=2, iterations=1)


def test_flush_message_overhead(benchmark):
    """Wire datagram count for a view change: the flush round adds one
    acknowledgement multicast per member."""

    def datagrams_for_join(use_flush: bool) -> int:
        testbed = SecureTestbed(seed=13)
        clients = []
        for index in range(4):
            raw = SpreadClient(
                testbed.kernel,
                f"c{index}",
                testbed.daemons[testbed.placement(index)],
            )
            raw.connect()
            client = FlushClient(raw, auto_flush=True) if use_flush else raw
            clients.append(client)
            queue_owner = client if use_flush else raw
            before = testbed.network.datagrams_sent
            client.join("g")

            def delivered():
                for c in clients:
                    queue = c.queue
                    views = [
                        e for e in queue if isinstance(e, MembershipEvent)
                    ]
                    if not views or len(views[-1].members) != len(clients):
                        return False
                return True

            testbed.run_until(delivered, timeout=60)
        return testbed.network.datagrams_sent - before

    with_flush = datagrams_for_join(True)
    without = datagrams_for_join(False)
    table = Table(
        "Ablation — datagrams for the final join (4th member)",
        ["layer", "datagrams"],
    )
    table.add("EVS only", without)
    table.add("Flush (VS)", with_flush)
    table.show()
    assert with_flush > without  # flush markers cost real messages

    benchmark.pedantic(lambda: datagrams_for_join(True), rounds=2, iterations=1)
