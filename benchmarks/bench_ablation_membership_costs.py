"""Ablation — the price ladder of membership events (paper §3).

The paper's daemon-client architecture argument: "Simple join and leave
of processes translates into a single message.  A daemon disconnection
... does not pay the heavy cost involved in changing wide area routes.
Only network partitions ... require the heavy cost of full-fledged
membership change.  Luckily, there is a strong inverse relationship
between the frequency of these events and their cost."

This bench measures that ladder on the simulated deployment: wall time
and datagrams for (a) a process join, (b) a process leave, (c) a daemon
crash (view change), (d) a partition, and (e) a merge — and asserts the
ordering the paper claims.
"""

import pytest

from repro.bench.reporting import Table
from repro.testbed import SecureTestbed
from repro.spread.client import SpreadClient
from repro.spread.events import MembershipEvent
from repro.types import MembershipCause


def measure_ladder():
    testbed = SecureTestbed(daemon_count=4, seed=131)
    results = {}

    def regular_members(client, group="g"):
        views = [
            e for e in client.queue
            if isinstance(e, MembershipEvent) and str(e.group) == group
            and e.cause != MembershipCause.TRANSITIONAL
        ]
        return {str(m) for m in views[-1].members} if views else set()

    observer = SpreadClient(testbed.kernel, "obs", testbed.daemons["d0"])
    observer.connect()
    observer.join("g")
    testbed.run_until(lambda: regular_members(observer) == {"#obs#d0"})

    def timed(action, done):
        before_d = testbed.network.datagrams_sent
        start = testbed.kernel.now
        action()
        testbed.run_until(done, timeout=120)
        return (
            testbed.kernel.now - start,
            testbed.network.datagrams_sent - before_d,
        )

    # (a) process join: one agreed control message.
    newcomer = SpreadClient(testbed.kernel, "new", testbed.daemons["d1"])
    newcomer.connect()
    results["process join"] = timed(
        lambda: newcomer.join("g"),
        lambda: regular_members(observer) == {"#obs#d0", "#new#d1"},
    )

    # (b) process leave.
    results["process leave"] = timed(
        lambda: newcomer.leave("g"),
        lambda: regular_members(observer) == {"#obs#d0"},
    )

    # (c) daemon crash: full view change among survivors.
    results["daemon crash (view change)"] = timed(
        lambda: testbed.daemons["d3"].crash(),
        lambda: all(
            len(d.view_members) == 3
            for d in testbed.daemons.values()
            if d.alive
        ),
    )

    # (d) partition: concurrent view changes on both sides.
    results["network partition"] = timed(
        lambda: testbed.network.partition([["d0", "d1"], ["d2"]]),
        lambda: set(testbed.daemons["d0"].view_members) == {"d0", "d1"}
        and testbed.daemons["d2"].view_members == ("d2",),
    )

    # (e) merge: the heaviest — cut exchange + union + install.
    results["network merge"] = timed(
        lambda: testbed.network.heal(),
        lambda: all(
            len(d.view_members) == 3
            for d in testbed.daemons.values()
            if d.alive
        ),
    )
    return results


def test_membership_cost_ladder(benchmark):
    results = measure_ladder()
    table = Table(
        "Ablation — membership event cost ladder (paper §3)",
        ["event", "wall time (s)", "datagrams"],
    )
    for name, (duration, datagrams) in results.items():
        table.add(name, duration, datagrams)
    table.show()

    join_t, __ = results["process join"]
    leave_t, __ = results["process leave"]
    crash_t, __ = results["daemon crash (view change)"]
    partition_t, __ = results["network partition"]
    merge_t, __ = results["network merge"]
    # The paper's inverse frequency/cost relationship: process-level
    # events are an order of magnitude cheaper than daemon-level ones
    # (which pay failure-detection timeouts plus the membership rounds).
    assert join_t * 10 < crash_t
    assert leave_t * 10 < crash_t
    assert join_t * 10 < partition_t
    assert join_t * 10 < merge_t

    benchmark.pedantic(measure_ladder, rounds=1, iterations=1)
