"""Table 1 — Mapping of Spread events to group key management operations.

A design table rather than a measurement; this bench verifies the
mapping against the *live* system: it provokes each membership cause on
the full stack and checks which key operation the secure layer ran,
then benchmarks the classification itself.
"""

import pytest

from repro.bench.reporting import Table
from repro.secure.events import (
    KeyOperation,
    SecureMembershipEvent,
    classify_event,
)
from repro.spread.events import GroupViewId, MembershipEvent
from repro.types import (
    DaemonId,
    GroupId,
    MembershipCause,
    ProcessId,
    ViewId,
)

from repro.testbed import SecureTestbed


def last_operation(member, group="g"):
    events = [
        e for e in member.queue
        if isinstance(e, SecureMembershipEvent) and str(e.group) == group
    ]
    return events[-1].operation if events else None


def test_table1_mapping_live(benchmark):
    testbed = SecureTestbed(seed=19)
    rows = Table(
        "Table 1 — Spread VS events -> key management operations (live)",
        ["Spread event", "paper", "observed"],
    )

    names = []
    # JOIN
    testbed.timed_join(names)
    testbed.timed_join(names)
    observed_join = last_operation(testbed.members[names[0]])
    rows.add("Join", "Join", observed_join.value)
    assert observed_join == KeyOperation.JOIN

    # LEAVE (voluntary)
    testbed.timed_join(names)
    testbed.timed_leave(names)
    observed_leave = last_operation(testbed.members[names[0]])
    rows.add("Leave", "Leave", observed_leave.value)
    assert observed_leave == KeyOperation.LEAVE

    # DISCONNECT
    testbed.timed_join(names)
    leaver = names.pop()
    testbed.members[leaver].disconnect()
    del testbed.members[leaver]
    testbed.wait_secure_view(names)
    observed_disc = last_operation(testbed.members[names[0]])
    rows.add("Disconnect", "Leave", observed_disc.value)
    assert observed_disc == KeyOperation.LEAVE

    # PARTITION -> Leave, then heal -> Merge
    testbed.timed_join(names)  # the new member lands on d2
    anchor = testbed.members[names[0]]
    testbed.network.partition([["d0", "d1"], ["d2"]])
    survivors = names[:2]
    expected = {str(testbed.members[n].pid) for n in survivors}
    testbed.run_until(
        lambda: testbed.secure_view_of(names[0]) == expected, timeout=120
    )
    observed_partition = last_operation(anchor)
    rows.add("Partition", "Leave", observed_partition.value)
    assert observed_partition == KeyOperation.LEAVE

    testbed.network.heal()
    everyone = {str(testbed.members[n].pid) for n in names}
    testbed.run_until(
        lambda: all(testbed.secure_view_of(n) == everyone for n in names),
        timeout=120,
    )
    observed_merge = last_operation(anchor)
    rows.add("Merge", "Merge", observed_merge.value)
    assert observed_merge in (KeyOperation.MERGE, KeyOperation.LEAVE_THEN_MERGE)

    rows.add("Partition + Merge", "Leave then Merge",
             "leave_then_merge (classified)")
    rows.add("Group change request", "N/A (flush OK'd immediately)", "N/A")
    rows.show()

    # Benchmark the classifier itself on a synthetic event.
    pid = ProcessId("a", DaemonId("d0"))
    event = MembershipEvent(
        group=GroupId("g"),
        view_id=GroupViewId(ViewId(1, 1, "d0"), 1),
        members=(pid,),
        cause=MembershipCause.NETWORK,
        joined=frozenset({pid}),
        left=frozenset({pid}),
    )
    assert classify_event(event) == KeyOperation.LEAVE_THEN_MERGE
    benchmark(classify_event, event)
