#!/usr/bin/env python3
"""Partition and merge: secure operation through network failures.

A command-and-control style scenario (another of the paper's motivating
applications): a four-member secure group is split by a network
partition.  Each side automatically re-keys and keeps operating
securely on its own; when the network heals, the components merge and
agree on a fresh common key — all driven by the Table-1 mapping of
membership events to key operations (partition -> LEAVE,
merge -> MERGE / LEAVE-then-MERGE).

Run:  python examples/partition_recovery.py
"""

from repro.secure.events import SecureDataEvent
from repro.testbed import SecureTestbed

GROUP = "ops"


def payloads(member):
    return [
        e.payload for e in member.queue
        if isinstance(e, SecureDataEvent) and str(e.group) == GROUP
    ]


def fingerprint(member):
    return member.sessions[GROUP].key_fingerprint


def main() -> None:
    testbed = SecureTestbed(daemon_count=4)

    names = ["hq", "relay", "field1", "field2"]
    daemons = ["d0", "d1", "d2", "d3"]
    members = {}
    joined = []
    for name, daemon in zip(names, daemons):
        members[name] = testbed.add_member(name, daemon, group=GROUP)
        joined.append(name)
        testbed.wait_secure_view(joined, group=GROUP)
    print("initial group keyed:", fingerprint(members["hq"]))

    members["hq"].send(GROUP, b"status: all stations report")
    testbed.run_until(
        lambda: all(b"status: all stations report" in payloads(members[n]) for n in names)
    )

    # The network partitions: {hq, relay} | {field1, field2}.
    print("\n-- partition hits --")
    testbed.network.partition([["d0", "d1"], ["d2", "d3"]])
    hq_side = {str(members["hq"].pid), str(members["relay"].pid)}
    field_side = {str(members["field1"].pid), str(members["field2"].pid)}
    testbed.run_until(lambda: testbed.secure_view_of("hq", GROUP) == hq_side)
    testbed.run_until(lambda: testbed.secure_view_of("field1", GROUP) == field_side)
    print("hq side re-keyed:   ", fingerprint(members["hq"]))
    print("field side re-keyed:", fingerprint(members["field1"]))
    assert fingerprint(members["hq"]) != fingerprint(members["field1"])

    # Both sides keep operating securely and independently.
    members["hq"].send(GROUP, b"hq-side: hold position")
    members["field1"].send(GROUP, b"field-side: proceeding dark")
    testbed.run_until(lambda: b"hq-side: hold position" in payloads(members["relay"]))
    testbed.run_until(
        lambda: b"field-side: proceeding dark" in payloads(members["field2"])
    )
    # ... and cross-partition traffic does not leak anywhere.
    assert b"field-side: proceeding dark" not in payloads(members["hq"])
    assert b"hq-side: hold position" not in payloads(members["field1"])
    print("both components operated independently; no cross-partition leak")

    # The network heals: the components merge and re-key together.
    print("\n-- network heals --")
    testbed.network.heal()
    everyone = hq_side | field_side
    testbed.run_until(
        lambda: all(
            testbed.secure_view_of(n, GROUP) == everyone for n in names
        ),
        timeout=120,
    )
    merged = {fingerprint(members[n]) for n in names}
    assert len(merged) == 1
    print("merged group keyed:", merged.pop())

    members["field2"].send(GROUP, b"rejoined: full sync")
    testbed.run_until(
        lambda: all(b"rejoined: full sync" in payloads(members[n]) for n in names)
    )
    print("post-merge message reached all four members")
    print("partition recovery OK")


if __name__ == "__main__":
    main()
