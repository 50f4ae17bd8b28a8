#!/usr/bin/env python3
"""Secure communication between a group and a non-member.

The paper's second security goal (§2): "authentic and private
communication between a secure group (i.e., its members) and other
entities (non-members)".  This demo runs the gateway service built on
the public API: an outsider — who is *not* a group member and never
learns the group key — opens an authenticated channel to the group
through whichever member currently holds the controller role, submits a
request, and receives the group's answer.

Run:  python examples/outsider_gateway.py
"""

from repro.crypto.dh import DHKeyPair
from repro.crypto.random_source import DeterministicSource
from repro.ext.nonmember import GroupGateway, OutsiderChannel
from repro.spread.client import SpreadClient
from repro.testbed import SecureTestbed

GROUP = "control-room"


def main() -> None:
    testbed = SecureTestbed()

    # The secure group: three members, each with a gateway service.
    members, gateways = [], []
    names = []
    for index, name in enumerate(["ops1", "ops2", "ops3"]):
        member = testbed.add_member(name, testbed.placement(index), group=GROUP)
        names.append(name)
        testbed.wait_secure_view(names, group=GROUP)
        members.append(member)
        gateways.append(GroupGateway(member, GROUP))
    print("secure group up:",
          members[0].sessions[GROUP].key_fingerprint)

    # The outsider: a plain Spread connection + a published identity key.
    raw = SpreadClient(testbed.kernel, "visitor", testbed.daemons["d1"])
    raw.connect()
    source = DeterministicSource(99)
    outsider = OutsiderChannel(
        raw, GROUP, testbed.params,
        DHKeyPair.generate(testbed.params, source),
        testbed.directory, random_source=source,
    )
    outsider.publish_key()

    outsider.open()  # an open-group multicast: non-members may send
    testbed.run_until(lambda: outsider.connected, timeout=30)
    print("gateway channel established with", outsider._gateway)

    # Outsider -> group: the message reaches every member, attributed.
    outsider.send(b"request: status report please")
    testbed.run_until(
        lambda: all(
            any(e.payload == b"request: status report please" for e in gw.queue)
            for gw in gateways
        ),
        timeout=30,
    )
    event = gateways[0].queue[-1]
    print(f"group received (from {event.outsider}):", event.payload.decode())

    # The outsider never saw the group key.
    group_fingerprint = members[0].sessions[GROUP].key_fingerprint
    assert outsider._protector.keys.fingerprint() != group_fingerprint

    # Group -> outsider: the acting gateway relays the reply.
    acting = next(g for g in gateways if g._channels)
    acting.reply(outsider.me, b"status: all systems nominal")
    testbed.run_until(
        lambda: b"status: all systems nominal" in outsider.received, timeout=30
    )
    print("outsider received:", outsider.received[-1].decode())
    print("outsider gateway OK")


if __name__ == "__main__":
    main()
