#!/usr/bin/env python3
"""The daemon model: one key for the whole daemon network.

The paper (§5) contrasts the *client model* — per-group keys, as in the
other examples — with the *daemon model*, where the daemons themselves
agree on a single key and seal all inter-daemon traffic.  The paper
lists daemon integration as future work (§8); this repository implements
it, and this demo shows both its selling point (keys change only when
the daemon membership changes, not on group churn) and the trade-off the
paper calls out (one key protects every group at once).

Run:  python examples/daemon_model.py
"""

from repro.crypto.dh import DHParams
from repro.ext.daemon_model import secure_all_daemons
from repro.spread.client import SpreadClient
from repro.spread.events import DataEvent, MembershipEvent
from repro.spread.messages import DataMessage
from repro.testbed import SecureTestbed
from repro.types import ServiceType


def group_members(client, group):
    views = [
        e for e in client.queue
        if isinstance(e, MembershipEvent) and str(e.group) == group
    ]
    return {str(m) for m in views[-1].members} if views else set()


def payloads(client, group):
    return [
        e.payload for e in client.queue
        if isinstance(e, DataEvent) and str(e.group) == group
    ]


def main() -> None:
    testbed = SecureTestbed()
    # Turn on daemon-model security: every daemon-to-daemon data message
    # is sealed under a daemon-group key.
    layers = secure_all_daemons(testbed.daemons, params=DHParams.paper_512())
    testbed.run(1.0)
    fingerprints = {layer._protector.keys.fingerprint() for layer in layers.values()}
    assert len(fingerprints) == 1
    print("daemon-group keyed:", fingerprints.pop())

    # Prove nothing crosses the wire in the clear: spy on the network.
    raw_data_messages = []
    original_send = testbed.network.send

    def spy(source, destination, payload, size=None):
        if isinstance(payload, DataMessage):
            raw_data_messages.append(payload)
        return original_send(source, destination, payload, size)

    testbed.network.send = spy

    # Plain (insecure-API) clients — the daemon layer protects them
    # transparently, which is exactly the daemon model's pitch.
    alice = SpreadClient(testbed.kernel, "alice", testbed.daemons["d0"])
    alice.connect()
    bob = SpreadClient(testbed.kernel, "bob", testbed.daemons["d1"])
    bob.connect()
    alice.join("ops")
    bob.join("ops")
    testbed.run_until(
        lambda: group_members(bob, "ops") == {"#alice#d0", "#bob#d1"}
    )
    alice.multicast(ServiceType.AGREED, "ops", "sealed transparently")
    testbed.run_until(lambda: "sealed transparently" in payloads(bob, "ops"))
    print("message delivered; raw DataMessages on the wire:",
          len(raw_data_messages))
    assert raw_data_messages == []

    # Group churn does NOT re-key the daemons (the model's advantage)...
    keyed_before = sum(l.keys_established for l in layers.values())
    for i in range(3):
        alice.join(f"extra{i}")
        testbed.run(0.5)
        alice.leave(f"extra{i}")
        testbed.run(0.5)
    assert sum(l.keys_established for l in layers.values()) == keyed_before
    print("six group membership changes: zero daemon re-keys")

    # ...but a daemon membership change does.
    testbed.daemons["d2"].crash()
    testbed.run_until(
        lambda: all(
            layer.ready and len(layer.members) == 2
            for name, layer in layers.items()
            if name != "d2"
        ),
        timeout=60,
    )
    print("daemon d2 crashed: surviving daemons re-keyed to",
          layers["d0"]._protector.keys.fingerprint())

    print("daemon model OK")


if __name__ == "__main__":
    main()
