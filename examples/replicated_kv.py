#!/usr/bin/env python3
"""A securely replicated key-value store.

The paper's opening motivation: "taking traditional, centralized
services ... and distributing them across multiple systems and
networks".  This example is that pattern in miniature — a key-value
store replicated with the classic state-machine approach on top of
secure Spread:

* every update is an encrypted AGREED multicast, so all replicas apply
  the same operations in the same order (consistency comes from the
  total order; confidentiality and integrity from the group key);
* replicas can leave and new ones can join mid-stream (the joiner gets a
  state transfer from an existing replica — sent under the *new* view's
  key, which the departed members never held);
* after a partition, each side keeps serving its component and the key
  rotation ensures the sides cannot read each other's updates.

Run:  python examples/replicated_kv.py
"""

import json

from repro.secure.events import SecureDataEvent, SecureMembershipEvent
from repro.testbed import SecureTestbed

GROUP = "kv-store"


class Replica:
    """One replicated store instance over a SecureClient."""

    def __init__(self, member) -> None:
        self.member = member
        self.data = {}
        self.applied = 0
        member.on_event(self._on_event)

    def put(self, key: str, value) -> None:
        operation = {"op": "put", "key": key, "value": value}
        self.member.send(GROUP, json.dumps(operation).encode())

    def delete(self, key: str) -> None:
        operation = {"op": "del", "key": key}
        self.member.send(GROUP, json.dumps(operation).encode())

    def push_state(self) -> None:
        """State transfer for a fresh replica (sent under the new key)."""
        operation = {"op": "state", "data": self.data}
        self.member.send(GROUP, json.dumps(operation).encode())

    def _on_event(self, event) -> None:
        if not isinstance(event, SecureDataEvent) or str(event.group) != GROUP:
            return
        operation = json.loads(event.payload.decode())
        if operation["op"] == "put":
            self.data[operation["key"]] = operation["value"]
        elif operation["op"] == "del":
            self.data.pop(operation["key"], None)
        elif operation["op"] == "state" and not self.data:
            self.data = dict(operation["data"])
        self.applied += 1


def main() -> None:
    testbed = SecureTestbed()
    names = []
    replicas = {}
    for index, name in enumerate(["r0", "r1"]):
        member = testbed.add_member(name, testbed.placement(index), group=GROUP)
        names.append(name)
        testbed.wait_secure_view(names, group=GROUP)
        replicas[name] = Replica(member)

    # Concurrent updates from both replicas converge identically.
    replicas["r0"].put("region", "west")
    replicas["r1"].put("fleet", 7)
    replicas["r0"].put("status", "green")
    testbed.run_until(
        lambda: all(r.applied >= 3 for r in replicas.values()), timeout=60
    )
    assert replicas["r0"].data == replicas["r1"].data
    print("2 replicas converged:", replicas["r0"].data)

    # A new replica joins: re-key, then state transfer under the new key.
    member = testbed.add_member("r2", "d2", group=GROUP)
    names.append("r2")
    testbed.wait_secure_view(names, group=GROUP)
    replicas["r2"] = Replica(member)
    replicas["r0"].push_state()
    testbed.run_until(lambda: replicas["r2"].data == replicas["r0"].data,
                      timeout=60)
    print("r2 bootstrapped via state transfer:", replicas["r2"].data)

    # Updates keep converging across all three.
    replicas["r2"].put("fleet", 8)
    replicas["r1"].delete("status")
    testbed.run_until(
        lambda: all(
            r.data.get("fleet") == 8 and "status" not in r.data
            for r in replicas.values()
        ),
        timeout=60,
    )
    assert replicas["r0"].data == replicas["r1"].data == replicas["r2"].data
    print("3 replicas converged:", replicas["r0"].data)

    # A replica departs; the key rotates; the survivors keep serving.
    testbed.members["r2"].leave(GROUP)
    names.remove("r2")
    testbed.wait_secure_view(names, group=GROUP)
    replicas["r0"].put("region", "east")
    testbed.run_until(
        lambda: replicas["r1"].data.get("region") == "east", timeout=60
    )
    # The departed replica saw none of it.
    assert replicas["r2"].data.get("region") == "west"
    print("post-leave update hidden from departed replica")

    print("replicated kv OK")


if __name__ == "__main__":
    main()
