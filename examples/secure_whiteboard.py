#!/usr/bin/env python3
"""A collaborative shared whiteboard over secure Spread.

The paper's introduction motivates exactly this class of application:
conferencing, white-boards, shared instrument control.  Each participant
multicasts drawing operations into a secure group; the AGREED (total)
ordering of the group communication system makes every replica apply the
operations in the same order, and the secure layer keeps the strokes
confidential with the group key.

The demo runs participants joining mid-session (triggering re-keys),
drawing concurrently, and verifies every replica converges to an
identical board — including the late joiner, who sees only operations
from after its join (backward secrecy: it could not have decrypted
earlier traffic).

Run:  python examples/secure_whiteboard.py
"""

import json

from repro.secure.events import SecureDataEvent
from repro.testbed import SecureTestbed

GROUP = "whiteboard"


class Whiteboard:
    """One participant's replica: an ordered log of drawing operations."""

    def __init__(self, member) -> None:
        self.member = member
        self.operations = []
        member.on_event(self._on_event)

    def _on_event(self, event) -> None:
        if isinstance(event, SecureDataEvent) and str(event.group) == GROUP:
            self.operations.append(json.loads(event.payload.decode()))

    def draw(self, shape: str, x: int, y: int) -> None:
        operation = {
            "who": self.member.me.split("#")[1],
            "shape": shape,
            "x": x,
            "y": y,
        }
        self.member.send(GROUP, json.dumps(operation).encode())

    def render(self) -> str:
        return " ".join(
            f"{op['who']}:{op['shape']}@({op['x']},{op['y']})"
            for op in self.operations
        )


def main() -> None:
    testbed = SecureTestbed()

    alice = testbed.add_member("alice", "d0", group=GROUP)
    testbed.wait_secure_view(["alice"], group=GROUP)
    bob = testbed.add_member("bob", "d1", group=GROUP)
    testbed.wait_secure_view(["alice", "bob"], group=GROUP)

    board_alice = Whiteboard(alice)
    board_bob = Whiteboard(bob)

    # Concurrent drawing from two sites: total order decides the outcome.
    board_alice.draw("circle", 10, 10)
    board_bob.draw("square", 20, 5)
    board_alice.draw("line", 0, 0)
    testbed.run_until(
        lambda: len(board_alice.operations) == 3 and len(board_bob.operations) == 3
    )
    assert board_alice.operations == board_bob.operations
    print("two-party board:", board_alice.render())

    # A third participant joins mid-session -> automatic re-key; it sees
    # only operations drawn after its join.
    carol = testbed.add_member("carol", "d2", group=GROUP)
    testbed.wait_secure_view(["alice", "bob", "carol"], group=GROUP)
    board_carol = Whiteboard(carol)

    board_carol.draw("triangle", 7, 7)
    board_bob.draw("dot", 1, 2)
    testbed.run_until(
        lambda: len(board_alice.operations) == 5
        and len(board_bob.operations) == 5
        and len(board_carol.operations) == 2
    )
    assert board_alice.operations == board_bob.operations
    assert board_carol.operations == board_alice.operations[3:]
    print("three-party board:", board_alice.render())
    print("carol's view (post-join only):", board_carol.render())

    print("whiteboard replicas consistent; secure whiteboard OK")


if __name__ == "__main__":
    main()
