#!/usr/bin/env python3
"""Quickstart: a secure group in a few lines.

Builds the simulated deployment (three Spread daemons on a LAN), puts
three members into a secure group keyed with the distributed Cliques
protocol, exchanges encrypted messages, and shows the group key rotating
when membership changes.

Run:  python examples/quickstart.py
"""

from repro.ext import MemberAuthenticatedEvent, MemberAuthenticator
from repro.secure.events import SecureDataEvent
from repro.testbed import SecureTestbed


def payloads(member, group="chat"):
    return [
        event.payload
        for event in member.queue
        if isinstance(event, SecureDataEvent) and str(event.group) == group
    ]


def fingerprint(member, group="chat"):
    return member.sessions[group].key_fingerprint


def main() -> None:
    # A simulated deployment: 3 machines, one Spread daemon each.
    testbed = SecureTestbed()

    # Three members join the secure group "chat" (Cliques key agreement).
    alice = testbed.add_member("alice", "d0", group="chat")
    testbed.wait_secure_view(["alice"], group="chat")
    bob = testbed.add_member("bob", "d1", group="chat")
    testbed.wait_secure_view(["alice", "bob"], group="chat")
    carol = testbed.add_member("carol", "d2", group="chat")
    testbed.wait_secure_view(["alice", "bob", "carol"], group="chat")

    print("group keyed; fingerprint:", fingerprint(alice, "chat"))
    assert fingerprint(alice) == fingerprint(bob) == fingerprint(carol)

    # Encrypted group messaging: everything on the wire is Blowfish-CBC
    # + HMAC under the agreed group key.
    alice.send("chat", b"hello, secure world")
    testbed.run_until(lambda: b"hello, secure world" in payloads(carol))
    print("carol received:", payloads(carol)[-1].decode())

    # Membership change -> automatic re-key (key independence).
    old_fingerprint = fingerprint(alice)
    carol.leave("chat")
    testbed.wait_secure_view(["alice", "bob"], group="chat")
    print("after carol left, fingerprint:", fingerprint(alice, "chat"))
    assert fingerprint(alice) != old_fingerprint

    bob.send("chat", b"carol cannot read this")
    testbed.run_until(lambda: b"carol cannot read this" in payloads(alice))
    assert b"carol cannot read this" not in payloads(carol)
    print("post-leave secrecy holds: carol saw nothing new")

    # Member authentication (an extension): alice verifies it is really
    # bob — holder of bob's long-term key AND the current group key — on
    # the other end.  Each side attaches an authenticator; bob's answers.
    alice_auth = MemberAuthenticator(alice)
    MemberAuthenticator(bob)
    alice_auth.authenticate("chat", str(bob.pid))
    testbed.run_until(lambda: alice_auth.queue)
    verdict = alice_auth.queue[-1]
    assert isinstance(verdict, MemberAuthenticatedEvent)
    assert verdict.authenticated
    print(f"member authentication: {verdict.peer} verified")

    print("quickstart OK")


if __name__ == "__main__":
    main()
