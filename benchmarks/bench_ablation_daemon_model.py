"""Ablation — client model vs daemon model (paper §5).

The paper argues the daemon model "drastically reduces" the number of
key agreements: daemon views change rarely, while application groups
churn constantly.  This bench measures exactly that trade under a
churn workload, plus the per-message sealing overhead the daemon model
pays on the wire.
"""

import pytest

from repro.crypto.dh import DHParams
from repro.ext.daemon_model import secure_all_daemons
from repro.bench.reporting import Table
from repro.testbed import SecureTestbed
from repro.types import ServiceType

CHURN_ROUNDS = 6


def client_model_agreements() -> int:
    """Total completed key agreements across members under churn."""
    testbed = SecureTestbed(seed=31)
    names = []
    # Two stable members.
    testbed.timed_join(names)
    testbed.timed_join(names)
    # Churn: a third member repeatedly joins and leaves.
    for __ in range(CHURN_ROUNDS):
        testbed.timed_join(names)
        testbed.timed_leave(names)
    total = 0
    for member in testbed.members.values():
        session = member.sessions.get("g")
        if session is not None:
            total += session.rekeys_completed
    return total


def daemon_model_agreements() -> int:
    """Daemon-group keyings under the same churn (no client-layer keys)."""
    testbed = SecureTestbed(seed=31)
    layers = secure_all_daemons(testbed.daemons, params=DHParams.tiny_test())
    testbed.run(1.0)

    clients = []
    testbed.plain_join(clients, "p0", "p1")
    for round_index in range(CHURN_ROUNDS):
        testbed.plain_join(clients, f"p{2 + round_index}")
        clients.pop().leave("g")
        testbed.wait_plain_view(clients)
    return sum(layer.keys_established for layer in layers.values())


def test_daemon_model_drastically_fewer_agreements(benchmark):
    client_total = client_model_agreements()
    daemon_total = daemon_model_agreements()
    table = Table(
        "Ablation — key agreements under churn"
        f" (2 stable members, {CHURN_ROUNDS} join/leave rounds)",
        ["model", "completed key agreements"],
    )
    table.add("client model (per-group keys)", client_total)
    table.add("daemon model (per-daemon-view key)", daemon_total)
    table.show()
    # The paper's claim, quantified: the daemon model re-keys only on
    # daemon view changes (bootstrap), never on group churn.
    assert daemon_total < client_total / 3

    benchmark.pedantic(daemon_model_agreements, rounds=1, iterations=1)


def test_daemon_model_message_overhead(benchmark):
    """Bytes on the wire for one group multicast, sealed vs clear."""

    def bytes_for_message(secured: bool) -> int:
        testbed = SecureTestbed(seed=33)
        if secured:
            secure_all_daemons(testbed.daemons, params=DHParams.tiny_test())
            testbed.run(1.0)
        from repro.spread.client import SpreadClient

        a = SpreadClient(testbed.kernel, "a", testbed.daemons["d0"])
        a.connect()
        b = SpreadClient(testbed.kernel, "b", testbed.daemons["d1"])
        b.connect()
        a.join("g")
        b.join("g")
        testbed.run(1.0)
        before = testbed.network.bytes_sent
        a.multicast(ServiceType.AGREED, "g", "x" * 100)
        testbed.run(0.5)
        return testbed.network.bytes_sent - before

    clear = bytes_for_message(False)
    sealed = bytes_for_message(True)
    table = Table(
        "Ablation — wire bytes for one 100-byte group multicast",
        ["configuration", "bytes (incl. heartbeats in window)"],
    )
    table.add("clear daemons (client model's transport)", clear)
    table.add("sealed daemons (daemon model)", sealed)
    table.show()
    assert sealed > clear  # sealing costs padding + MAC + headers

    benchmark.pedantic(lambda: bytes_for_message(True), rounds=1, iterations=1)
