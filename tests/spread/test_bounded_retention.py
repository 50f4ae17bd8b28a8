"""A healthy view stops growing: stable messages leave the daemon.

Both ordering engines drop a message once it is delivered locally and
held by every view member, so what a daemon retains is bounded by what
is in flight — and, when a member falls silent, by failure detection,
never by how long the view has lasted.
"""

import pytest

from repro.spread.events import DataEvent, MembershipEvent
from repro.spread.messages import Nack
from repro.types import ServiceType

from tests.spread.conftest import Cluster

WINDOW = 30  # multicasts in flight: 10 per client, closed loop
TOTAL = 5_000


def retained(daemon):
    """Messages a daemon's pipeline still holds, either engine."""
    pipeline = daemon.pipeline
    if daemon.config.ordering == "ring":
        return len(pipeline.received)
    return len(pipeline.sent_buffer) + sum(
        len(peer.received) for peer in pipeline.peers.values()
    )


def payloads(client):
    return [e.payload for e in client.queue if isinstance(e, DataEvent)]


def members_of(client):
    views = [e for e in client.queue if isinstance(e, MembershipEvent)]
    return {str(m) for m in views[-1].members} if views else set()


@pytest.mark.parametrize("ordering", ["lamport", "ring"])
def test_retention_is_bounded_by_the_window_not_the_view_lifetime(ordering):
    cluster = Cluster(daemon_count=3, seed=7, ordering=ordering)
    cluster.settle()
    view = cluster.daemons["d0"].view
    clients = [cluster.client(f"c{i}", f"d{i}") for i in range(3)]
    for client in clients:
        client.join("g")
    everyone = {f"#c{i}#d{i}" for i in range(3)}
    cluster.run_until(lambda: all(members_of(c) == everyone for c in clients))

    # Only data events arrive while the view is healthy, so queue growth
    # counts deliveries without rescanning 5,000 events per poll.
    before = [len(c.queue) for c in clients]
    sent = peak = 0
    while sent < TOTAL:
        for client in clients:
            for __ in range(WINDOW // 3):
                client.multicast(ServiceType.AGREED, "g", sent)
                sent += 1
        cluster.run_until(
            lambda: all(
                len(c.queue) - n >= sent for c, n in zip(clients, before)
            ),
            timeout=30,
        )
        peak = max(peak, *(retained(d) for d in cluster.daemons.values()))
    assert all(d.view == view for d in cluster.daemons.values())  # one view
    assert payloads(clients[0]) == payloads(clients[1]) == payloads(clients[2])
    assert len(payloads(clients[0])) == sent
    assert peak <= 4 * WINDOW, peak
    cluster.run(0.2)  # quiescent: the last acknowledgements go round
    assert all(retained(d) == 0 for d in cluster.daemons.values())

    # A silenced member freezes the stability line: retention grows, but
    # only until failure detection replaces the view.
    cluster.network.partition([["d0", "d1"], ["d2"]])
    for i in range(10 * WINDOW):
        clients[i % 2].multicast(ServiceType.AGREED, "g", ("late", i))
    cluster.run(cluster.config.fail_timeout / 2)
    assert retained(cluster.daemons["d0"]) > 4 * WINDOW  # past the healthy bound
    pair = {"#c0#d0", "#c1#d1"}
    cluster.run_until(
        lambda: all(members_of(c) == pair for c in clients[:2]), timeout=30
    )
    cluster.run(0.2)
    assert all(retained(cluster.daemons[n]) == 0 for n in ("d0", "d1"))
    # EVS for the pair that moved together: what was retained through the
    # silence was flushed, not dropped — same set, same order.
    assert payloads(clients[0]) == payloads(clients[1])
    assert len(payloads(clients[0])) > sent


def test_nack_under_the_line_is_counted_not_answered():
    cluster = Cluster(daemon_count=3, seed=9)
    cluster.settle()
    d0 = cluster.daemons["d0"]
    client = cluster.client("c0", "d0")
    client.join("g")
    client.multicast(ServiceType.AGREED, "g", "stable")
    cluster.run(0.2)
    assert retained(d0) == 0 and d0.pipeline.send_seq == 2
    # A NACK that crossed its own repair on the wire: nothing to resend.
    d0.on_message("d1", Nack("d1", d0.view, "d0", missing=(1, 2)))
    assert (d0.retransmissions, d0.stale_nacks) == (0, 2)
    # d2 falls silent: the next message stays unstable and is resent.
    cluster.network.partition([["d0", "d1"], ["d2"]])
    client.multicast(ServiceType.AGREED, "g", "unstable")
    cluster.run(0.001)  # across the client's IPC channel
    d0.on_message("d1", Nack("d1", d0.view, "d0", missing=(2, 3)))
    assert (d0.retransmissions, d0.stale_nacks) == (1, 3)
