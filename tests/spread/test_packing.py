"""Sender-side coalescing (Packed envelopes) and batched delivery.

The invariant under test throughout: packing changes how many wire
datagrams and kernel events the data plane costs, never what clients
observe — payloads, order and multiplicity are identical to the
unpacked path.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import LinkModel
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.sim.trace import Tracer
from repro.spread.client import SpreadClient
from repro.spread.config import SpreadConfig
from repro.spread.daemon import SpreadDaemon
from repro.spread.events import DataEvent
from repro.spread.messages import DataMessage, Hello, KIND_APP, Nack, Packed
from repro.types import ServiceType, ViewId

from tests.spread.conftest import Cluster

#: Latency-only link: no bandwidth, jitter or fault rates, so the
#: packed and unpacked runs consume the RNG identically and delivery
#: order can be compared byte for byte.
DETERMINISTIC_LINK = LinkModel(base_latency=0.0002)


def payloads_of(client, group="g"):
    return [
        e.payload for e in client.queue
        if isinstance(e, DataEvent) and str(e.group) == group
    ]


class _QuietCluster:
    """Minimal harness on a deterministic link for on/off A-B runs."""

    def __init__(self, packing: bool, seed: int = 5, daemon_count: int = 3,
                 **overrides):
        self.kernel = Kernel(seed=seed, tracer=Tracer(enabled=False))
        self.network = Network(self.kernel, default_link=DETERMINISTIC_LINK)
        names = tuple(f"d{i}" for i in range(daemon_count))
        self.config = SpreadConfig(daemons=names, packing=packing, **overrides)
        self.daemons = {}
        for name in names:
            daemon = SpreadDaemon(self.kernel, name, self.network, self.config)
            daemon.start()
            self.daemons[name] = daemon
        self.clients = []
        self.kernel.run_until(
            lambda: all(
                set(d.view_members) == set(names) for d in self.daemons.values()
            ),
            timeout=30,
        )
        for index, name in enumerate(names):
            client = SpreadClient(self.kernel, f"m{index}", self.daemons[name])
            client.connect()
            client.join("g")
            self.clients.append(client)
        self.kernel.run(until=self.kernel.now + 1.0)


def _flood(cluster: _QuietCluster, rounds: int = 3, burst: int = 5):
    clients = cluster.clients
    total = rounds * burst * len(clients)
    for round_index in range(rounds):
        for sender_index, client in enumerate(clients):
            for message_index in range(burst):
                client.multicast(
                    ServiceType.AGREED, "g",
                    f"{sender_index}:{round_index}:{message_index}".encode(),
                )
        cluster.kernel.run(until=cluster.kernel.now + 0.05)
    cluster.kernel.run_until(
        lambda: all(len(payloads_of(c)) == total for c in clients),
        timeout=60,
    )
    return [payloads_of(c) for c in clients]


# -- envelope units ----------------------------------------------------------------


def _message(seq: int, payload: bytes) -> DataMessage:
    return DataMessage(
        sender_daemon="d0",
        view_id=ViewId(epoch=1, counter=1, coordinator="d0"),
        seq=seq,
        lamport=seq,
        service=ServiceType.AGREED,
        kind=KIND_APP,
        group="g",
        origin=None,
        origin_seq=seq,
        payload=payload,
    )


def test_packed_wire_size_never_below_members():
    messages = tuple(_message(i + 1, bytes(8)) for i in range(4))
    envelope = Packed(sender="d0", view_id=messages[0].view_id,
                      messages=messages)
    assert envelope.wire_size() >= sum(m.wire_size() for m in messages)


@settings(max_examples=60, deadline=None)
@given(payloads=st.lists(st.binary(min_size=0, max_size=64),
                         min_size=1, max_size=16))
def test_pack_unpack_roundtrip_property(payloads):
    """Packing then unwrapping yields the same members in send order —
    including across the (pickle) serialization boundary."""
    messages = tuple(
        _message(i + 1, payload) for i, payload in enumerate(payloads)
    )
    envelope = Packed(sender="d0", view_id=messages[0].view_id,
                      messages=messages)
    assert envelope.messages == messages
    clone = pickle.loads(pickle.dumps(envelope))
    assert clone.messages == messages
    assert [m.payload for m in clone.messages] == payloads


# -- integration: equivalence and attribution --------------------------------------


def test_packed_flood_coalesces_and_matches_unpacked_order():
    unpacked = _QuietCluster(packing=False, seed=5)
    packed = _QuietCluster(packing=True, seed=5)
    baseline = _flood(unpacked)
    coalesced = _flood(packed)
    # Every client sees the exact payload sequence of the unpacked run.
    assert coalesced == baseline
    # And the wire actually coalesced: envelopes carried multiple
    # messages and the datagram count dropped.
    packed_messages = sum(d.packed_messages for d in packed.daemons.values())
    packed_datagrams = sum(
        d.packed_datagrams for d in packed.daemons.values()
    )
    assert packed_datagrams > 0
    assert packed_messages > packed_datagrams
    assert packed.network.datagrams_sent < unpacked.network.datagrams_sent


def test_single_message_flushes_unwrapped():
    cluster = _QuietCluster(packing=True, seed=6)
    client = cluster.clients[0]
    client.multicast(ServiceType.AGREED, "g", b"lone")
    cluster.kernel.run_until(
        lambda: b"lone" in payloads_of(cluster.clients[1]), timeout=30
    )
    # A buffer holding one message transmits the raw DataMessage — the
    # wire is byte-identical to the unpacked path, so no envelope counts.
    assert all(d.packed_datagrams == 0 for d in cluster.daemons.values())


def test_unreliable_bypasses_packing():
    cluster = _QuietCluster(packing=True, seed=7)
    client = cluster.clients[0]
    client.multicast(ServiceType.UNRELIABLE, "g", b"fire-and-forget")
    cluster.kernel.run_until(
        lambda: b"fire-and-forget" in payloads_of(cluster.clients[2]),
        timeout=30,
    )
    assert all(d.packed_datagrams == 0 for d in cluster.daemons.values())


def test_delivery_run_counters_attributed():
    cluster = _QuietCluster(packing=True, seed=8)
    _flood(cluster, rounds=2, burst=6)
    runs = sum(d.delivery_runs for d in cluster.daemons.values())
    delivered = sum(d.delivered_in_runs for d in cluster.daemons.values())
    longest = max(d.longest_run for d in cluster.daemons.values())
    assert runs > 0
    assert delivered >= runs
    assert longest >= 2  # bursts release as multi-message runs


def _record_sends(network):
    """Wrap ``network.send``; returns the list it appends
    ``(time, source, destination, payload)`` to, in wire order."""
    sent = []
    original_send = network.send

    def recording_send(source, destination, payload, size=None):
        sent.append((network.kernel.now, source, destination, payload))
        return original_send(source, destination, payload, size)

    network.send = recording_send
    return sent


def _burst_then_prompt_hello():
    """A client burst; the daemon's prompt hello follows on its own."""
    cluster = Cluster(daemon_count=3, seed=21)
    cluster.settle()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run(1.0)
    already_sent = cluster.daemons["d0"].pipeline.send_seq
    sent = _record_sends(cluster.network)
    for i in range(8):
        a.multicast(ServiceType.AGREED, "g", b"m%d" % i)
    cluster.run_until(lambda: len(payloads_of(b)) == 8, timeout=30)
    return "d0", already_sent, sent


def _burst_then_periodic_hello():
    """The hello timer fires in the very instant a burst is buffered."""
    cluster = _QuietCluster(packing=True, seed=5)
    d0 = cluster.daemons["d0"]
    already_sent = d0.pipeline.send_seq
    sent = _record_sends(cluster.network)
    for i in range(4):
        d0.client_multicast(
            cluster.clients[0].pid, ServiceType.AGREED, "g", b"p%d" % i, i + 1
        )
    d0._send_hello()
    cluster.kernel.run_until(
        lambda: len(payloads_of(cluster.clients[1])) == 4, timeout=30
    )
    return "d0", already_sent, sent


def _peer_data_while_burst_buffered():
    """Data from d0 and d2 reaches d1 in one instant, and d1 buffers a
    burst of its own between the two arrivals."""
    cluster = _QuietCluster(packing=True, seed=5)
    kernel = cluster.kernel
    d0, d1, d2 = (cluster.daemons[name] for name in ("d0", "d1", "d2"))
    m0, m1, m2 = (client.pid for client in cluster.clients)
    already_sent = d1.pipeline.send_seq
    sent = _record_sends(cluster.network)
    d0.client_multicast(m0, ServiceType.AGREED, "g", b"from d0", 1)
    d0._flush_packed()

    def burst():
        for i in range(3):
            d1.client_multicast(m1, ServiceType.AGREED, "g", b"d1-%d" % i, i + 1)

    # Scheduled between the two daemons' sends, at their arrival time
    # and the network's priority: it runs between the two arrivals.
    kernel.call_later(DETERMINISTIC_LINK.base_latency, burst)
    d2.client_multicast(m2, ServiceType.AGREED, "g", b"from d2", 1)
    d2._flush_packed()
    kernel.run_until(
        lambda: all(len(payloads_of(c)) == 5 for c in cluster.clients),
        timeout=30,
    )
    return "d1", already_sent, sent


def test_hello_never_advertises_unsent_sequences():
    """Regression: a coalescing daemon must transmit buffered data before
    any hello advertising those sequence numbers, or receivers discard
    the horizon extension and delivery stalls until the next heartbeat.
    Three inputs: the prompt hello that follows a burst, the periodic
    hello timer firing while the burst is still buffered, and data from
    both peers arriving in the instant the daemon's own burst is
    buffered — which also pays one prompt hello per peer, not one per
    ingest."""
    for scenario in (
        _burst_then_prompt_hello,
        _burst_then_periodic_hello,
        _peer_data_while_burst_buffered,
    ):
        daemon, max_data_seq, sent = scenario()
        for __, source, __, payload in sent:
            if source != daemon:
                continue
            if isinstance(payload, Packed):
                max_data_seq = max(
                    max_data_seq, max(m.seq for m in payload.messages)
                )
            elif isinstance(payload, DataMessage) and payload.seq:
                max_data_seq = max(max_data_seq, payload.seq)
            elif isinstance(payload, Hello):
                assert payload.sent_seq <= max_data_seq, scenario.__name__
    # The last scenario's instant: d1 sends its burst, then exactly one
    # hello per view peer, advertising the whole burst.
    instant = min(when for when, source, __, __ in sent if source == "d1")
    in_instant = [
        (destination, payload) for when, source, destination, payload in sent
        if source == "d1" and when == instant
    ]
    assert [type(p) for __, p in in_instant] == [Packed, Packed, Hello, Hello]
    assert sorted(d for d, __ in in_instant[2:]) == ["d0", "d2"]
    burst_top = max(m.seq for m in in_instant[0][1].messages)
    assert all(p.sent_seq == burst_top for __, p in in_instant[2:])


def test_hello_that_overtakes_its_data_sends_no_nack():
    """A hello that overtakes the Packed datagram it advertises (a sim
    link delays a large envelope longer than a small hello) reveals a
    gap.  The gap ages from the hello's arrival, so a NACK timer tick
    that comes before the data, but less than nack_timeout after the
    hello, asks for nothing — the data is already on its way."""
    cluster = _QuietCluster(packing=True, seed=5)
    kernel, network = cluster.kernel, cluster.network
    d0, d1 = cluster.daemons["d0"], cluster.daemons["d1"]
    nack_timeout = cluster.config.nack_timeout
    sent = _record_sends(network)
    recording_send = network.send
    held = []

    def hold_packed_to_d1(source, destination, payload, size=None):
        if (source, destination, type(payload)) == ("d0", "d1", Packed) and not held:
            held.append(payload)
            kernel.call_later(
                nack_timeout / 2,
                lambda: recording_send(source, destination, payload, size),
            )
            return
        recording_send(source, destination, payload, size)

    network.send = hold_packed_to_d1
    # d1's next gap check falls while the envelope is held back.
    d1.timers.start("nack", delay=nack_timeout / 4)
    for i in range(4):
        d0.client_multicast(
            cluster.clients[0].pid, ServiceType.AGREED, "g", b"o%d" % i, i + 1
        )
    kernel.run(until=kernel.now + 4 * nack_timeout)
    assert not [p for __, s, __, p in sent if s == "d1" and isinstance(p, Nack)]
    assert d0.retransmissions == 0
    assert held, "the burst never travelled as one envelope"
    top = max(m.seq for m in held[0].messages)
    to_d1 = [p for __, s, d, p in sent if (s, d) == ("d0", "d1")]
    # The hello advertising the burst reached the wire before the burst.
    assert isinstance(to_d1[0], Hello) and to_d1[0].sent_seq == top
    assert to_d1.index(held[0]) > 0
    assert payloads_of(cluster.clients[1]) == [b"o%d" % i for i in range(4)]


def test_view_change_flushes_pack_buffers():
    """Messages buffered when a membership change commits must still
    reach every member of the old view exactly once."""
    cluster = _QuietCluster(packing=True, seed=9)
    sender = cluster.clients[0]
    for i in range(6):
        sender.multicast(ServiceType.AGREED, "g", b"pre%d" % i)
    # Crash a daemon in the same instant the burst is buffered.
    cluster.daemons["d2"].crash()
    cluster.kernel.run_until(
        lambda: all(
            len(payloads_of(c)) == 6 for c in cluster.clients[:2]
        ),
        timeout=60,
    )
    for client in cluster.clients[:2]:
        assert payloads_of(client) == [b"pre%d" % i for i in range(6)]
