"""The Totem-style token-ring ordering engine (ordering="ring")."""

import pytest

from repro.net.link import LinkModel
from repro.spread.events import DataEvent, MembershipEvent
from repro.spread.ring import RingPipeline, RingToken
from repro.types import MembershipCause, ServiceType, ViewId

from tests.spread.conftest import Cluster


def ring_cluster(daemon_count=3, seed=81, **overrides):
    cluster = Cluster(daemon_count=daemon_count, seed=seed,
                      ordering="ring", **overrides)
    cluster.settle()
    return cluster


def members_of(client, group="g"):
    views = [
        e for e in client.queue
        if isinstance(e, MembershipEvent) and str(e.group) == group
    ]
    return {str(m) for m in views[-1].members} if views else set()


def payloads(client, group="g"):
    return [
        e.payload for e in client.queue
        if isinstance(e, DataEvent) and str(e.group) == group
    ]


# -- unit: the pipeline alone -----------------------------------------------------


def make_ring(me="a", members=("a", "b", "c"), start=0):
    delivered = []
    sent = []
    scheduled = []  # (delay, callback); unit tests fire them explicitly
    pipeline = RingPipeline(
        ViewId(1, 1, "a"), members, me, delivered.append,
        start_lamport=start,
        send=lambda dest, payload: sent.append((dest, payload)),
        schedule=lambda delay, fn: scheduled.append((delay, fn)),
    )
    pipeline.scheduled = scheduled
    return pipeline, delivered, sent


def test_singleton_ring_delivers_immediately():
    pipeline, delivered, sent = make_ring(members=("a",))
    pipeline.submit(ServiceType.AGREED, "app", "g", None, 1, "x")
    assert [m.payload for m in delivered] == ["x"]
    assert sent == []  # nobody to send to


def test_token_sequences_pending_messages():
    pipeline, delivered, sent = make_ring()
    pipeline.submit(ServiceType.AGREED, "app", "g", None, 1, "one")
    pipeline.submit(ServiceType.AGREED, "app", "g", None, 2, "two")
    assert delivered == []  # waiting for the token
    token = RingToken(ViewId(1, 1, "a"), round=1, seq=0,
                      aru={"a": 0, "b": 0, "c": 0}, rtr=())
    pipeline.on_token(token)
    assert [m.payload for m in delivered] == ["one", "two"]
    broadcasts = [p for dest, p in sent if dest is None]
    assert len(broadcasts) == 2
    tokens = [p for dest, p in sent if isinstance(p, RingToken)]
    assert tokens and tokens[-1].seq == 2


def test_duplicate_token_ignored():
    pipeline, delivered, sent = make_ring()
    token = RingToken(ViewId(1, 1, "a"), round=1, seq=0,
                      aru={"a": 0, "b": 0, "c": 0}, rtr=())
    pipeline.on_token(token)
    count = len(sent)
    pipeline.on_token(token)  # replayed
    assert len(sent) == count


def test_out_of_order_broadcasts_held_until_contiguous():
    pipeline, delivered, __ = make_ring()
    from repro.spread.messages import DataMessage

    def msg(global_seq, payload):
        return DataMessage(
            sender_daemon="b", view_id=ViewId(1, 1, "a"), seq=global_seq,
            lamport=global_seq, service=ServiceType.AGREED, kind="app",
            group="g", origin=None, origin_seq=1, payload=payload,
        )

    pipeline.ingest(msg(2, "second"))
    assert delivered == []
    pipeline.ingest(msg(1, "first"))
    assert [m.payload for m in delivered] == ["first", "second"]


def test_unstable_safe_message_blocks_successors():
    pipeline, delivered, __ = make_ring()
    from repro.spread.messages import DataMessage

    def msg(global_seq, payload, service):
        return DataMessage(
            sender_daemon="b", view_id=ViewId(1, 1, "a"), seq=global_seq,
            lamport=global_seq, service=service, kind="app",
            group="g", origin=None, origin_seq=1, payload=payload,
        )

    pipeline.ingest(msg(1, "safe-one", ServiceType.SAFE))
    pipeline.ingest(msg(2, "agreed-two", ServiceType.AGREED))
    assert delivered == []  # safe not yet stable; order preserved
    token = RingToken(ViewId(1, 1, "a"), round=1, seq=2,
                      aru={"a": 2, "b": 2, "c": 2}, rtr=())
    pipeline.on_token(token)
    assert [m.payload for m in delivered] == ["safe-one", "agreed-two"]


def test_token_carries_repair_requests():
    pipeline, delivered, sent = make_ring()
    from repro.spread.messages import DataMessage

    gap = DataMessage(
        sender_daemon="b", view_id=ViewId(1, 1, "a"), seq=2, lamport=2,
        service=ServiceType.AGREED, kind="app", group="g",
        origin=None, origin_seq=1, payload="later",
    )
    pipeline.ingest(gap)  # seq 1 missing
    token = RingToken(ViewId(1, 1, "a"), round=1, seq=2,
                      aru={"a": 0, "b": 2, "c": 0}, rtr=())
    pipeline.on_token(token)
    passed = [p for __, p in sent if isinstance(p, RingToken)][-1]
    assert 1 in passed.rtr


def test_holder_answers_repair_requests():
    pipeline, delivered, sent = make_ring(me="b")
    from repro.spread.messages import DataMessage

    have = DataMessage(
        sender_daemon="b", view_id=ViewId(1, 1, "a"), seq=1, lamport=1,
        service=ServiceType.AGREED, kind="app", group="g",
        origin=None, origin_seq=1, payload="mine",
    )
    pipeline.ingest(have)
    token = RingToken(ViewId(1, 1, "a"), round=2, seq=1,
                      aru={"a": 0, "b": 1, "c": 0}, rtr=(1,))
    pipeline.on_token(token)
    rebroadcast = [
        p for dest, p in sent
        if dest is None and getattr(p, "payload", None) == "mine"
    ]
    assert rebroadcast


# -- full stack over the ring --------------------------------------------------------


def test_ring_cluster_converges():
    cluster = ring_cluster()
    assert all(len(d.view_members) == 3 for d in cluster.alive_daemons())


def test_ring_agreed_total_order():
    cluster = ring_cluster()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    c = cluster.client("c", "d2")
    for client in (a, b, c):
        client.join("g")
    expected = {"#a#d0", "#b#d1", "#c#d2"}
    cluster.run_until(lambda: all(members_of(x) == expected for x in (a, b, c)),
                      timeout=60)
    for i in range(5):
        a.multicast(ServiceType.AGREED, "g", f"a{i}")
        b.multicast(ServiceType.AGREED, "g", f"b{i}")
        c.multicast(ServiceType.AGREED, "g", f"c{i}")
    cluster.run_until(
        lambda: all(len(payloads(x)) == 15 for x in (a, b, c)), timeout=60
    )
    assert payloads(a) == payloads(b) == payloads(c)


def test_ring_safe_delivery():
    cluster = ring_cluster()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"}, timeout=60)
    a.multicast(ServiceType.SAFE, "g", "stable")
    # Each daemon learns that a message is stable only when the token
    # next visits it, so SAFE delivery is not simultaneous.  But the
    # round that first sees every aru at the top runs at full speed (an
    # idle ring paces only once a holder already knew): every daemon
    # delivers within one fast round, not one idle hop (hello_interval)
    # after the daemon before it.
    delivered_at = {}

    def both_delivered():
        for client in (a, b):
            if client not in delivered_at and "stable" in payloads(client):
                delivered_at[client] = cluster.kernel.now
        return len(delivered_at) == 2

    cluster.run_until(both_delivered, timeout=60)
    spread = max(delivered_at.values()) - min(delivered_at.values())
    assert spread < cluster.config.hello_interval / 2, spread


def test_ring_survives_lossy_network():
    cluster = Cluster(daemon_count=3, seed=83, ordering="ring")
    cluster.network.default_link = LinkModel(base_latency=0.0003, loss_rate=0.08)
    cluster.settle(timeout=60)
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"}, timeout=120)
    for i in range(15):
        a.multicast(ServiceType.AGREED, "g", i)
    cluster.run_until(lambda: len(payloads(b)) == 15, timeout=240)
    assert payloads(b) == list(range(15))


def test_ring_partition_and_merge():
    cluster = ring_cluster()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"}, timeout=60)
    cluster.network.partition([["d0"], ["d1", "d2"]])
    cluster.run_until(lambda: members_of(a) == {"#a#d0"}, timeout=60)
    cluster.run_until(lambda: members_of(b) == {"#b#d1"}, timeout=60)
    cluster.network.heal()
    cluster.run_until(
        lambda: members_of(a) == {"#a#d0", "#b#d1"}
        and members_of(b) == {"#a#d0", "#b#d1"},
        timeout=60,
    )
    a.multicast(ServiceType.AGREED, "g", "post-merge")
    cluster.run_until(lambda: "post-merge" in payloads(b), timeout=60)


def test_ring_daemon_crash_recovery():
    cluster = ring_cluster()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"}, timeout=60)
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]), timeout=60)
    a.multicast(ServiceType.AGREED, "g", "without d2")
    cluster.run_until(lambda: "without d2" in payloads(b), timeout=60)
    cluster.daemons["d2"].recover()
    cluster.settle(timeout=60)
    b.multicast(ServiceType.AGREED, "g", "d2 is back")
    cluster.run_until(lambda: "d2 is back" in payloads(a), timeout=60)


def test_secure_group_over_ring():
    """The whole secure stack rides the ring engine unchanged."""
    from tests.secure.conftest import SecureHarness

    class RingHarness(SecureHarness):
        def __init__(self):
            from repro.crypto.dh import DHParams
            from repro.cliques.directory import KeyDirectory

            self.cluster = Cluster(daemon_count=3, seed=85, ordering="ring")
            self.cluster.settle()
            self.params = DHParams.tiny_test()
            self.directory = KeyDirectory()
            self.members = {}
            self.cost_model = None
            self._seed = 85

    h = RingHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"], timeout=60)
    b.join("g")
    h.wait_view(["a", "b"], timeout=60)
    a.send("g", b"sealed over the ring")
    h.run_until(lambda: b"sealed over the ring" in h.payloads_of("b"), timeout=60)


def test_ring_keeps_unsequenced_sends_across_a_view_change():
    """Sends the token never reached before a view change are carried
    into the new view's ring, not dropped: with d2 stalled the token
    stops, the daemons re-form without it and again with it, and every
    one of a's multicasts still comes back to it exactly once."""
    cluster = ring_cluster()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"}, timeout=60)
    cluster.daemons["d2"].stall()
    for i in range(300):
        a.multicast(ServiceType.AGREED, "g", i)
    cluster.run(3.0)
    cluster.daemons["d2"].resume()
    cluster.run(3.0)
    assert payloads(a) == list(range(300))
    assert payloads(b) == list(range(300))
