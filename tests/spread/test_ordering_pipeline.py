"""Direct unit tests of the ViewPipeline (no daemons, no network)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spread.messages import DataMessage, Hello, KIND_APP, Nack
from repro.spread.ordering import ViewPipeline
from repro.types import ServiceType, ViewId

from tests.spread.conftest import Lockstep

VIEW = ViewId(1, 1, "a")


def make_pipeline(me="a", members=("a", "b", "c"), collect=None):
    delivered = collect if collect is not None else []
    pipeline = ViewPipeline(VIEW, members, me, delivered.append)
    return pipeline, delivered


def msg(sender, seq, lamport, service=ServiceType.FIFO, payload=None):
    return DataMessage(
        sender_daemon=sender,
        view_id=VIEW,
        seq=seq,
        lamport=lamport,
        service=service,
        kind=KIND_APP,
        group="g",
        origin=None,
        origin_seq=seq,
        payload=payload if payload is not None else f"{sender}{seq}",
    )


# -- sending ----------------------------------------------------------------------


def test_next_message_stamps_increasing_seq_and_lamport():
    pipeline, __ = make_pipeline()
    m1 = pipeline.next_message(ServiceType.FIFO, KIND_APP, "g", None, 1, "x")
    m2 = pipeline.next_message(ServiceType.FIFO, KIND_APP, "g", None, 2, "y")
    assert m2.seq == m1.seq + 1
    assert m2.lamport > m1.lamport


def test_own_fifo_messages_self_delivered():
    pipeline, delivered = make_pipeline()
    pipeline.next_message(ServiceType.FIFO, KIND_APP, "g", None, 1, "x")
    assert [m.payload for m in delivered] == ["x"]


def test_sent_buffer_retains_messages_for_retransmit():
    pipeline, __ = make_pipeline()
    m = pipeline.next_message(ServiceType.FIFO, KIND_APP, "g", None, 1, "x")
    assert pipeline.retransmit([m.seq]) == [m]
    assert pipeline.retransmit([99]) == []


# -- FIFO delivery ---------------------------------------------------------------------


def test_fifo_in_order_delivery():
    pipeline, delivered = make_pipeline()
    for seq in (1, 2, 3):
        pipeline.ingest(msg("b", seq, seq), now=0.0)
    assert [m.payload for m in delivered] == ["b1", "b2", "b3"]


def test_fifo_holds_gap_then_releases():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("b", 2, 2), now=0.0)
    assert delivered == []
    pipeline.ingest(msg("b", 1, 1), now=0.0)
    assert [m.payload for m in delivered] == ["b1", "b2"]


def test_duplicate_ingest_ignored():
    pipeline, delivered = make_pipeline()
    message = msg("b", 1, 1)
    pipeline.ingest(message, now=0.0)
    pipeline.ingest(message, now=0.0)
    assert len(delivered) == 1


def test_stale_view_message_ignored():
    pipeline, delivered = make_pipeline()
    stale = DataMessage(
        sender_daemon="b",
        view_id=ViewId(0, 9, "z"),
        seq=1,
        lamport=1,
        service=ServiceType.FIFO,
        kind=KIND_APP,
        group="g",
        origin=None,
        origin_seq=1,
        payload="stale",
    )
    pipeline.ingest(stale, now=0.0)
    assert delivered == []


def test_unknown_sender_ignored():
    pipeline, delivered = make_pipeline(members=("a", "b"))
    pipeline.ingest(msg("zz", 1, 1), now=0.0)
    assert delivered == []


# -- AGREED total order --------------------------------------------------------------------


def test_agreed_held_until_all_horizons_pass():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("b", 1, 5, ServiceType.AGREED), now=0.0)
    assert delivered == []  # c's horizon unknown
    pipeline.note_hello("c", lamport=6, all_received=0, sent_seq=0, now=0.0)
    assert [m.payload for m in delivered] == ["b1"]


def test_agreed_order_by_timestamp_across_senders():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("c", 1, 7, ServiceType.AGREED), now=0.0)
    pipeline.ingest(msg("b", 1, 3, ServiceType.AGREED), now=0.0)
    pipeline.note_hello("b", lamport=10, all_received=0, sent_seq=1, now=0.0)
    pipeline.note_hello("c", lamport=10, all_received=0, sent_seq=1, now=0.0)
    assert [m.payload for m in delivered] == ["b1", "c1"]


def test_agreed_ties_broken_by_sender_name():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("c", 1, 5, ServiceType.AGREED), now=0.0)
    pipeline.ingest(msg("b", 1, 5, ServiceType.AGREED), now=0.0)
    pipeline.note_hello("b", lamport=9, all_received=0, sent_seq=1, now=0.0)
    pipeline.note_hello("c", lamport=9, all_received=0, sent_seq=1, now=0.0)
    assert [m.payload for m in delivered] == ["b1", "c1"]


def test_hello_with_unseen_sent_seq_does_not_advance_horizon():
    """A heartbeat advertising messages we have not ingested must not
    unlock the total order (an in-flight message could order earlier)."""
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("b", 1, 5, ServiceType.AGREED), now=0.0)
    # c says it sent seq 1 (which we don't have) with clock 9.
    pipeline.note_hello("c", lamport=9, all_received=0, sent_seq=1, now=0.0)
    assert delivered == []
    # The missing message arrives with an earlier timestamp: order holds.
    pipeline.ingest(msg("c", 1, 4, ServiceType.AGREED), now=0.0)
    pipeline.note_hello("b", lamport=9, all_received=0, sent_seq=1, now=0.0)
    pipeline.note_hello("c", lamport=9, all_received=0, sent_seq=1, now=0.0)
    assert [m.payload for m in delivered] == ["c1", "b1"]


def test_hello_tail_gap_detected_for_nack():
    pipeline, __ = make_pipeline()
    pipeline.note_hello("b", lamport=5, all_received=0, sent_seq=3, now=0.0)
    gaps = pipeline.gaps_older_than(now=10.0, age=1.0)
    assert gaps == {"b": [1, 2, 3]}


def test_own_lamport_counts_as_own_horizon():
    """Our own clock vouches for our horizon: two-member agreed delivery
    must not need a self-hello."""
    pipeline, delivered = make_pipeline(members=("a", "b"))
    pipeline.ingest(msg("b", 1, 5, ServiceType.AGREED), now=0.0)
    # our lamport was max'ed to 5 by the ingest; next send is 6 > 5... but
    # release requires horizon >= ts, ours is max(0, lamport=5) == 5.
    assert [m.payload for m in delivered] == ["b1"]


# -- SAFE delivery ------------------------------------------------------------------------


def test_safe_waits_for_all_received_acks():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("b", 1, 5, ServiceType.SAFE), now=0.0)
    pipeline.note_hello("c", lamport=9, all_received=0, sent_seq=0, now=0.0)
    assert delivered == []  # ordered horizon ok, but no stability ack
    pipeline.note_hello("b", lamport=9, all_received=6, sent_seq=1, now=0.0)
    pipeline.note_hello("c", lamport=10, all_received=6, sent_seq=0, now=0.0)
    assert [m.payload for m in delivered] == ["b1"]


def test_my_all_received_is_min_across_peers():
    pipeline, __ = make_pipeline()
    pipeline.ingest(msg("b", 1, 5, ServiceType.FIFO), now=0.0)
    # c never spoke: horizon 0.
    assert pipeline.my_all_received() == 0
    pipeline.note_hello("c", lamport=7, all_received=0, sent_seq=0, now=0.0)
    assert pipeline.my_all_received() == 5


# -- NACK / gap bookkeeping -----------------------------------------------------------------


def test_gap_detection_and_backoff():
    pipeline, __ = make_pipeline()
    pipeline.ingest(msg("b", 3, 3), now=1.0)
    gaps = pipeline.gaps_older_than(now=1.05, age=0.03)
    assert gaps == {"b": [1, 2]}
    # Immediately re-checking yields nothing (backed off).
    assert pipeline.gaps_older_than(now=1.06, age=0.03) == {}


def test_gap_cleared_when_filled():
    pipeline, __ = make_pipeline()
    pipeline.ingest(msg("b", 2, 2), now=1.0)
    pipeline.ingest(msg("b", 1, 1), now=1.1)
    assert pipeline.gaps_older_than(now=5.0, age=0.01) == {}


# -- cut & flush --------------------------------------------------------------------------


def test_cut_reports_unstable():
    """The cut carries everything not yet acked by all members — the
    delivered-but-unstable (b, 1) included, because a co-moving peer may
    have missed it and can only recover it through the complement."""
    pipeline, __ = make_pipeline()
    pipeline.ingest(msg("b", 1, 1), now=0.0)  # delivered (fifo)
    pipeline.ingest(msg("b", 3, 3), now=0.0)  # held (gap)
    pipeline.ingest(msg("c", 1, 5, ServiceType.AGREED), now=0.0)  # held (order)
    unstable, delivered_ts, fifo = pipeline.cut()
    keys = {(m.sender_daemon, m.seq) for m in unstable}
    assert keys == {("b", 1), ("b", 3), ("c", 1)}
    assert fifo["b"] == 1


def test_cut_garbage_collects_stable_messages():
    """Once every member has acked past a delivered message's timestamp
    (the SAFE horizon), the cut drops it: it is ingested everywhere and
    can never be needed for a flush complement."""
    pipeline, __ = make_pipeline()
    pipeline.ingest(msg("b", 1, 1), now=0.0)  # delivered (fifo)
    pipeline.ingest(msg("b", 3, 3), now=0.0)  # held (gap)
    pipeline.ingest(msg("c", 1, 5, ServiceType.AGREED), now=0.0)  # held (order)
    pipeline.note_hello("b", lamport=3, all_received=1, sent_seq=3, now=0.0)
    pipeline.note_hello("c", lamport=5, all_received=1, sent_seq=1, now=0.0)
    unstable, __, __ = pipeline.cut()
    keys = {(m.sender_daemon, m.seq) for m in unstable}
    assert keys == {("b", 3), ("c", 1)}  # stable (b, 1) dropped


def test_flush_with_union_delivers_same_set():
    """Two pipelines with different receipt patterns, flushed with the
    same union, deliver identical message sets."""
    collect1, collect2 = [], []
    p1 = ViewPipeline(VIEW, ("a", "b", "c"), "a", collect1.append)
    p2 = ViewPipeline(VIEW, ("a", "b", "c"), "b", collect2.append)
    messages = [
        msg("b", 1, 2, ServiceType.AGREED),
        msg("c", 1, 3, ServiceType.AGREED),
        msg("b", 2, 4, ServiceType.FIFO),
    ]
    p1.ingest(messages[0], now=0.0)
    p2.ingest(messages[1], now=0.0)
    p2.ingest(messages[2], now=0.0)
    union = {m.key(): m for pipeline in (p1, p2) for m in pipeline.cut()[0]}
    union_list = [union[k] for k in sorted(union)]
    p1.flush_with(union_list, synced_members=["a", "b"])
    p2.flush_with(union_list, synced_members=["a", "b"])
    set1 = {(m.sender_daemon, m.seq) for m in collect1}
    set2 = {(m.sender_daemon, m.seq) for m in collect2}
    assert set1 == set2 == {("b", 1), ("c", 1), ("b", 2)}
    # Total-order messages appear in the same relative order.
    agreed1 = [m.payload for m in collect1 if m.service & ServiceType.AGREED]
    agreed2 = [m.payload for m in collect2 if m.service & ServiceType.AGREED]
    assert agreed1 == agreed2


def test_flush_stops_at_gap_for_unsynced_sender():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("c", 2, 5), now=0.0)  # gap at seq 1, c not synced
    pipeline.flush_with([], synced_members=["a", "b"])
    assert all(m.sender_daemon != "c" for m in delivered)


def test_flush_skips_gap_for_synced_sender():
    pipeline, delivered = make_pipeline()
    pipeline.ingest(msg("b", 2, 5), now=0.0)  # gap at 1, but b synced:
    pipeline.flush_with([], synced_members=["a", "b", "c"])
    assert [m.payload for m in delivered] == ["b2"]


# -- property-based -----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(list(range(12))),
)
def test_fifo_delivery_invariant_under_any_arrival_order(order):
    """However messages arrive, per-sender FIFO delivery order holds."""
    pipeline, delivered = make_pipeline(members=("a", "b", "c"))
    all_messages = [msg("b", i + 1, i + 1) for i in range(6)] + [
        msg("c", i + 1, i + 10) for i in range(6)
    ]
    for index in order:
        pipeline.ingest(all_messages[index], now=0.0)
    b_seqs = [m.seq for m in delivered if m.sender_daemon == "b"]
    c_seqs = [m.seq for m in delivered if m.sender_daemon == "c"]
    assert b_seqs == sorted(b_seqs) == list(range(1, 7))
    assert c_seqs == sorted(c_seqs) == list(range(1, 7))


@settings(max_examples=40, deadline=None)
@given(order=st.permutations(list(range(8))), data=st.data())
def test_agreed_total_order_invariant(order, data):
    """Two receivers with different arrival orders deliver AGREED
    messages in the same sequence once horizons pass."""
    msgs = [
        msg("b", i + 1, 2 * i + 1, ServiceType.AGREED) for i in range(4)
    ] + [msg("c", i + 1, 2 * i + 2, ServiceType.AGREED) for i in range(4)]
    order2 = data.draw(st.permutations(list(range(8))))
    out1, out2 = [], []
    p1 = ViewPipeline(VIEW, ("a", "b", "c"), "a", out1.append)
    p2 = ViewPipeline(VIEW, ("x", "b", "c"), "x", out2.append)
    for i in order:
        p1.ingest(msgs[i], now=0.0)
    for i in order2:
        p2.ingest(msgs[i], now=0.0)
    for p in (p1, p2):
        p.note_hello("b", lamport=100, all_received=100, sent_seq=4, now=0.0)
        p.note_hello("c", lamport=100, all_received=100, sent_seq=4, now=0.0)
    assert [m.payload for m in out1] == [m.payload for m in out2]
    assert len(out1) == 8


# -- ingest batching (packed-envelope release deferral) ----------------------------


def test_ingest_batch_defers_ordered_release_until_end():
    pipeline, delivered = make_pipeline()
    pipeline.note_hello("c", lamport=100, all_received=100, sent_seq=0, now=0.0)
    pipeline.begin_ingest_batch()
    pipeline.ingest(msg("b", 1, 1, ServiceType.AGREED), now=0.0)
    pipeline.ingest(msg("b", 2, 2, ServiceType.AGREED), now=0.0)
    pipeline.note_hello("b", lamport=100, all_received=100, sent_seq=2, now=0.0)
    # Everything is releasable, but the batch holds the heap drain.
    assert delivered == []
    pipeline.end_ingest_batch()
    assert [m.payload for m in delivered] == ["b1", "b2"]


def test_ingest_batch_keeps_fifo_fast_path():
    pipeline, delivered = make_pipeline()
    pipeline.begin_ingest_batch()
    pipeline.ingest(msg("b", 1, 1), now=0.0)
    # FIFO needs no ordering horizon: the fast path is not deferred.
    assert [m.payload for m in delivered] == ["b1"]
    pipeline.end_ingest_batch()


def test_ingest_batch_delivery_order_matches_per_ingest():
    messages = [
        msg("b", i + 1, 2 * i + 1, ServiceType.AGREED) for i in range(4)
    ] + [msg("c", i + 1, 2 * i + 2, ServiceType.AGREED) for i in range(4)]
    plain_out, batched_out = [], []
    plain = ViewPipeline(VIEW, ("a", "b", "c"), "a", plain_out.append)
    batched = ViewPipeline(VIEW, ("a", "b", "c"), "a", batched_out.append)
    for message in messages:
        plain.ingest(message, now=0.0)
    batched.begin_ingest_batch()
    for message in messages:
        batched.ingest(message, now=0.0)
    batched.end_ingest_batch()
    for pipeline in (plain, batched):
        pipeline.note_hello("b", lamport=100, all_received=100, sent_seq=4, now=0.0)
        pipeline.note_hello("c", lamport=100, all_received=100, sent_seq=4, now=0.0)
    assert [m.payload for m in batched_out] == [m.payload for m in plain_out]
    assert len(batched_out) == 8


def test_nested_ingest_batches_release_once_at_depth_zero():
    pipeline, delivered = make_pipeline()
    pipeline.note_hello("c", lamport=100, all_received=100, sent_seq=0, now=0.0)
    pipeline.begin_ingest_batch()
    pipeline.begin_ingest_batch()
    pipeline.ingest(msg("b", 1, 1, ServiceType.AGREED), now=0.0)
    pipeline.note_hello("b", lamport=100, all_received=100, sent_seq=1, now=0.0)
    pipeline.end_ingest_batch()
    assert delivered == []  # still one level deep
    pipeline.end_ingest_batch()
    assert [m.payload for m in delivered] == ["b1"]


# -- steady-state garbage collection ------------------------------------------------


def test_stable_delivered_messages_leave_the_pipeline():
    pipeline, delivered = make_pipeline()
    own = pipeline.next_message(ServiceType.FIFO, KIND_APP, "g", None, 1, "x")
    pipeline.ingest(msg("b", 1, 1), now=0.0)
    pipeline.ingest(msg("b", 2, 9, ServiceType.AGREED), now=0.0)  # held
    assert len(delivered) == 2
    # b acks everything; c has acked nothing: the line stays at 0.
    pipeline.note_hello("b", lamport=9, all_received=9, sent_seq=2, now=0.0)
    assert set(pipeline.peers["b"].received) == {1, 2}
    assert pipeline.retransmit([own.seq]) == [own]
    # c catches up: (b, 1) and our own message are delivered and stable,
    # (b, 2) only once c's clock lets it be delivered here.
    pipeline.note_hello("c", lamport=5, all_received=5, sent_seq=0, now=0.0)
    assert set(pipeline.peers["b"].received) == {2}
    assert pipeline.sent_buffer == {}
    pipeline.note_hello("c", lamport=10, all_received=10, sent_seq=0, now=0.0)
    assert len(delivered) == 3 and pipeline.peers["b"].received == {}
    # A late duplicate of a trimmed message is still a duplicate, and a
    # NACK naming it finds nothing to send.
    pipeline.ingest(msg("b", 1, 1), now=0.0)
    assert len(delivered) == 3
    assert pipeline.retransmit([own.seq]) == []
    assert pipeline.cut()[0] == ()


def test_singleton_view_trims_on_its_own_progress():
    """Alone, no hello ever arrives: our own ack is the whole line."""
    pipeline, delivered = make_pipeline(members=("a",))
    for i in range(50):
        pipeline.submit(ServiceType.SAFE, KIND_APP, "g", None, i, i)
    assert len(delivered) == 50
    assert pipeline.sent_buffer == {}


class UntrimmedPipeline(ViewPipeline):
    """The reference model: the same engine, retaining everything."""

    def _trim(self):
        pass


SERVICES = (
    ServiceType.FIFO, ServiceType.CAUSAL, ServiceType.AGREED, ServiceType.SAFE
)


class LockstepGroup(Lockstep):
    """Lamport-engine lock-step group: the only output the reference may
    add is a retransmission answering a stale NACK."""

    def __init__(self, size):
        self.now = 0.0
        super().__init__(size)

    def build(self, reference, name, deliver, send):
        cls = UntrimmedPipeline if reference else ViewPipeline
        return cls(VIEW, self.names, name, deliver, send=send)

    def check_redundant(self, name, destination, message):
        assert isinstance(message, DataMessage) and destination is not None
        assert self.real[destination].peers[name].contiguous >= message.seq

    def hello(self, name):
        pipeline = self.real[name]
        assert pipeline.my_all_received() == self.ref[name].my_all_received()
        for target in self.names:
            if target != name:
                self.wire.append((name, target, Hello(
                    sender=name, view_id=VIEW, lamport=pipeline.lamport,
                    all_received=pipeline.my_all_received(), incarnation=0,
                    sent_seq=pipeline.send_seq,
                )))

    def arrive(self, source, target, payload):
        if isinstance(payload, DataMessage):
            self.step(target, lambda p: p.ingest(payload, now=self.now))
        elif isinstance(payload, Hello):
            self.step(target, lambda p: p.note_hello(
                source, payload.lamport, payload.all_received, payload.sent_seq,
                now=self.now,
            ))
        else:
            held = self.real[target].sent_buffer
            for seq in payload.missing:
                if seq not in held:  # trimmed: the request must be stale
                    assert self.real[source].peers[target].contiguous >= seq
            self.step(target, lambda p: p.on_nack(payload))

    def trimmed(self, name):
        """The message ``name`` dropped most recently, if any."""
        for sender in self.names:
            kept = self.ref[name].peers[sender].received
            gone = kept.keys() - self.real[name].peers[sender].received.keys()
            if gone:
                return kept[max(gone)]
        return None

    def settle(self, rounds, hold_nacks=False):
        """Reliable rounds: every member says hello and runs its NACK
        timer, and the wire drains in order — except, with
        ``hold_nacks``, the NACKs, which stay in flight to arrive late."""
        for __ in range(rounds):
            self.now += 1.0
            for n in self.names:
                self.hello(n)
                self.step(n, lambda p: p.periodic(self.now, 0.0))
            held = []
            while self.wire:
                item = self.wire.pop(0)
                if hold_nacks and isinstance(item[2], Nack):
                    held.append(item)
                else:
                    self.arrive(*item)
            self.wire.extend(held)


lockstep_actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "submit", "arrive", "arrive", "arrive", "drop", "dup",
             "hello", "hello", "tick", "cut", "settle", "aim", "aim"]
        ),
        st.integers(0, 3),
        st.integers(0, 10_000),
    ),
    min_size=10,
    max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(size=st.integers(3, 4), actions=lockstep_actions, heal=st.booleans())
def test_trimming_withholds_nothing(size, actions, heal):
    """Under loss, duplication, reordering and an arbitrary hello
    schedule, the trimming pipeline delivers, cuts and flushes exactly
    like one that retains everything, and whatever it can no longer
    retransmit was requested by a peer that already has it."""
    group = LockstepGroup(size)
    for count, (kind, who, pick) in enumerate(actions):
        name = group.names[who % size]
        wire = group.wire
        if kind == "submit":
            service = SERVICES[pick % len(SERVICES)]
            group.step(name, lambda p: p.submit(
                service, KIND_APP, "g", None, count, (name, count)
            ))
        elif kind == "hello":
            group.hello(name)
        elif kind == "tick":
            group.now += 1.0
            group.step(name, lambda p: p.periodic(group.now, 0.5))
        elif kind == "cut":
            group.check_cuts()
        elif kind == "settle":
            group.settle(2, hold_nacks=True)
        elif kind == "aim":
            # Faults aimed at the sequence ``name`` just trimmed: every
            # copy still in flight is lost, then a late duplicate and a
            # delayed NACK for it arrive from each peer.
            message = group.trimmed(name)
            if message is not None:
                sender = message.sender_daemon
                wire[:] = [item for item in wire if item[2] != message]
                for peer in group.names:
                    if peer != name:
                        group.arrive(sender, name, message)
                    if peer != sender:
                        group.arrive(peer, sender, Nack(
                            sender=peer, view_id=VIEW, target=sender,
                            missing=(message.seq,),
                        ))
        elif wire:
            index = pick % len(wire)
            if kind == "arrive":
                group.arrive(*wire.pop(index))
            elif kind == "drop":
                wire.pop(index)
            else:
                wire.append(wire[index])
    if heal:
        group.settle(40)
        sent = sum(p.send_seq for p in group.real.values())
        assert all(len(got) == sent for got in group.real_got.values())
        # Quiescent and acknowledged: nothing is retained any more.
        for pipeline in group.real.values():
            assert all(not peer.received for peer in pipeline.peers.values())
    group.check_cuts()
    group.flush_together(DataMessage.key)
    delivered_sets = [
        {m.key() for m in got} for got in group.real_got.values()
    ]
    assert all(s == delivered_sets[0] for s in delivered_sets)
