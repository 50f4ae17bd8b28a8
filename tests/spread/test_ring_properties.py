"""Property-based tests for the ring engine and multi-way partitions."""

from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.spread.messages import DataMessage, KIND_APP
from repro.spread.ring import RingPipeline, RingToken
from repro.types import ServiceType, ViewId

from tests.spread.conftest import Cluster, Lockstep

VIEW = ViewId(1, 1, "a")


def sequenced(global_seq, payload, service=ServiceType.AGREED):
    return DataMessage(
        sender_daemon="b", view_id=VIEW, seq=global_seq, lamport=global_seq,
        service=service, kind=KIND_APP, group="g", origin=None,
        origin_seq=global_seq, payload=payload,
    )


@settings(max_examples=50, deadline=None)
@given(order=st.permutations(list(range(10))))
def test_ring_delivery_order_invariant_under_arrival_order(order):
    """However sequenced broadcasts arrive, delivery is in global
    sequence order."""
    delivered = []
    pipeline = RingPipeline(
        VIEW, ("a", "b", "c"), "a", delivered.append,
        send=lambda d, p: None, schedule=lambda d, fn: None,
    )
    messages = [sequenced(i + 1, f"m{i + 1}") for i in range(10)]
    for index in order:
        pipeline.ingest(messages[index])
    assert [m.payload for m in delivered] == [f"m{i + 1}" for i in range(10)]


@settings(max_examples=30, deadline=None)
@given(
    order1=st.permutations(list(range(8))),
    order2=st.permutations(list(range(8))),
)
def test_two_ring_receivers_identical_sequences(order1, order2):
    out1, out2 = [], []
    p1 = RingPipeline(VIEW, ("a", "b", "c"), "a", out1.append,
                      send=lambda d, p: None, schedule=lambda d, fn: None)
    p2 = RingPipeline(VIEW, ("c", "b", "x"), "x", out2.append,
                      send=lambda d, p: None, schedule=lambda d, fn: None)
    messages = [sequenced(i + 1, f"m{i + 1}") for i in range(8)]
    for i in order1:
        p1.ingest(messages[i])
    for i in order2:
        p2.ingest(messages[i])
    assert [m.payload for m in out1] == [m.payload for m in out2]


@settings(max_examples=25, deadline=None)
@given(duplicates=st.lists(st.integers(0, 5), min_size=1, max_size=20))
def test_ring_duplicate_ingest_idempotent(duplicates):
    delivered = []
    pipeline = RingPipeline(
        VIEW, ("a", "b"), "a", delivered.append,
        send=lambda d, p: None, schedule=lambda d, fn: None,
    )
    messages = [sequenced(i + 1, f"m{i + 1}") for i in range(6)]
    for message in messages:
        pipeline.ingest(message)
    for index in duplicates:
        pipeline.ingest(messages[index])
    assert len(delivered) == 6


def test_ring_flush_with_gap_skips_lost_sequence():
    delivered = []
    pipeline = RingPipeline(
        VIEW, ("a", "b"), "a", delivered.append,
        send=lambda d, p: None, schedule=lambda d, fn: None,
    )
    pipeline.ingest(sequenced(1, "one"))
    pipeline.ingest(sequenced(3, "three"))  # 2 lost forever
    pipeline.flush_with([])
    assert [m.payload for m in delivered] == ["one", "three"]


# -- steady-state garbage collection ---------------------------------------------------


class UntrimmedRing(RingPipeline):
    """The reference model: the same engine, retaining everything."""

    def _trim(self):
        pass


class LockstepRing(Lockstep):
    """Ring-engine lock-step group, timer firings included: the only
    output the reference may add is a rebroadcast of a sequence every
    member already holds."""

    def __init__(self, size):
        self.real_timers, self.ref_timers = defaultdict(list), defaultdict(list)
        super().__init__(size)
        self.step("a", lambda p: p.start_token())

    def build(self, reference, name, deliver, send):
        cls = UntrimmedRing if reference else RingPipeline
        timers = (self.ref_timers if reference else self.real_timers)[name]
        return cls(
            VIEW, self.names, name, deliver, send=send,
            schedule=lambda delay, fn: timers.append(fn),
        )

    def check_redundant(self, name, destination, message):
        assert isinstance(message, DataMessage) and destination is None
        assert all(p.my_aru >= message.lamport for p in self.real.values())

    def step(self, name, call):
        super().step(name, call)
        assert len(self.real_timers[name]) == len(self.ref_timers[name])

    def fire(self, name, index):
        """One scheduled callback (idle-paced pass or token-loss check)
        comes due, in both worlds."""
        due = {
            id(self.real[name]): self.real_timers[name].pop(index),
            id(self.ref[name]): self.ref_timers[name].pop(index),
        }
        self.step(name, lambda p: due[id(p)]())

    def arrive(self, source, target, payload):
        if isinstance(payload, RingToken):
            trimmed = self.real[target]._trimmed
            for seq in payload.rtr:
                if seq <= trimmed:  # the request must be stale
                    assert self.real[source].my_aru >= seq
            self.step(target, lambda p: p.on_token(payload))
        else:
            self.step(target, lambda p: p.ingest(payload))

    def trimmed(self, name):
        """The message ``name`` dropped most recently, if any."""
        gone = self.ref[name].received.keys() - self.real[name].received.keys()
        return self.ref[name].received[max(gone)] if gone else None

    def settle(self, rounds):
        """Reliable rounds: the wire drains in order, then every due
        timer fires (each round moves the token at least one hop)."""
        for __ in range(rounds):
            while self.wire:
                self.arrive(*self.wire.pop(0))
            for n in self.names:
                for __ in range(len(self.real_timers[n])):
                    self.fire(n, 0)


ring_actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "submit", "arrive", "arrive", "arrive", "fire", "fire",
             "drop", "lose", "lose", "dup", "cut", "settle", "aim", "aim"]
        ),
        st.integers(0, 3),
        st.integers(0, 10_000),
    ),
    min_size=10,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(3, 4), actions=ring_actions, heal=st.booleans())
@example(
    # A broadcast misses one member, who asks for it through the token:
    # the holder that answers has delivered it but may not have let it go.
    size=3,
    actions=[("submit", 0, 0)] * 5 + [
        ("submit", 1, 0), ("fire", 0, 0), ("arrive", 0, 0), ("drop", 0, 0),
        ("settle", 0, 0),
    ],
    heal=False,
)
def test_ring_trimming_withholds_nothing(size, actions, heal):
    """Under loss, duplication, reordering and arbitrary timer firings
    the trimming ring delivers, cuts and flushes exactly like one that
    retains everything, and no live repair request names a sequence it
    has dropped."""
    group = LockstepRing(size)
    services = (ServiceType.AGREED, ServiceType.SAFE, ServiceType.FIFO)
    for count, (kind, who, pick) in enumerate(actions):
        name = group.names[who % size]
        wire = group.wire
        if kind == "submit":
            service = services[pick % len(services)]
            group.step(name, lambda p: p.submit(
                service, KIND_APP, "g", None, count, (name, count)
            ))
        elif kind == "fire":
            if group.real_timers[name]:
                group.fire(name, pick % len(group.real_timers[name]))
        elif kind == "cut":
            group.check_cuts()
        elif kind == "settle":
            group.settle(3 * size)
        elif kind == "aim":
            # Faults aimed at the sequence ``name`` just trimmed: every
            # copy still in flight is lost, and a late one reaches it.
            message = group.trimmed(name)
            if message is not None:
                wire[:] = [item for item in wire if item[2] != message]
                group.arrive(message.sender_daemon, name, message)
        elif kind == "lose":
            # A data broadcast (not the token) misses one member.
            data = [i for i in wire if isinstance(i[2], DataMessage)]
            if data:
                wire.remove(data[pick % len(data)])
        elif wire:
            index = pick % len(wire)
            if kind == "arrive":
                group.arrive(*wire.pop(index))
            elif kind == "drop":
                wire.pop(index)
            else:
                wire.append(wire[index])
    if heal:
        group.settle(12 * size)
        sent = sum(p.send_seq for p in group.real.values())
        assert all(len(got) == sent for got in group.real_got.values())
        # Quiescent and stable: nothing is retained any more.
        assert all(not p.received for p in group.real.values())
    group.check_cuts()
    group.flush_together(lambda m: m.lamport)


def test_singleton_ring_delivers_safe_and_retains_nothing():
    """Alone there is no token: our own aru is the stability line."""
    delivered = []
    pipeline = RingPipeline(VIEW, ("a",), "a", delivered.append)
    for i in range(50):
        pipeline.submit(ServiceType.SAFE, KIND_APP, "g", None, i, i)
    assert [m.payload for m in delivered] == list(range(50))
    assert pipeline.received == {}


# -- multi-way partitions over the full stack ----------------------------------------


def test_three_way_partition_and_full_merge():
    cluster = Cluster(daemon_count=5, seed=121)
    cluster.settle()
    cluster.network.partition([["d0", "d1"], ["d2", "d3"], ["d4"]])
    cluster.settle_components(["d0", "d1"], ["d2", "d3"], ["d4"], timeout=60)
    assert set(cluster.daemons["d0"].view_members) == {"d0", "d1"}
    assert set(cluster.daemons["d2"].view_members) == {"d2", "d3"}
    assert cluster.daemons["d4"].view_members == ("d4",)
    cluster.network.heal()
    cluster.settle(timeout=60)
    assert all(len(d.view_members) == 5 for d in cluster.alive_daemons())


def test_three_way_partition_with_ring_engine():
    cluster = Cluster(daemon_count=5, seed=123, ordering="ring")
    cluster.settle()
    cluster.network.partition([["d0"], ["d1", "d2"], ["d3", "d4"]])
    cluster.settle_components(["d0"], ["d1", "d2"], ["d3", "d4"], timeout=60)
    cluster.network.heal()
    cluster.settle(timeout=60)
    assert all(len(d.view_members) == 5 for d in cluster.alive_daemons())
