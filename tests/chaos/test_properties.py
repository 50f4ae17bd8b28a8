"""Property-based robustness tests (hypothesis).

Three contracts the crucible depends on, stated as properties:

* per-sender FIFO survives duplication, reordering, delay spikes and
  payload corruption — order and count are exact, payload damage is at
  most the single flipped bit the link model injects;
* a corrupted sealed message never opens: the HMAC layer rejects it and
  the error carries no plaintext;
* ``FaultSchedule.describe()`` reports actions sorted by time no matter
  the insertion order.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.kdf import derive_keys
from repro.crypto.random_source import DeterministicSource
from repro.errors import IntegrityError
from repro.net.corrupt import corrupt_payload
from repro.net.fault import FaultSchedule
from repro.net.link import LinkModel
from repro.secure.dataprotect import DataProtector, SealedMessage
from repro.sim.rng import DeterministicRng
from repro.spread.events import DataEvent
from repro.types import ServiceType

from tests.spread.conftest import Cluster

#: High-rate adversarial link for the FIFO property: everything except
#: loss (loss is repaired by NACKs but lengthens runs unboundedly).
_ADVERSARIAL = LinkModel(
    base_latency=0.0005,
    duplicate_rate=0.3,
    reorder_rate=0.3,
    reorder_window=0.02,
    corrupt_rate=0.2,
    spike_rate=0.1,
    spike_delay=0.05,
)


def _payloads(client, group="g"):
    return [
        e.payload
        for e in client.queue
        if isinstance(e, DataEvent)
        and str(e.group) == group
        and isinstance(e.payload, bytes)
    ]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       count=st.integers(min_value=1, max_value=10))
def test_fifo_per_sender_under_duplication_reorder_and_corruption(seed, count):
    cluster = Cluster(daemon_count=2, seed=seed)
    cluster.settle()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run(1.0)
    cluster.network.set_default_link(_ADVERSARIAL)
    # Each payload is 32 copies of its index byte: a single flipped bit
    # damages one byte, so the majority byte still identifies the send.
    for index in range(count):
        a.multicast(ServiceType.FIFO, "g", bytes([index]) * 32)
    cluster.run_until(lambda: len(_payloads(b)) >= count, timeout=120)
    received = _payloads(b)
    # Duplicates are absorbed by the pipeline: exactly one delivery each.
    assert len(received) == count
    identified = [Counter(p).most_common(1)[0][0] for p in received]
    assert identified == list(range(count))  # FIFO order, no gaps
    for index, payload in enumerate(received):
        damage = sum(
            bin(byte ^ index).count("1") for byte in payload
        )
        assert damage <= 1  # at most the link's single flipped bit


@settings(max_examples=50, deadline=None)
@given(plaintext=st.binary(min_size=0, max_size=200),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_corrupted_sealed_message_never_opens(plaintext, seed):
    keys = derive_keys(0x5EC1E7, "g", epoch=1)
    protector = DataProtector(keys, epoch_label="g|v1|0")
    sealed = protector.seal("g", "#m0#d0", plaintext, DeterministicSource(seed))
    damaged = corrupt_payload(sealed, DeterministicRng(seed, label="corrupt"))
    # Byte-carrying payloads stay structurally valid (that is the threat:
    # damage must travel all the way to the MAC, not die in parsing)...
    assert isinstance(damaged, SealedMessage)
    assert (damaged.ciphertext, damaged.tag) != (sealed.ciphertext, sealed.tag)
    # ...and the MAC rejects it without leaking the plaintext.
    with pytest.raises(IntegrityError) as excinfo:
        protector.unseal((damaged,))
    if len(plaintext) >= 4:
        assert plaintext not in str(excinfo.value).encode()
    # The pristine copy still opens: corruption never mutates the sender
    # side (retransmission buffers hold clean bits).
    assert protector.unseal((sealed,)) == [plaintext]


@settings(max_examples=50, deadline=None)
@given(times=st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=20,
))
def test_fault_schedule_describe_sorted_by_time(times):
    schedule = FaultSchedule()
    builders = (
        lambda t: schedule.stall(t, "d0"),
        lambda t: schedule.crash(t, "d1"),
        lambda t: schedule.heal(t),
        lambda t: schedule.partition(t, [["d0"], ["d1"]]),
        lambda t: schedule.sever(t, ["d0"], ["d1"]),
        lambda t: schedule.set_link(t, LinkModel.chaotic()),
    )
    for index, at in enumerate(times):
        builders[index % len(builders)](at)
    described = schedule.describe()
    assert len(described) == len(times)
    stamps = [float(line.split(":", 1)[0][2:]) for line in described]
    assert stamps == sorted(stamps)
    # describe() is an observation, not a mutation: insertion order of
    # the underlying actions is untouched.
    assert [a.at for a in schedule.actions] == times
