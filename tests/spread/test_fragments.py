"""Large-message fragmentation (SP_scat behaviour)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IllegalMessageError, IllegalServiceError, SpreadError
from repro.spread.config import SpreadConfig
from repro.spread.events import DataEvent
from repro.spread.fragments import MessageFragment, Reassembler, split_payload
from repro.types import ServiceType

from tests.spread.conftest import Cluster


# -- pure units --------------------------------------------------------------------


def test_split_exact_multiple():
    fragments = split_payload(b"abcdef", 2, fragment_id=1)
    assert [f.chunk for f in fragments] == [b"ab", b"cd", b"ef"]
    assert all(f.total == 3 for f in fragments)


def test_split_with_remainder():
    fragments = split_payload(b"abcdefg", 3, fragment_id=1)
    assert [f.chunk for f in fragments] == [b"abc", b"def", b"g"]


def test_split_empty_payload_single_fragment():
    fragments = split_payload(b"", 10, fragment_id=1)
    assert len(fragments) == 1
    assert fragments[0].chunk == b""


def test_split_rejects_bad_size():
    with pytest.raises(IllegalMessageError):
        split_payload(b"x", 0, fragment_id=1)


def test_reassembler_in_order():
    reassembler = Reassembler()
    fragments = split_payload(b"hello world", 4, fragment_id=7)
    result = None
    for fragment in fragments:
        result = reassembler.accept("#a#d0", fragment)
    assert result == b"hello world"
    assert reassembler.pending_count() == 0


def test_reassembler_interleaved_senders():
    reassembler = Reassembler()
    a_parts = split_payload(b"from-a!", 4, fragment_id=1)
    b_parts = split_payload(b"from-b?", 4, fragment_id=1)
    assert reassembler.accept("#a#d0", a_parts[0]) is None
    assert reassembler.accept("#b#d0", b_parts[0]) is None
    assert reassembler.accept("#a#d0", a_parts[1]) == b"from-a!"
    assert reassembler.accept("#b#d0", b_parts[1]) == b"from-b?"


def test_reassembler_rejects_malformed():
    reassembler = Reassembler()
    with pytest.raises(IllegalMessageError):
        reassembler.accept("#a#d0", MessageFragment(1, 5, 3, b"x"))


def test_reassembler_drop_sender():
    reassembler = Reassembler()
    parts = split_payload(b"abcdef", 2, fragment_id=1)
    reassembler.accept("#a#d0", parts[0])
    reassembler.drop_sender("#a#d0")
    assert reassembler.pending_count() == 0


@settings(max_examples=40, deadline=None)
@given(payload=st.binary(min_size=0, max_size=500),
       size=st.integers(min_value=1, max_value=64))
def test_split_reassemble_roundtrip(payload, size):
    reassembler = Reassembler()
    result = None
    for fragment in split_payload(payload, size, fragment_id=3):
        result = reassembler.accept("#x#d0", fragment)
    assert result == payload


# -- adversarial hardening ---------------------------------------------------------


def test_duplicate_fragment_is_idempotent_and_traced():
    from repro.sim.trace import Tracer

    tracer = Tracer()
    reassembler = Reassembler(tracer=tracer)
    parts = split_payload(b"abcdef", 2, fragment_id=1)
    assert reassembler.accept("#a#d0", parts[0]) is None
    assert reassembler.accept("#a#d0", parts[0]) is None  # re-delivery
    assert reassembler.duplicates_ignored == 1
    duplicates = tracer.of_kind("fragments.duplicate")
    assert len(duplicates) == 1
    assert duplicates[0]["sender"] == "#a#d0"
    assert duplicates[0]["index"] == 0
    # The message still completes normally afterwards.
    assert reassembler.accept("#a#d0", parts[1]) is None
    assert reassembler.accept("#a#d0", parts[2]) == b"abcdef"


def test_superseded_fragment_dropped_not_reopened():
    from repro.sim.trace import Tracer

    tracer = Tracer()
    reassembler = Reassembler(tracer=tracer)
    parts = split_payload(b"abcd", 2, fragment_id=3)
    for fragment in parts:
        reassembler.accept("#a#d0", fragment)
    # A straggler duplicate of the now-completed id must not reopen a
    # buffer that can never complete again.
    assert reassembler.accept("#a#d0", parts[0]) is None
    assert reassembler.pending_count() == 0
    assert reassembler.stale_dropped == 1
    stale = tracer.of_kind("fragments.stale_drop")
    assert len(stale) == 1
    assert stale[0]["fragment_id"] == 3
    assert stale[0]["completed_upto"] == 3
    # Fragments of an *older* id are equally superseded.
    old = split_payload(b"zz", 2, fragment_id=2)
    assert reassembler.accept("#a#d0", old[0]) is None
    assert reassembler.stale_dropped == 2


def test_conflicting_re_delivery_raises():
    reassembler = Reassembler()
    reassembler.accept("#a#d0", MessageFragment(1, 0, 2, b"aa"))
    with pytest.raises(IllegalMessageError, match="conflicting re-delivery"):
        reassembler.accept("#a#d0", MessageFragment(1, 0, 2, b"XX"))


def test_fragment_total_change_mid_message_raises():
    reassembler = Reassembler()
    reassembler.accept("#a#d0", MessageFragment(1, 0, 3, b"aa"))
    with pytest.raises(IllegalMessageError, match="total changed"):
        reassembler.accept("#a#d0", MessageFragment(1, 1, 2, b"bb"))


def test_drop_sender_resets_completed_watermark():
    """A departed sender's name may be reused by a fresh connection whose
    fragment ids restart at 1 — the watermark must not outlive them."""
    reassembler = Reassembler()
    for fragment in split_payload(b"abcd", 2, fragment_id=5):
        reassembler.accept("#a#d0", fragment)
    reassembler.drop_sender("#a#d0")
    result = None
    for fragment in split_payload(b"wxyz", 2, fragment_id=1):
        result = reassembler.accept("#a#d0", fragment)
    assert result == b"wxyz"


# -- zero-copy behaviour -----------------------------------------------------------


def test_split_payload_returns_memoryview_slices_without_copying():
    payload = b"abcdefgh" * 16
    fragments = split_payload(payload, 32, fragment_id=1)
    backing = None
    for fragment in fragments:
        assert isinstance(fragment.chunk, memoryview)
        if backing is None:
            backing = fragment.chunk.obj
        # Every chunk is a window onto the same buffer, not a copy.
        assert fragment.chunk.obj is backing
    assert b"".join(bytes(f.chunk) for f in fragments) == payload


def test_reassembler_bytes_copied_counts_payload_once():
    payload = bytes(range(256)) * 8  # 2048 bytes
    reassembler = Reassembler()
    result = None
    for fragment in split_payload(payload, 256, fragment_id=1):
        result = reassembler.accept("#a#d0", fragment)
    assert result == payload
    # Each payload byte is copied into the whole message exactly once.
    assert reassembler.bytes_copied == len(payload)


def test_reassembler_accepts_out_of_order_final_first():
    payload = b"0123456789abcdef!"
    fragments = split_payload(payload, 4, fragment_id=2)
    reassembler = Reassembler()
    result = None
    for fragment in [fragments[-1]] + fragments[:-1]:
        result = reassembler.accept("#a#d0", fragment)
    assert result == payload


def test_drop_sender_leaves_other_senders_partials():
    reassembler = Reassembler()
    a_parts = split_payload(b"abcdef", 2, fragment_id=1)
    b_parts = split_payload(b"uvwxyz", 2, fragment_id=1)
    reassembler.accept("#a#d0", a_parts[0])
    reassembler.accept("#b#d1", b_parts[0])
    reassembler.drop_sender("#a#d0")
    assert reassembler.pending_count() == 1
    reassembler.accept("#b#d1", b_parts[1])
    assert reassembler.accept("#b#d1", b_parts[2]) == b"uvwxyz"


def test_inconsistent_fragment_size_raises():
    cases = [
        # A short middle fragment.
        [MessageFragment(1, 0, 3, b"aaaa"), MessageFragment(1, 1, 3, b"bb")],
        # A final fragment longer than the common size would grow the
        # message; in either order.
        [MessageFragment(1, 0, 2, b"a" * 4),
         MessageFragment(1, 1, 2, b"b" * 10)],
        [MessageFragment(1, 1, 2, b"b" * 10),
         MessageFragment(1, 0, 2, b"a" * 4)],
    ]
    for *accepted, offending in cases:
        reassembler = Reassembler()
        for fragment in accepted:
            assert reassembler.accept("#a#d0", fragment) is None
        with pytest.raises(IllegalMessageError, match="size inconsistent"):
            reassembler.accept("#a#d0", offending)


def test_final_fragment_of_the_common_size_or_shorter_completes():
    for tail in (b"b" * 4, b"b"):
        for order in (0, 1):
            parts = [
                MessageFragment(1, 0, 2, b"a" * 4),
                MessageFragment(1, 1, 2, tail),
            ]
            reassembler = Reassembler()
            reassembler.accept("#a#d0", parts[order])
            whole = reassembler.accept("#a#d0", parts[1 - order])
            assert whole == b"a" * 4 + tail


# -- config --------------------------------------------------------------------------


def test_config_rejects_bad_max_message_size():
    with pytest.raises(SpreadError):
        SpreadConfig(daemons=("a",), max_message_size=0)


# -- full stack -------------------------------------------------------------------------


def big_payloads(client, group="g"):
    return [
        e.payload for e in client.queue
        if isinstance(e, DataEvent) and str(e.group) == group
        and isinstance(e.payload, bytes)
    ]


def test_large_message_transparently_fragmented():
    cluster = Cluster(daemon_count=3, seed=93, max_message_size=1024)
    cluster.settle()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run(1.0)
    blob = bytes(range(256)) * 40  # 10240 bytes -> 10 fragments
    a.multicast(ServiceType.AGREED, "g", blob)
    cluster.run_until(lambda: blob in big_payloads(b), timeout=60)
    # Delivered exactly once, fully reassembled.
    assert big_payloads(b).count(blob) == 1


def test_multiple_large_messages_keep_order():
    cluster = Cluster(daemon_count=3, seed=94, max_message_size=512)
    cluster.settle()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run(1.0)
    blobs = [bytes([i]) * 2000 for i in range(4)]
    for blob in blobs:
        a.multicast(ServiceType.FIFO, "g", blob)
    cluster.run_until(lambda: len(big_payloads(b)) == 4, timeout=60)
    assert big_payloads(b) == blobs


def test_small_messages_not_fragmented():
    cluster = Cluster(daemon_count=3, seed=95, max_message_size=1024)
    cluster.settle()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run(1.0)
    a.multicast(ServiceType.AGREED, "g", b"small")
    cluster.run_until(lambda: b"small" in big_payloads(b), timeout=60)


def test_unreliable_large_message_rejected():
    cluster = Cluster(daemon_count=3, seed=96, max_message_size=64)
    cluster.settle()
    a = cluster.client("a", "d0")
    a.join("g")
    cluster.run(0.5)
    with pytest.raises(IllegalServiceError):
        a.multicast(ServiceType.UNRELIABLE, "g", b"x" * 1000)
