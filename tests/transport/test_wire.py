"""Wire-format properties: framing survives arbitrary TCP chunking.

TCP is a byte stream — the decoder must produce the identical envelope
sequence no matter where the stream is cut, tagged or not, with or
without out-of-band fragment buffers.  Hypothesis drives the cut
points; the malformed-input tests cover every rejection path of the
header (magic, version, size, checksum, kind/type agreement), and the
buffer tests pin that a keyed frame's tag covers every byte and that a
forwarded chunk is not hashed again.
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.transport.auth as auth_module
import repro.transport.wire as wire_module
from repro.errors import FrameError, WireVersionError
from repro.spread.events import DataEvent
from repro.spread.fragments import MessageFragment, split_payload
from repro.spread.messages import DataMessage, Hello, Nack, Packed
from repro.transport.auth import FrameAuth, VerifiedBuffer
from repro.transport.protocol import (
    ClientConnect,
    ClientDeliver,
    ClientMulticast,
    ClientMulticastBatch,
    PeerHello,
)
from repro.transport.wire import (
    FLAG_BUFFERS,
    HEADER,
    HEADER_SIZE,
    FrameDecoder,
    decode_frame,
    encode_frame,
    kind_code,
    kind_name,
)
from repro.types import ProcessId, ServiceType, ViewId

KEY = FrameAuth(bytes(range(32)))


def sample_envelopes():
    """One representative of each interesting wire shape."""
    pid = ProcessId(private_name="m0", daemon="d0")
    view = ViewId(epoch=1, counter=1, coordinator="d0")
    data = DataMessage(
        sender_daemon="d0",
        view_id=view,
        seq=7,
        lamport=11,
        service=ServiceType.AGREED,
        kind="app",
        group="g",
        origin=pid,
        origin_seq=3,
        payload=b"x" * 50,
    )
    train = split_payload(bytes(range(200)), 80, fragment_id=4)
    return [
        data,
        Packed(sender="d0", view_id=view, messages=(data, data)),
        Hello(sender="d1", view_id=view, lamport=5, all_received=2,
              incarnation=1, sent_seq=7),
        Nack(sender="d2", view_id=view, target="d0", missing=(1, 2)),
        PeerHello("d0"),
        ClientConnect("m0"),
        ClientMulticastBatch(
            (ClientMulticast(pid, ServiceType.SAFE, "g", b"payload", 9),)
        ),
        ClientDeliver(("opaque", ["python", "object"])),
        ClientMulticastBatch((
            ClientMulticast(pid, ServiceType.FIFO, "g", b"first", 10),
            ClientMulticast(
                pid,
                ServiceType.FIFO,
                "g",
                MessageFragment(fragment_id=1, index=0, total=2, chunk=b"c" * 30),
                11,
            ),
        )),
        {"plain": "pyobj fallback"},
        # The client's zero-copy split: a memoryview chunk goes out of band.
        train[1],
        # Two fragments, so two buffers, behind one envelope.
        Packed(sender="d0", view_id=view, messages=tuple(
            DataMessage(
                sender_daemon="d0", view_id=view, seq=8 + i, lamport=12 + i,
                service=ServiceType.FIFO, kind="app", group="g",
                origin=pid, origin_seq=4 + i, payload=fragment,
            )
            for i, fragment in enumerate(train[:2])
        )),
    ]


def chunking(data: bytes, cuts):
    """Split ``data`` at the (sorted, de-duplicated) cut offsets."""
    offsets = sorted({c % (len(data) + 1) for c in cuts})
    pieces, last = [], 0
    for offset in offsets:
        pieces.append(data[last:offset])
        last = offset
    pieces.append(data[last:])
    return [p for p in pieces if p]


def roundtrip_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    try:
        if a == b:
            return True
    except Exception:
        pass
    return repr(a) == repr(b)


@settings(max_examples=60, deadline=None)
@given(
    order=st.lists(st.integers(0, len(sample_envelopes()) - 1), min_size=1, max_size=6),
    cuts=st.lists(st.integers(0, 10_000), max_size=24),
    auth=st.sampled_from([None, KEY]),
)
def test_any_envelope_stream_survives_arbitrary_chunking(order, cuts, auth):
    envelopes = [sample_envelopes()[i] for i in order]
    stream = b"".join(encode_frame(e, auth=auth) for e in envelopes)
    decoder = FrameDecoder(auth=auth)
    out = []
    for piece in chunking(stream, cuts):
        out.extend(decoder.feed(piece))
    assert len(out) == len(envelopes)
    for sent, received in zip(envelopes, out):
        assert type(received) is type(sent)
        assert roundtrip_equal(sent, received)
    assert decoder.pending == 0
    assert decoder.frames_decoded == len(envelopes)
    assert decoder.bytes_fed == len(stream)


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(0, len(sample_envelopes()) - 1),
    drop=st.integers(1, 64),
)
def test_truncated_frame_is_held_not_misdecoded(index, drop):
    frame = encode_frame(sample_envelopes()[index])
    cut = max(0, len(frame) - drop)
    decoder = FrameDecoder()
    assert decoder.feed(frame[:cut]) == []
    assert decoder.pending == cut
    # The rest completes it.
    assert len(decoder.feed(frame[cut:])) == 1


def test_single_frame_decode_roundtrip():
    for envelope in sample_envelopes():
        frame = encode_frame(envelope)
        assert type(decode_frame(frame)) is type(envelope)


def test_decode_frame_rejects_trailing_garbage():
    frame = encode_frame(PeerHello("d0"))
    with pytest.raises(FrameError):
        decode_frame(frame + b"\x00")


def test_bad_magic_rejected():
    frame = bytearray(encode_frame(PeerHello("d0")))
    frame[0] ^= 0xFF
    with pytest.raises(FrameError):
        FrameDecoder().feed(bytes(frame))


def test_bad_version_rejected():
    frame = bytearray(encode_frame(PeerHello("d0")))
    frame[1] += 1
    with pytest.raises(WireVersionError):
        FrameDecoder().feed(bytes(frame))


def test_unknown_flag_bits_rejected():
    frame = bytearray(encode_frame(PeerHello("d0")))
    frame[2] |= 0x80
    with pytest.raises(FrameError):
        FrameDecoder().feed(bytes(frame))


def test_checksum_mismatch_rejected():
    frame = bytearray(encode_frame(PeerHello("d0")))
    frame[-1] ^= 0x01  # flip a body byte; CRC no longer matches
    with pytest.raises(FrameError):
        FrameDecoder().feed(bytes(frame))


def test_kind_type_disagreement_rejected():
    # Rewrite the header's kind field (CRC covers the body only, so
    # the frame is otherwise valid) — decode must notice the envelope
    # type does not match the declared kind.
    frame = bytearray(encode_frame(PeerHello("d0")))
    wrong = kind_code(ClientConnect("x"))
    frame[3:5] = wrong.to_bytes(2, "big")
    with pytest.raises(FrameError):
        FrameDecoder().feed(bytes(frame))


def test_oversized_frame_rejected_at_encode_and_decode():
    big = b"x" * 4096
    with pytest.raises(FrameError):
        encode_frame(big, max_frame=1024)
    frame = encode_frame(big)  # fine under the default limit
    decoder = FrameDecoder(max_frame=1024)
    with pytest.raises(FrameError):
        # Rejected from the header alone: the body never needs to arrive.
        decoder.feed(frame[:HEADER_SIZE])


def test_kind_registry_is_stable():
    # Wire compatibility: these code assignments are part of the
    # protocol; changing them breaks mixed-version deployments.
    data = sample_envelopes()[0]
    assert kind_code(data) == 1
    assert kind_code(sample_envelopes()[1]) == 2
    assert kind_code(PeerHello("d")) == 16
    assert kind_code(ClientConnect("m")) == 32
    # The batch replaced the single multicast under its code; a bare
    # ClientMulticast is no frame of its own any more.
    assert kind_code(ClientMulticastBatch(())) == 37
    assert kind_code(sample_envelopes()[6].multicasts[0]) == 0
    assert kind_code({"anything": "else"}) == 0
    assert kind_name(0) == "pyobj"


def test_a_frame_without_buffers_carries_the_plain_pickle():
    envelope = PeerHello("d0")
    frame = encode_frame(envelope)
    assert not frame[2] & FLAG_BUFFERS
    assert frame[HEADER_SIZE:] == pickle.dumps(envelope, protocol=5)


def test_fragment_pickle_roundtrip_materialises_bytes():
    fragment = split_payload(b"abcdef" * 10, 16, fragment_id=9)[1]
    assert isinstance(fragment.chunk, memoryview)
    for auth in (None, KEY):
        frame = encode_frame(fragment, auth=auth)
        assert frame[2] & FLAG_BUFFERS
        # The chunk is not inside the pickled envelope.
        assert frame.count(bytes(fragment.chunk)) == 1
        assert frame.endswith(bytes(fragment.chunk))
        clone = decode_frame(frame, auth=auth)
        assert isinstance(clone.chunk, bytes)
        assert clone.chunk == bytes(fragment.chunk)
        assert (clone.fragment_id, clone.index, clone.total) == (
            fragment.fragment_id, fragment.index, fragment.total)


def test_keyed_frame_crc_field_is_zero_and_untagged_frame_keeps_it():
    envelope = sample_envelopes()[-1]
    for auth, expect_crc in ((KEY, False), (None, True)):
        crc = HEADER.unpack_from(encode_frame(envelope, auth=auth))[-1]
        assert (crc != 0) is expect_crc


def test_any_flipped_byte_of_a_keyed_buffer_frame_dies_before_unpickling(
    monkeypatch,
):
    loads = []
    real = wire_module.restricted_loads
    monkeypatch.setattr(
        wire_module, "restricted_loads",
        lambda *args: loads.append(args) or real(*args),
    )
    envelope = sample_envelopes()[-1]
    frame = encode_frame(envelope, auth=KEY)
    assert frame[2] & FLAG_BUFFERS
    assert decode_frame(frame, auth=KEY) == envelope
    assert len(loads) == 1
    loads.clear()
    # Every region: header, tag, buffer section, envelope, buffers.
    for position in range(len(frame)):
        for mask in (0x01, 0x80):
            mutated = bytearray(frame)
            mutated[position] ^= mask
            with pytest.raises(FrameError):
                decode_frame(bytes(mutated), auth=KEY)
    assert loads == []


def test_a_forwarded_chunk_is_hashed_once_per_receiver(monkeypatch):
    hashed = []

    def counting_sha256(data=b""):
        hashed.append(len(data))
        return hashlib.sha256(data)

    monkeypatch.setattr(auth_module, "sha256", counting_sha256)
    pid = ProcessId(private_name="m0", daemon="d0")
    view = ViewId(epoch=1, counter=1, coordinator="d0")
    payload = bytes(range(256)) * 64
    fragment = split_payload(payload, 4096, fragment_id=1)[2]

    def hop(envelope):
        """Hashes at the sender, hashes at the receiver, what arrived."""
        before = len(hashed)
        frame = encode_frame(envelope, auth=KEY)
        sent = len(hashed)
        received = decode_frame(frame, auth=KEY)
        return sent - before, len(hashed) - sent, received

    # Client -> daemon: the sender hashes its memoryview chunk, the
    # receiver hashes what arrived.
    sent, received_hashes, batch = hop(ClientMulticastBatch(
        (ClientMulticast(pid, ServiceType.FIFO, "g", fragment, 1),)
    ))
    assert (sent, received_hashes) == (1, 1)
    arrived = batch.multicasts[0].payload
    assert type(arrived.chunk) is VerifiedBuffer
    # Daemon -> peer daemon -> client: forwarding senders reuse the
    # digest; each receiver hashes once.
    sent, received_hashes, data = hop(DataMessage(
        sender_daemon="d0", view_id=view, seq=1, lamport=1,
        service=ServiceType.FIFO, kind="app", group="g", origin=pid,
        origin_seq=1, payload=arrived,
    ))
    assert (sent, received_hashes) == (0, 1)
    sent, received_hashes, deliver = hop(ClientDeliver(DataEvent(
        group="g", sender=pid, service=ServiceType.FIFO,
        payload=data.payload, seq=1,
    )))
    assert (sent, received_hashes) == (0, 1)
    assert deliver.event.payload == fragment
    # One sender and three receivers, over three hops.
    assert hashed == [len(fragment.chunk)] * 4
    # A slice of a verified buffer, or bytes the caller built, is hashed
    # again at the sender.
    chunk = deliver.event.payload.chunk
    for rebuilt in (chunk[:100], bytes(chunk), memoryview(chunk)):
        hashed.clear()
        encode_frame(MessageFragment(1, 0, 2, rebuilt), auth=KEY)
        assert hashed == [len(rebuilt)]


# Frames encoded by wire version 2: ClientConnect("m0"), untagged and
# tagged under the key bytes(range(32)).
V2_FRAMES = (
    (None, "c50200002000000045c481f4d98005953a000000000000008c18726570726f2e"
           "7472616e73706f72742e70726f746f636f6c948c0d436c69656e74436f6e6e65"
           "6374949394298194" "5d948c026d309461622e"),
    (KEY, "c50201002000000045c481f4d9214a865d35f16736a8afc57c68c6194b733b64"
          "2b7a6ae6d93aaa7e157b8e93bf8005953a000000000000008c18726570726f2e"
          "7472616e73706f72742e70726f746f636f6c948c0d436c69656e74436f6e6e65"
          "63749493942981945d948c026d309461622e"),
)


@pytest.mark.parametrize("auth,frame", V2_FRAMES, ids=["untagged", "tagged"])
def test_a_version2_frame_is_rejected_and_counted(auth, frame):
    counters = {"stale_version_rejects": 0}
    decoder = FrameDecoder(auth=auth, counters=counters)
    with pytest.raises(WireVersionError):
        decoder.feed(bytes.fromhex(frame))
    assert counters["stale_version_rejects"] == 1
