"""Wire-format properties: framing survives arbitrary TCP chunking.

TCP is a byte stream — the decoder must produce the identical envelope
sequence no matter where the stream is cut.  Hypothesis drives the cut
points; the malformed-input tests cover every rejection path of the
header (magic, version, size, checksum, kind/type agreement).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, WireVersionError
from repro.spread.fragments import MessageFragment
from repro.spread.messages import DataMessage, Hello, Nack, Packed
from repro.transport.protocol import (
    ClientConnect,
    ClientDeliver,
    ClientMulticast,
    ClientMulticastBatch,
    PeerHello,
)
from repro.transport.wire import (
    HEADER_SIZE,
    FrameDecoder,
    decode_frame,
    encode_frame,
    kind_code,
    kind_name,
)
from repro.types import ProcessId, ServiceType, ViewId


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
)
def test_any_envelope_stream_survives_arbitrary_chunking(order, cuts):
    envelopes = [sample_envelopes()[i] for i in order]
    stream = b"".join(encode_frame(e) for e in envelopes)
    decoder = FrameDecoder()
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
