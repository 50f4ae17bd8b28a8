"""Frame authentication and the restricted unpickler
(:mod:`repro.transport.auth`).

The edges an attacker actually probes: tampered bodies and headers,
truncated or forged tags, replayed version-1 frames, mismatched keys —
every one must die at the decoder with the right
:class:`~repro.errors.FrameError` subclass and the right reject
counter, before a single body byte reaches the unpickler.  And the
unpickler itself is restricted: every registered wire kind round-trips,
everything outside the allowlist raises.
"""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.errors import (
    FrameAuthError,
    FrameError,
    RestrictedUnpickleError,
    WireVersionError,
)
from repro.transport.auth import (
    AUTH_DISABLED,
    GENERATED_KEY_BYTES,
    KEYFILE_ENV,
    MIN_KEY_BYTES,
    TAG_SIZE,
    FrameAuth,
    generate_keyfile,
    load_keyfile,
    main as auth_main,
    resolve_auth,
    restricted_loads,
)
from repro.transport.wire import (
    FLAG_AUTH,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    FrameDecoder,
    encode_frame,
)

KEY_A = FrameAuth(b"a" * 32)
KEY_B = FrameAuth(b"b" * 32)


def fresh_counters() -> dict:
    return {
        "stale_version_rejects": 0,
        "auth_bad_mac": 0,
        "auth_missing_tag": 0,
        "auth_unexpected_tag": 0,
        "restricted_unpickle_rejects": 0,
    }


# -- tag verification edges ---------------------------------------------------


def test_authenticated_round_trip():
    frame = encode_frame((1, b"payload"), auth=KEY_A)
    decoder = FrameDecoder(auth=KEY_A)
    assert decoder.feed(frame) == [(1, b"payload")]
    assert decoder.pending == 0


def test_tampered_body_is_rejected_with_bad_mac():
    frame = bytearray(encode_frame(b"payload", auth=KEY_A))
    frame[-1] ^= 0x01  # flip one body byte: the tag is a tagged frame's
    counters = fresh_counters()  # only integrity check
    decoder = FrameDecoder(auth=KEY_A, counters=counters)
    with pytest.raises(FrameAuthError):
        decoder.feed(bytes(frame))
    assert counters["auth_bad_mac"] == 1


def test_tampered_header_is_rejected_with_bad_mac():
    # The tag covers the header too: rewriting the kind code must fail
    # verification.
    frame = bytearray(encode_frame(b"payload", auth=KEY_A))
    frame[4] ^= 0x01  # low byte of the 2-byte kind field
    counters = fresh_counters()
    decoder = FrameDecoder(auth=KEY_A, counters=counters)
    with pytest.raises(FrameAuthError):
        decoder.feed(bytes(frame))
    assert counters["auth_bad_mac"] == 1


def test_forged_tag_is_rejected():
    frame = bytearray(encode_frame(b"payload", auth=KEY_A))
    frame[HEADER_SIZE] ^= 0xFF  # first tag byte
    decoder = FrameDecoder(auth=KEY_A)
    with pytest.raises(FrameAuthError):
        decoder.feed(bytes(frame))


def test_truncated_tag_stays_pending_then_fails_closed():
    # Dropping a tag byte shifts the stream: the decoder waits for the
    # declared total, and whatever completes it cannot verify.
    frame = encode_frame(b"payload", auth=KEY_A)
    decoder = FrameDecoder(auth=KEY_A)
    assert decoder.feed(frame[:-1]) == []  # incomplete: nothing emitted
    assert decoder.pending == len(frame) - 1
    with pytest.raises(FrameAuthError):
        decoder.feed(b"\x00")


def test_wrong_key_deployment_is_rejected():
    frame = encode_frame(b"payload", auth=KEY_A)
    counters = fresh_counters()
    decoder = FrameDecoder(auth=KEY_B, counters=counters)
    with pytest.raises(FrameAuthError):
        decoder.feed(frame)
    assert counters["auth_bad_mac"] == 1


def test_untagged_frame_at_authenticating_endpoint():
    frame = encode_frame(b"payload")  # no auth
    counters = fresh_counters()
    decoder = FrameDecoder(auth=KEY_A, counters=counters)
    with pytest.raises(FrameAuthError):
        decoder.feed(frame)
    assert counters["auth_missing_tag"] == 1


def test_tagged_frame_at_plain_endpoint():
    frame = encode_frame(b"payload", auth=KEY_A)
    counters = fresh_counters()
    decoder = FrameDecoder(counters=counters)
    with pytest.raises(FrameAuthError):
        decoder.feed(frame)
    assert counters["auth_unexpected_tag"] == 1


def test_replayed_version1_frame_is_rejected_before_parsing():
    # A wire-v1 frame: 12-byte >BBHII header, no flags byte, no tag.
    # Version is checked before any other field, so the v1 layout can
    # never be misparsed — even though its kind/length bytes land where
    # v3 expects flags/kind.
    body = pickle.dumps(b"replayed")
    v1 = struct.Struct(">BBHII").pack(MAGIC, 1, 1, len(body), 0) + body
    counters = fresh_counters()
    decoder = FrameDecoder(auth=KEY_A, counters=counters)
    with pytest.raises(WireVersionError):
        decoder.feed(v1)
    assert counters["stale_version_rejects"] == 1


def test_tag_is_exactly_hmac_sha256_of_header_and_body():
    import hashlib
    import hmac as stdlib_hmac

    frame = encode_frame(b"payload", auth=KEY_A)
    header = frame[:HEADER_SIZE]
    tag = frame[HEADER_SIZE : HEADER_SIZE + TAG_SIZE]
    body = frame[HEADER_SIZE + TAG_SIZE :]
    assert header[2] & FLAG_AUTH
    expected = stdlib_hmac.new(b"a" * 32, header + body, hashlib.sha256)
    assert tag == expected.digest()


# -- key files and resolution -------------------------------------------------


def test_generate_and_load_keyfile(tmp_path):
    path = tmp_path / "deploy.key"
    generate_keyfile(path)
    assert path.stat().st_mode & 0o777 == 0o600
    key = load_keyfile(path)
    assert len(key) == GENERATED_KEY_BYTES
    # Same file, same key; two files, different keys.
    assert load_keyfile(path) == key
    other = tmp_path / "other.key"
    generate_keyfile(other)
    assert load_keyfile(other) != key


def test_generate_refuses_overwrite_without_force(tmp_path):
    path = tmp_path / "deploy.key"
    generate_keyfile(path)
    key = load_keyfile(path)
    with pytest.raises(FrameAuthError):
        generate_keyfile(path)
    generate_keyfile(path, force=True)
    assert load_keyfile(path) != key


def test_keyfile_is_whitespace_tolerant_hex(tmp_path):
    path = tmp_path / "deploy.key"
    path.write_text("  " + ("ab" * MIN_KEY_BYTES) + "\n\n")
    assert load_keyfile(path) == b"\xab" * MIN_KEY_BYTES


@pytest.mark.parametrize(
    "content", ["", "zz" * 16, "ab" * (MIN_KEY_BYTES - 1), "abc"]
)
def test_bad_keyfiles_are_refused(tmp_path, content):
    path = tmp_path / "deploy.key"
    path.write_text(content)
    with pytest.raises(FrameAuthError):
        load_keyfile(path)


def test_missing_keyfile_is_refused(tmp_path):
    with pytest.raises(FrameAuthError):
        load_keyfile(tmp_path / "nope.key")


def test_resolve_auth(tmp_path, monkeypatch):
    path = tmp_path / "deploy.key"
    generate_keyfile(path)
    monkeypatch.delenv(KEYFILE_ENV, raising=False)
    assert resolve_auth(None) is None
    assert resolve_auth(AUTH_DISABLED) is None
    assert isinstance(resolve_auth(str(path)), FrameAuth)
    assert isinstance(resolve_auth(path), FrameAuth)
    monkeypatch.setenv(KEYFILE_ENV, str(path))
    env_auth = resolve_auth(None)
    assert isinstance(env_auth, FrameAuth)
    # Explicit opt-out beats the environment.
    assert resolve_auth(AUTH_DISABLED) is None
    # Pass-through of an already-resolved FrameAuth.
    assert resolve_auth(env_auth) is env_auth


def test_key_ids_fingerprint_the_key(tmp_path):
    assert KEY_A.key_id != KEY_B.key_id
    assert FrameAuth(b"a" * 32).key_id == KEY_A.key_id


def test_auth_cli_generate_and_fingerprint(tmp_path, capsys):
    path = tmp_path / "cli.key"
    assert auth_main(["generate", str(path)]) == 0
    assert auth_main(["fingerprint", str(path)]) == 0
    out = capsys.readouterr().out
    assert FrameAuth(load_keyfile(path)).key_id in out
    assert auth_main(["generate", str(path)]) != 0  # no --force


# -- the restricted unpickler -------------------------------------------------


def _sample_wire_payloads():
    """One instance of every registered wire kind (and the common
    nested payloads), built the way the live stack builds them."""
    from repro.spread.fragments import MessageFragment
    from repro.spread.messages import (
        DataMessage,
        GatherAnnounce,
        Hello,
        Install,
        Nack,
        Packed,
        Propose,
        SyncInfo,
    )
    from repro.spread.ring import RingToken
    from repro.transport.protocol import (
        ClientBye,
        ClientConnect,
        ClientDeliver,
        ClientDisconnect,
        ClientJoin,
        ClientLeave,
        ClientMulticast,
        ClientMulticastBatch,
        ClientRefused,
        ClientWelcome,
        PeerHello,
    )
    from repro.types import ProcessId, ServiceType, ViewId

    view = ViewId(epoch=1, counter=2, coordinator="d0")
    pid = ProcessId.parse("#m0#d0")
    data = DataMessage(
        sender_daemon="d0",
        view_id=view,
        seq=7,
        lamport=9,
        service=ServiceType.AGREED,
        kind="data",
        group="g",
        origin=pid,
        origin_seq=3,
        payload=b"\x00\x01",
        causal_vector=(("d0", 1),),
    )
    return [
        data,
        Packed(sender="d0", view_id=view, messages=(data,)),
        Hello(
            sender="d0", view_id=view, lamport=1, all_received=0,
            incarnation=1, sent_seq=4,
        ),
        Nack(sender="d0", view_id=view, target="d1", missing=(1, 2)),
        GatherAnnounce(
            sender="d0", round_id=1, alive=frozenset({"d0"}),
            view_id=view, incarnation=1,
        ),
        Propose(
            coordinator="d0", round_id=1, new_view=view, members=("d0",),
        ),
        SyncInfo(
            sender="d0", round_id=1, new_view=view, old_view=view,
            undelivered=(data,), delivered_ts=1,
            delivered_fifo={"d0": 1}, groups={"g": ("#m0#d0",)}, lamport=2,
        ),
        Install(
            coordinator="d0", round_id=1, new_view=view, members=("d0",),
            complements={view: (data,)}, synced={view: ("d0",)},
            groups={"g": ("#m0#d0",)}, start_lamport=2,
        ),
        RingToken(view_id=view, round=1, seq=2, aru={"d0": 1}, rtr=(3,)),
        MessageFragment(fragment_id=1, index=0, total=2, chunk=b"frag"),
        PeerHello(sender="d0"),
        ClientConnect(private_name="m0"),
        ClientWelcome(pid=pid, max_message_size=1 << 20, daemons=("d0",)),
        ClientRefused(reason="dup"),
        ClientJoin(pid=pid, group="g"),
        ClientLeave(pid=pid, group="g"),
        ClientMulticastBatch(multicasts=(
            ClientMulticast(
                pid=pid, service=ServiceType.AGREED, group="g",
                payload=b"body", origin_seq=1,
            ),
            ClientMulticast(
                pid=pid, service=ServiceType.FIFO, group="g",
                payload=b"next", origin_seq=2,
            ),
        )),
        ClientDisconnect(private_name="m0"),
        ClientDeliver(event=data),
        ClientBye(),
    ]


def test_every_registered_wire_kind_survives_restricted_loads():
    from repro.transport.wire import _tables

    samples = _sample_wire_payloads()
    codes, __ = _tables()
    covered = {type(s) for s in samples}
    assert covered >= set(codes), (
        "sample list out of date; missing: "
        f"{set(codes) - covered}"
    )
    for sample in samples:
        blob = pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL)
        assert restricted_loads(blob) == sample


def test_registered_kinds_round_trip_through_authenticated_frames():
    for sample in _sample_wire_payloads():
        frame = encode_frame(sample, auth=KEY_A)
        assert FrameDecoder(auth=KEY_A).feed(frame) == [sample]


def test_restricted_loads_accepts_safe_builtins():
    for value in ({1, 2}, frozenset({3}), bytearray(b"x"), 1 + 2j):
        assert restricted_loads(pickle.dumps(value)) == value


def test_restricted_loads_rejects_arbitrary_callables():
    import os

    class Evil:
        def __reduce__(self):
            return (os.system, ("true",))

    blob = pickle.dumps(Evil())
    with pytest.raises(RestrictedUnpickleError):
        restricted_loads(blob)


def test_restricted_loads_rejects_unlisted_project_classes():
    # A perfectly honest repro class that is not wire-registered must
    # still be refused: the allowlist is modules that cross the wire,
    # not "anything in the package".
    from repro.spread.config import SpreadConfig

    blob = pickle.dumps(SpreadConfig(daemons=("d0",)))
    with pytest.raises(RestrictedUnpickleError):
        restricted_loads(blob)


def test_decoder_counts_restricted_unpickle_rejects():
    import os

    class Evil:
        def __reduce__(self):
            return (os.getcwd, ())

    counters = fresh_counters()
    decoder = FrameDecoder(auth=KEY_A, counters=counters)
    with pytest.raises(RestrictedUnpickleError):
        decoder.feed(encode_frame(Evil(), auth=KEY_A))
    assert counters["restricted_unpickle_rejects"] == 1


@pytest.mark.parametrize("name", ["os.path", "builtins.eval", "builtins.exec"])
def test_restricted_loads_rejects_dangerous_globals(name):
    module, attr = name.rsplit(".", 1)
    blob = (
        b"\x80\x04\x95"
        + (len(module) + len(attr) + 10).to_bytes(8, "little")
        + b"\x8c" + bytes([len(module)]) + module.encode()
        + b"\x8c" + bytes([len(attr)]) + attr.encode()
        + b"\x93."
    )
    with pytest.raises((RestrictedUnpickleError, pickle.UnpicklingError)):
        restricted_loads(blob)


# -- hypothesis: arbitrary field values survive the full path -----------------

try:
    from hypothesis import given, settings, strategies as st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    _HAVE_HYPOTHESIS = False

if _HAVE_HYPOTHESIS:

    @given(
        group=st.text(min_size=1, max_size=16),
        payload=st.binary(max_size=512),
        seq=st.integers(min_value=0, max_value=2**31 - 1),
        service_agreed=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_fuzzed_wire_kinds_round_trip_restricted(
        group, payload, seq, service_agreed
    ):
        """Property: for every registered wire kind carrying fuzzed
        field values, encode → authenticate → decode → restricted
        unpickle is the identity."""
        from repro.spread.events import DataEvent
        from repro.spread.messages import DataMessage
        from repro.transport.protocol import (
            ClientDeliver,
            ClientMulticast,
            ClientMulticastBatch,
        )
        from repro.types import GroupId, ProcessId, ServiceType, ViewId

        service = (
            ServiceType.AGREED if service_agreed else ServiceType.FIFO
        )
        pid = ProcessId.parse("#m0#d0")
        view = ViewId(epoch=1, counter=seq, coordinator="d0")
        for sample in (
            DataMessage(
                sender_daemon="d0", view_id=view, seq=seq, lamport=seq,
                service=service, kind="data", group=group, origin=pid,
                origin_seq=seq, payload=payload, causal_vector=None,
            ),
            ClientMulticastBatch(multicasts=(
                ClientMulticast(
                    pid=pid, service=service, group=group,
                    payload=payload, origin_seq=seq,
                ),
            )),
            ClientDeliver(event=DataEvent(
                group=GroupId(group), sender=pid, service=service,
                payload=payload, seq=seq,
            )),
        ):
            frame = encode_frame(sample, auth=KEY_A)
            assert FrameDecoder(auth=KEY_A).feed(frame) == [sample]
