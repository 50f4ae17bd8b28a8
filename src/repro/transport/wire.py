"""Length-prefixed wire framing for the TCP backend.

Every payload that crosses a socket — daemon-to-daemon envelopes from
:mod:`repro.spread.messages`, client IPC verbs from
:mod:`repro.transport.protocol`, fragments, sealed blobs — travels as
one *frame*:

=======  ====  =========================================================
offset   size  field
=======  ====  =========================================================
0        1     magic, ``0xC5``
1        1     wire version, currently ``3``
2        1     flags — bit 0 (:data:`FLAG_AUTH`): frame carries a tag;
               bit 1 (:data:`FLAG_BUFFERS`): body has a buffer section
3        2     kind code (big-endian) — see :data:`WIRE_KINDS`
5        4     body length in bytes (big-endian; excludes the tag)
9        4     CRC-32 of the body (big-endian) on untagged frames;
               ``0`` on tagged frames, whose tag is their only check
13       32    HMAC-SHA256 tag — only when :data:`FLAG_AUTH` is set
13|45    n     body
=======  ====  =========================================================

A body is the pickled payload object.  With :data:`FLAG_BUFFERS` it is
instead a buffer section — a 2-byte count and one 4-byte length per
buffer (big-endian) — then the pickled envelope, then the raw buffers
back to back.  The buffers are fragment chunks: this module's pickler
hands every :class:`~repro.spread.fragments.MessageFragment` chunk to
pickle protocol 5 as an out-of-band ``PickleBuffer``, so a 64 KiB chunk
is copied once into the frame and once out of it, and never re-pickled.
A frame without fragments has no buffer section.

The tag is HMAC-SHA256 over ``header || body-before-the-buffers ||
SHA-256(buffer)...`` (:class:`~repro.transport.auth.FrameAuth`).  The
decoder hands each buffer on as a
:class:`~repro.transport.auth.VerifiedBuffer` holding the digest it was
verified under; a daemon that forwards the fragment re-tags it with
that digest instead of hashing the chunk again.

The kind code lets a receiver classify a frame without unpickling it
(frame-size histograms, dispatch counters) and cross-checks the decoded
type; unknown payload types fall back to :data:`KIND_PYOBJ`.

When a deployment key is configured (see :mod:`repro.transport.auth`),
every frame carries an HMAC-SHA256 tag verified — in constant time —
*before* any of it is deserialized, and bodies always go through
:func:`~repro.transport.auth.restricted_loads`, which resolves only the
registered wire-kind classes, never bare ``pickle.loads``.  Frames of
any other version (v1, v2) are rejected before any other header field
is interpreted and counted as ``stale_version_rejects``, so an older
layout can never be misparsed.  Auth-config mismatches fail loudly in
both directions: an untagged frame at an authenticating endpoint and a
tagged frame at a non-authenticating endpoint are both
connection-fatal :class:`~repro.errors.FrameAuthError`\\ s, counted
separately.

A frame longer than :data:`MAX_FRAME` (16 MiB) is refused on both
ends — a stream desync otherwise turns into a multi-gigabyte allocation
from attacker- or corruption-controlled length bytes.

:class:`FrameDecoder` is incremental: feed it whatever ``read()``
returned — any chunking, including mid-header splits — and it yields
each payload exactly once, raising :class:`~repro.errors.FrameError`
(connection-fatal) on malformed input.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import (
    FrameAuthError,
    FrameError,
    RestrictedUnpickleError,
    WireVersionError,
)
from repro.transport.auth import (
    TAG_SIZE,
    FrameAuth,
    VerifiedBuffer,
    restricted_loads,
)

MAGIC = 0xC5
VERSION = 3

#: Flags bit 0: the frame carries an HMAC-SHA256 tag after the header.
FLAG_AUTH = 0x01
#: Flags bit 1: the body opens with a buffer section and ends with the
#: out-of-band buffers it describes.
FLAG_BUFFERS = 0x02

_KNOWN_FLAGS = FLAG_AUTH | FLAG_BUFFERS

#: Maximum frame size (header + tag + body) in bytes.
MAX_FRAME = 16 * 1024 * 1024

HEADER = struct.Struct(">BBBHII")
HEADER_SIZE = HEADER.size  # 13

_COUNT = struct.Struct(">H")
_LENGTH_SIZE = 4

#: Fallback kind: any picklable object without a registered code.
KIND_PYOBJ = 0

#: Counter keys a :class:`FrameDecoder` bumps on rejected frames.  The
#: transports pre-initialize these in their ``counters`` dicts so the
#: obs layer exports them (as ``transport.<key>``) even when zero.
REJECT_COUNTERS = (
    "stale_version_rejects",
    "auth_bad_mac",
    "auth_missing_tag",
    "auth_unexpected_tag",
    "restricted_unpickle_rejects",
)


def _registry() -> Tuple[Dict[Type, int], Dict[int, Type]]:
    # Imported lazily so ``repro.spread`` never has to exist at
    # transport-module import time in stripped-down environments.
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
        ClientMulticastBatch,
        ClientRefused,
        ClientWelcome,
        PeerHello,
    )

    codes: Dict[Type, int] = {
        DataMessage: 1,
        Packed: 2,
        Hello: 3,
        Nack: 4,
        GatherAnnounce: 5,
        Propose: 6,
        SyncInfo: 7,
        Install: 8,
        RingToken: 9,
        MessageFragment: 10,
        PeerHello: 16,
        ClientConnect: 32,
        ClientWelcome: 33,
        ClientRefused: 34,
        ClientJoin: 35,
        ClientLeave: 36,
        ClientMulticastBatch: 37,
        ClientDisconnect: 38,
        ClientDeliver: 39,
        ClientBye: 40,
    }
    # The encoder's pickler sends fragment chunks out of band.
    _Pickler.dispatch_table = {MessageFragment: _reduce_fragment}
    return codes, {code: cls for cls, code in codes.items()}


_CODES: Optional[Dict[Type, int]] = None
_TYPES: Optional[Dict[int, Type]] = None


def _tables() -> Tuple[Dict[Type, int], Dict[int, Type]]:
    global _CODES, _TYPES
    if _CODES is None:
        _CODES, _TYPES = _registry()
    return _CODES, _TYPES


def _reduce_fragment(fragment):
    # The chunk goes out of band: pickle hands it to the buffer callback
    # instead of copying it into the envelope.
    return type(fragment), (
        fragment.fragment_id,
        fragment.index,
        fragment.total,
        pickle.PickleBuffer(fragment.chunk),
    )


class _Pickler(pickle.Pickler):
    #: Filled in with the kind registry (:func:`_registry`).
    dispatch_table: Dict[Type, Callable] = {}


def kind_code(payload: Any) -> int:
    """The wire kind code for a payload (``KIND_PYOBJ`` if unregistered)."""
    codes, __ = _tables()
    return codes.get(type(payload), KIND_PYOBJ)


def kind_name(code: int) -> str:
    """Human-readable name of a kind code (for histogram labels)."""
    __, types = _tables()
    cls = types.get(code)
    return cls.__name__ if cls is not None else "pyobj"


def encode_frame(
    payload: Any,
    max_frame: int = MAX_FRAME,
    auth: Optional[FrameAuth] = None,
) -> bytes:
    """Serialize one payload into a complete wire frame.

    With ``auth`` the frame carries :data:`FLAG_AUTH` and an
    HMAC-SHA256 tag between header and body; without it, a CRC-32 of
    the body.  Fragment chunks inside ``payload`` travel as raw buffers
    after the envelope (:data:`FLAG_BUFFERS`).
    """
    kind = kind_code(payload)  # loads the registry, and the pickler's table
    file = io.BytesIO()
    pickled: List[pickle.PickleBuffer] = []
    _Pickler(
        file, pickle.HIGHEST_PROTOCOL, buffer_callback=pickled.append
    ).dump(payload)
    body = file.getvalue()
    flags = FLAG_AUTH if auth is not None else 0
    length = len(body)
    raws: List[memoryview] = []
    if pickled:
        flags |= FLAG_BUFFERS
        raws = [buffer.raw() for buffer in pickled]
        sizes = [raw.nbytes for raw in raws]
        body = struct.pack(f">H{len(sizes)}I", len(sizes), *sizes) + body
        length = len(body) + sum(sizes)
    total = HEADER_SIZE + (TAG_SIZE if auth is not None else 0) + length
    if total > max_frame:
        raise FrameError(
            f"frame of {total} bytes exceeds the {max_frame}-byte limit "
            f"({type(payload).__name__})"
        )
    if auth is None:
        crc = zlib.crc32(body)
        for raw in raws:
            crc = zlib.crc32(raw, crc)
        header = HEADER.pack(MAGIC, VERSION, flags, kind, length, crc)
        return b"".join((header, body, *raws))
    header = HEADER.pack(MAGIC, VERSION, flags, kind, length, 0)
    # ``raw.obj`` is the chunk object itself, so a forwarded
    # VerifiedBuffer is recognised and not hashed again.
    tag = auth.tag(header, body, [raw.obj for raw in raws])
    return b"".join((header, tag, body, *raws))


def decode_frame(data: bytes, auth: Optional[FrameAuth] = None) -> Any:
    """Decode exactly one complete frame (helper for tests and probes)."""
    decoder = FrameDecoder(auth=auth)
    frames = decoder.feed(data)
    if len(frames) != 1 or decoder.pending:
        raise FrameError(
            f"expected exactly one complete frame, got {len(frames)} "
            f"with {decoder.pending} bytes left over"
        )
    return frames[0]


def _buffer_section(
    view: memoryview, start: int, end: int, tagged: bool
) -> Tuple[int, int, List[bytes]]:
    """Parse the buffer section of the body at ``view[start:end]``.

    Returns where the envelope starts and ends, and a copy of each
    buffer — a :class:`VerifiedBuffer` on a tagged frame, for
    :meth:`FrameAuth.verify` to record its digest on.
    """
    if end - start < _COUNT.size:
        raise FrameError("body too short for its buffer section")
    (count,) = _COUNT.unpack_from(view, start)
    envelope_start = start + _COUNT.size + _LENGTH_SIZE * count
    if envelope_start > end:
        raise FrameError(f"body too short for {count} buffer lengths")
    sizes = struct.unpack_from(f">{count}I", view, start + _COUNT.size)
    envelope_end = end - sum(sizes)
    if envelope_end < envelope_start:
        raise FrameError("buffer lengths exceed the frame body")
    make = VerifiedBuffer if tagged else bytes
    buffers = []
    at = envelope_end
    for size in sizes:
        buffers.append(make(view[at : at + size]))
        at += size
    return envelope_start, envelope_end, buffers


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    ``observe`` (optional) is called once per decoded frame with
    ``(kind_code, total_frame_bytes)`` — the hook the transport uses for
    its frame-size histograms.  ``auth`` (optional) requires and
    verifies a frame tag under the deployment key; without it, tagged
    frames are rejected.  ``counters`` (optional) is a dict the decoder
    bumps by :data:`REJECT_COUNTERS` key when it refuses a frame, so
    rejects surface in the obs ``transport.*`` metrics.  All
    :class:`~repro.errors.FrameError`\\ s are connection-fatal: after
    one, the stream offset can no longer be trusted and the caller must
    drop the connection.
    """

    def __init__(
        self,
        max_frame: int = MAX_FRAME,
        observe: Optional[Callable[[int, int], None]] = None,
        auth: Optional[FrameAuth] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.max_frame = max_frame
        self._observe = observe
        self._auth = auth
        self._counters = counters
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet part of a complete frame."""
        return len(self._buffer)

    def _count(self, key: str) -> None:
        if self._counters is not None:
            self._counters[key] = self._counters.get(key, 0) + 1

    def feed(self, data: bytes) -> List[Any]:
        """Absorb ``data`` and return every payload it completed.

        Frames are parsed at a read offset and the consumed prefix is
        cut once per call, so a chunk of many small frames is never
        shifted frame by frame; each envelope and each buffer is copied
        out exactly once.
        """
        buffer = self._buffer
        buffer += data
        self.bytes_fed += len(data)
        out: List[Any] = []
        offset = 0
        size = len(buffer)
        with memoryview(buffer) as view:
            while size - offset >= HEADER_SIZE:
                magic, version, flags, kind, length, crc = HEADER.unpack_from(
                    buffer, offset
                )
                if magic != MAGIC:
                    raise FrameError(f"bad magic byte 0x{magic:02X}")
                # Version gates every other field: layouts differ across
                # versions, so nothing past byte 1 is interpreted until
                # the version matches.
                if version != VERSION:
                    self._count("stale_version_rejects")
                    raise WireVersionError(
                        f"unsupported wire version {version} (this build "
                        f"speaks {VERSION})"
                    )
                if flags & ~_KNOWN_FLAGS:
                    raise FrameError(f"unknown flag bits 0x{flags:02X}")
                tagged = bool(flags & FLAG_AUTH)
                if self._auth is not None and not tagged:
                    self._count("auth_missing_tag")
                    raise FrameAuthError(
                        "unauthenticated frame on an authenticating endpoint"
                    )
                if self._auth is None and tagged:
                    self._count("auth_unexpected_tag")
                    raise FrameAuthError(
                        "authenticated frame on an endpoint with no "
                        "deployment key"
                    )
                tag_size = TAG_SIZE if tagged else 0
                total = HEADER_SIZE + tag_size + length
                if total > self.max_frame:
                    raise FrameError(
                        f"declared frame of {total} bytes exceeds the "
                        f"{self.max_frame}-byte limit"
                    )
                end = offset + total
                if size < end:
                    break
                start = end - length
                if flags & FLAG_BUFFERS:
                    envelope_start, envelope_end, buffers = _buffer_section(
                        view, start, end, tagged
                    )
                else:
                    envelope_start, envelope_end, buffers = start, end, None
                if tagged:
                    # The tag is a tagged frame's only integrity check,
                    # and nothing downstream may touch unverified bytes.
                    if not self._auth.verify(
                        view[offset : offset + HEADER_SIZE],
                        view[start:envelope_end],
                        view[offset + HEADER_SIZE : start],
                        buffers or (),
                    ):
                        self._count("auth_bad_mac")
                        raise FrameAuthError(
                            f"frame tag verification failed "
                            f"(key_id={self._auth.key_id})"
                        )
                elif zlib.crc32(view[start:end]) != crc:
                    raise FrameError("body CRC mismatch")
                remaining = iter(buffers) if buffers else None
                try:
                    payload = restricted_loads(
                        view[envelope_start:envelope_end].tobytes(), remaining
                    )
                except RestrictedUnpickleError:
                    self._count("restricted_unpickle_rejects")
                    raise
                except Exception as exc:
                    raise FrameError(f"undecodable frame body: {exc}") from exc
                if remaining is not None and next(remaining, None) is not None:
                    raise FrameError("frame carries a buffer it never uses")
                if kind != KIND_PYOBJ:
                    __, types = _tables()
                    expected = types.get(kind)
                    if expected is None:
                        raise FrameError(f"unknown kind code {kind}")
                    if type(payload) is not expected:
                        raise FrameError(
                            f"kind code {kind} ({expected.__name__}) does "
                            f"not match decoded {type(payload).__name__}"
                        )
                self.frames_decoded += 1
                if self._observe is not None:
                    self._observe(kind, total)
                out.append(payload)
                offset = end
        del buffer[:offset]
        return out
