"""HMAC (RFC 2104) over ``hashlib``.

Provides the data-integrity service of the secure layer: every protected
group message carries ``HMAC-SHA1(mac_key, header || ciphertext)`` —
SHA-1 because that is what a system of the paper's vintage used, and
``hashlib`` because the paper takes its hash from a library (only the
cipher, Blowfish, is reproduced from scratch; DESIGN.md §2).  The
transport's frame tags use the same construction over SHA-256.
Verification is constant-time.

A prepared key hashes the padded key's inner and outer blocks once and
keeps the midstates, so each message pays only for its own bytes —
per-epoch callers (``DataProtector``, ``FrameAuth``) hold one per key.
The one-shot functions remain for cold paths (key directories, member
auth) and route through the same construction.
"""

from __future__ import annotations

import hashlib as _hashlib
import hmac as _stdlib_hmac  # only for compare_digest (constant time)

_BLOCK_SIZE = 64  # SHA-1 and SHA-256 alike
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))

DIGEST_SIZE = 20


def _midstates(hash_factory, key: bytes):
    """The inner and outer hash objects of RFC 2104, pad block absorbed."""
    if len(key) > _BLOCK_SIZE:
        key = hash_factory(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return hash_factory(key.translate(_IPAD)), hash_factory(key.translate(_OPAD))


class HmacKey:
    """A prepared HMAC-SHA1 key: pad blocks hashed once, reused per message."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        self._inner, self._outer = _midstates(_hashlib.sha1, key)

    def digest(self, message: bytes) -> bytes:
        """HMAC-SHA1 of ``message`` under this key."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time verification of an HMAC tag."""
        return _stdlib_hmac.compare_digest(self.digest(message), tag)


def hmac_digest(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1 of ``message`` under ``key`` (one-shot)."""
    return HmacKey(key).digest(message)


def hmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time verification of an HMAC tag (one-shot)."""
    return _stdlib_hmac.compare_digest(hmac_digest(key, message), tag)


# ---------------------------------------------------------------------------
# HMAC-SHA256 (transport frame authentication)
# ---------------------------------------------------------------------------

SHA256_DIGEST_SIZE = 32


class HmacSha256Key:
    """A prepared HMAC-SHA256 key for the transport's frame tags.

    Deliberately a sibling of :class:`HmacKey`, not a subclass: the
    benchmark's tracer wraps ``HmacKey.digest``/``verify`` as the
    ``crypto.hmac`` layer, and frame auth is budgeted under
    ``transport.auth`` instead.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        self._inner, self._outer = _midstates(_hashlib.sha256, key)

    def digest(self, *parts: bytes) -> bytes:
        """HMAC-SHA256 of the concatenated ``parts`` under this key (each
        part is hashed where it lies; nothing is joined first)."""
        inner = self._inner.copy()
        for part in parts:
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def hmac_sha256_digest(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under ``key`` (one-shot)."""
    return HmacSha256Key(key).digest(message)
