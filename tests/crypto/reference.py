"""Slow, readable reference implementations — the fast path's oracle.

:mod:`repro.crypto.blowfish` and :mod:`repro.crypto.modes` are optimized
(unrolled rounds, whole-buffer integer chaining).  This module preserves
the straightforward textbook formulation that the optimized code
replaced: Machin's-formula pi digits, a per-round-loop Blowfish and
per-byte-XOR CBC/CTR.  The
equivalence tests pin every optimized output against this oracle (plus
the published Eric Young vectors), so a fast-path bug cannot pass
silently.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.crypto.blowfish import (
    _MASK32,
    _P_SIZE,
    _PI_WORDS,
    _ROUNDS,
    _SBOX_COUNT,
    _SBOX_SIZE,
    BLOCK_SIZE,
    MAX_KEY_BYTES,
    MIN_KEY_BYTES,
)
from repro.errors import CipherError, KeyError_


def _arctan_recip(x: int, one: int) -> int:
    """arctan(1/x) in fixed point: returns round(atan(1/x) * one)."""
    power = one // x
    total = power
    x_squared = x * x
    denominator = 1
    sign = -1
    while power > 0:
        power //= x_squared
        denominator += 2
        total += sign * (power // denominator)
        sign = -sign
    return total


@lru_cache(maxsize=None)
def reference_pi_fraction_words(count: int = _PI_WORDS) -> Tuple[int, ...]:
    """The first ``count`` 32-bit words of the fractional hex digits of pi,
    by Machin's formula (16*atan(1/5) - 4*atan(1/239)) with guard digits:
    a derivation independent of the library's Chudnovsky series."""
    hex_digits = count * 8
    guard = 12
    one = 1 << (4 * (hex_digits + guard))
    pi_scaled = 16 * _arctan_recip(5, one) - 4 * _arctan_recip(239, one)
    fraction = pi_scaled - 3 * one
    digits = format(fraction >> (4 * guard), "x").rjust(hex_digits, "0")
    return tuple(
        int(digits[i * 8 : (i + 1) * 8], 16) for i in range(count)
    )


class ReferenceBlowfish:
    """The textbook per-round-loop Blowfish (the pre-fast-path code)."""

    def __init__(self, key: bytes) -> None:
        if not MIN_KEY_BYTES <= len(key) <= MAX_KEY_BYTES:
            raise KeyError_(
                f"Blowfish key must be {MIN_KEY_BYTES}..{MAX_KEY_BYTES} bytes,"
                f" got {len(key)}"
            )
        words = reference_pi_fraction_words()
        self._p: List[int] = list(words[:_P_SIZE])
        self._s: List[List[int]] = [
            list(words[_P_SIZE + box * _SBOX_SIZE : _P_SIZE + (box + 1) * _SBOX_SIZE])
            for box in range(_SBOX_COUNT)
        ]
        self._expand_key(key)

    def _expand_key(self, key: bytes) -> None:
        key_len = len(key)
        position = 0
        for i in range(_P_SIZE):
            chunk = 0
            for _ in range(4):
                chunk = ((chunk << 8) | key[position]) & _MASK32
                position = (position + 1) % key_len
            self._p[i] ^= chunk
        left, right = 0, 0
        for i in range(0, _P_SIZE, 2):
            left, right = self._encrypt_words(left, right)
            self._p[i], self._p[i + 1] = left, right
        for box in range(_SBOX_COUNT):
            for i in range(0, _SBOX_SIZE, 2):
                left, right = self._encrypt_words(left, right)
                self._s[box][i], self._s[box][i + 1] = left, right

    def _feistel(self, half: int) -> int:
        s = self._s
        a = (half >> 24) & 0xFF
        b = (half >> 16) & 0xFF
        c = (half >> 8) & 0xFF
        d = half & 0xFF
        return ((((s[0][a] + s[1][b]) & _MASK32) ^ s[2][c]) + s[3][d]) & _MASK32

    def _encrypt_words(self, left: int, right: int) -> Tuple[int, int]:
        p = self._p
        for round_index in range(_ROUNDS):
            left ^= p[round_index]
            right ^= self._feistel(left)
            left, right = right, left
        left, right = right, left  # undo the final swap
        right ^= p[_ROUNDS]
        left ^= p[_ROUNDS + 1]
        return left, right

    def _decrypt_words(self, left: int, right: int) -> Tuple[int, int]:
        p = self._p
        for round_index in range(_ROUNDS + 1, 1, -1):
            left ^= p[round_index]
            right ^= self._feistel(left)
            left, right = right, left
        left, right = right, left
        right ^= p[1]
        left ^= p[0]
        return left, right

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CipherError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        left = int.from_bytes(block[:4], "big")
        right = int.from_bytes(block[4:], "big")
        left, right = self._encrypt_words(left, right)
        return left.to_bytes(4, "big") + right.to_bytes(4, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CipherError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        left = int.from_bytes(block[:4], "big")
        right = int.from_bytes(block[4:], "big")
        left, right = self._decrypt_words(left, right)
        return left.to_bytes(4, "big") + right.to_bytes(4, "big")


def xor_block(a: bytes, b: bytes) -> bytes:
    """Per-byte-generator XOR (the chaining the fast path replaced)."""
    return bytes(x ^ y for x, y in zip(a, b))


def reference_cbc_encrypt(cipher, padded: bytes, iv: bytes) -> bytes:
    """Per-block CBC over an already-padded buffer; ciphertext only."""
    if len(padded) % BLOCK_SIZE:
        raise CipherError("CBC buffer is not block aligned")
    blocks = []
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = xor_block(padded[offset : offset + BLOCK_SIZE], previous)
        previous = cipher.encrypt_block(block)
        blocks.append(previous)
    return b"".join(blocks)


def reference_cbc_decrypt(cipher, ciphertext: bytes, iv: bytes) -> bytes:
    """Per-block CBC decrypt; returns the padded plaintext."""
    if len(ciphertext) % BLOCK_SIZE:
        raise CipherError("CBC buffer is not block aligned")
    plaintext = bytearray()
    previous = iv
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset : offset + BLOCK_SIZE]
        plaintext += xor_block(cipher.decrypt_block(block), previous)
        previous = block
    return bytes(plaintext)


def reference_ctr_xor(cipher, data: bytes, nonce: bytes) -> bytes:
    """Per-byte-zip counter-mode transform (encrypt == decrypt)."""
    start = int.from_bytes(nonce, "big")
    stream = bytearray()
    counter = 0
    while len(stream) < len(data):
        block_value = (start + counter) % (1 << 64)
        stream += cipher.encrypt_block(block_value.to_bytes(BLOCK_SIZE, "big"))
        counter += 1
    return bytes(c ^ k for c, k in zip(data, stream))


# -- SHA-1 / HMAC -------------------------------------------------------------
#
# The textbook hash: per-round branch ladder, helper-call rotations,
# schedule built with list appends.  The library takes SHA-1 from
# ``hashlib`` (:mod:`repro.crypto.hmac_mac`); this from-scratch copy is
# the independent oracle for its HMAC, so the cross-check is not
# ``hashlib`` checking itself.

_SHA1_BLOCK = 64


def _sha1_rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK32


class ReferenceSHA1:
    """The textbook round-loop SHA-1."""

    def __init__(self, data: bytes = b"") -> None:
        self._h = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= _SHA1_BLOCK:
            self._process(self._buffer[:_SHA1_BLOCK])
            self._buffer = self._buffer[_SHA1_BLOCK:]

    def _process(self, block: bytes) -> None:
        w = [
            int.from_bytes(block[i : i + 4], "big")
            for i in range(0, _SHA1_BLOCK, 4)
        ]
        for t in range(16, 80):
            w.append(_sha1_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._h
        for t in range(80):
            if t < 20:
                f = (b & c) | (~b & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_sha1_rotl(a, 5) + f + e + k + w[t]) & _MASK32
            e, d, c, b, a = d, c, _sha1_rotl(b, 30), a, temp
        self._h = tuple((x + y) & _MASK32 for x, y in zip(self._h, (a, b, c, d, e)))

    def digest(self) -> bytes:
        clone = ReferenceSHA1()
        clone._h = self._h
        clone._buffer = self._buffer
        clone._length = self._length
        bit_length = clone._length * 8
        clone.update(b"\x80")
        pad = (56 - clone._length % _SHA1_BLOCK) % _SHA1_BLOCK
        clone._buffer += b"\x00" * pad
        clone._buffer += bit_length.to_bytes(8, "big")
        while clone._buffer:
            clone._process(clone._buffer[:_SHA1_BLOCK])
            clone._buffer = clone._buffer[_SHA1_BLOCK:]
        return b"".join(h.to_bytes(4, "big") for h in clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()


def reference_sha1(data: bytes) -> bytes:
    """One-shot reference SHA-1."""
    return ReferenceSHA1(data).digest()


def reference_hmac_digest(key: bytes, message: bytes) -> bytes:
    """RFC 2104 written out: both pad blocks rehashed on every call."""
    if len(key) > _SHA1_BLOCK:
        key = reference_sha1(key)
    key = key.ljust(_SHA1_BLOCK, b"\x00")
    inner = reference_sha1(bytes(byte ^ 0x36 for byte in key) + message)
    return reference_sha1(bytes(byte ^ 0x5C for byte in key) + inner)
