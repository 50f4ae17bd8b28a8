"""Blowfish block cipher, from scratch — word-level fast path.

Blowfish (Schneier, 1994) is the bulk data cipher secure Spread used.  It
is a 16-round Feistel cipher on 64-bit blocks with key-dependent S-boxes.
The initial P-array and S-boxes are, per the specification, the
hexadecimal digits of the fractional part of pi.  Rather than embedding
8336 magic hex digits, this module *computes* them with Machin's formula
(16*atan(1/5) - 4*atan(1/239) in fixed-point integer arithmetic), then
verifies itself against Eric Young's published test vectors on first use.

The round function is fully unrolled and operates on local 32-bit words
(no per-round method calls, one mask per Feistel evaluation), and the
cipher exposes whole-buffer CBC / CTR primitives that chain with integer
XOR instead of per-byte generators.

CBC *decryption* is not serial (P_i = D(C_i) xor C_(i-1), and every
C_(i-1) is known up front), so
:meth:`Blowfish.cbc_decrypt_chained` takes the chain as an argument and
can decrypt the blocks of many messages at once: from
:data:`_LANE_CROSSOVER` blocks up every block is a 64-bit lane of two big
integers (left and right halves), the sixteen rounds run once over all
lanes, and the S-box lookups are ``bytes.translate`` calls over byte
planes.  Encryption stays scalar: CBC encryption is serial.

A slow, readable per-block oracle
lives in ``tests/crypto/reference.py``; the test suite pins this
implementation against it.  Key schedules are expensive (521 block
encryptions) — reuse instances via :mod:`repro.crypto.cipher_cache`
rather than re-keying per message.
"""

from __future__ import annotations

import struct as _struct
from functools import lru_cache
from typing import List, Tuple

from repro.errors import CipherError, KeyError_

_ROUNDS = 16
_P_SIZE = _ROUNDS + 2  # 18 subkeys
_SBOX_COUNT = 4
_SBOX_SIZE = 256
_PI_WORDS = _P_SIZE + _SBOX_COUNT * _SBOX_SIZE  # 1042 32-bit words
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: One in the low bit of every 64-bit lane, per block; times a word it
#: puts that word in every lane.
_LANE_ONE = b"\0\0\0\0\0\0\0\1"
#: Blocks at and above which :meth:`Blowfish.cbc_decrypt_chained` runs in
#: lanes.  Lanes cost a fixed ~65 us per call, the scalar loop ~7 us per
#: block; EXPERIMENTS.md records the measurement behind this number.
_LANE_CROSSOVER = 14

BLOCK_SIZE = 8
MIN_KEY_BYTES = 4
MAX_KEY_BYTES = 56


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


@lru_cache(maxsize=1)
def pi_fraction_words(count: int = _PI_WORDS) -> Tuple[int, ...]:
    """The first ``count`` 32-bit words of the fractional hex digits of pi.

    Machin's formula with guard digits; the first word is 0x243F6A88,
    which is exactly Blowfish's P[0].
    """
    hex_digits = count * 8
    guard = 12
    one = 1 << (4 * (hex_digits + guard))
    pi_scaled = 16 * _arctan_recip(5, one) - 4 * _arctan_recip(239, one)
    fraction = pi_scaled - 3 * one
    digits = format(fraction >> (4 * guard), "x").rjust(hex_digits, "0")
    return tuple(
        int(digits[i * 8 : (i + 1) * 8], 16) for i in range(count)
    )


class Blowfish:
    """A keyed Blowfish cipher instance.

    Encrypts/decrypts single 64-bit blocks and whole buffers; use
    :mod:`repro.crypto.modes` for the IV/padding framing of messages.

    ``constructions`` counts key schedules derived process-wide; the
    cipher-schedule cache tests use it to prove schedule reuse.
    """

    __slots__ = ("_p", "_s0", "_s1", "_s2", "_s3", "_planes")

    #: Process-wide count of key schedules derived (each costs 521 block
    #: encryptions).  Diagnostic only — see repro.crypto.cipher_cache.
    constructions = 0

    def __init__(self, key: bytes) -> None:
        if not MIN_KEY_BYTES <= len(key) <= MAX_KEY_BYTES:
            raise KeyError_(
                f"Blowfish key must be {MIN_KEY_BYTES}..{MAX_KEY_BYTES} bytes,"
                f" got {len(key)}"
            )
        Blowfish.constructions += 1
        words = pi_fraction_words()
        self._p: List[int] = list(words[:_P_SIZE])
        self._s0 = list(words[_P_SIZE : _P_SIZE + _SBOX_SIZE])
        self._s1 = list(words[_P_SIZE + _SBOX_SIZE : _P_SIZE + 2 * _SBOX_SIZE])
        self._s2 = list(words[_P_SIZE + 2 * _SBOX_SIZE : _P_SIZE + 3 * _SBOX_SIZE])
        self._s3 = list(words[_P_SIZE + 3 * _SBOX_SIZE : _P_SIZE + 4 * _SBOX_SIZE])
        self._expand_key(key)
        # Byte j of S-box k as a 256-byte translate table (index 4k + j),
        # for the lane decrypt: ~30 us against ~3.5 ms for the schedule.
        self._planes = tuple(
            packed[j::4]
            for box in (self._s0, self._s1, self._s2, self._s3)
            for packed in (_struct.pack(">256I", *box),)
            for j in range(4)
        )

    # -- key schedule -------------------------------------------------------

    def _expand_key(self, key: bytes) -> None:
        # XOR the key cyclically into the P-array.
        key_len = len(key)
        position = 0
        for i in range(_P_SIZE):
            chunk = 0
            for _ in range(4):
                chunk = ((chunk << 8) | key[position]) & _MASK32
                position = (position + 1) % key_len
            self._p[i] ^= chunk
        # Repeatedly encrypt the all-zero block, replacing subkeys.
        left, right = 0, 0
        for i in range(0, _P_SIZE, 2):
            left, right = self._encrypt_words(left, right)
            self._p[i], self._p[i + 1] = left, right
        for box in (self._s0, self._s1, self._s2, self._s3):
            for i in range(0, _SBOX_SIZE, 2):
                left, right = self._encrypt_words(left, right)
                box[i], box[i + 1] = left, right

    # -- round function -----------------------------------------------------
    #
    # Fully unrolled: two rounds per statement pair, with the traditional
    # half-swaps folded away by alternating which variable plays "left".
    # The Feistel mix needs only one final mask because the carry bit of
    # the first (unmasked) addition sits above the XOR's reach and dies
    # in the closing "& 0xFFFFFFFF".

    def _encrypt_words(self, xl: int, xr: int) -> Tuple[int, int]:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9,
         p10, p11, p12, p13, p14, p15, p16, p17) = self._p
        mask32 = _MASK32
        xl ^= p0
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p1
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p2
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p3
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p4
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p5
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p6
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p7
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p8
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p9
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p10
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p11
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p12
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p13
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p14
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p15
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        return xr ^ p17, xl ^ p16

    def _decrypt_words(self, xl: int, xr: int) -> Tuple[int, int]:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9,
         p10, p11, p12, p13, p14, p15, p16, p17) = self._p
        mask32 = _MASK32
        xl ^= p17
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p16
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p15
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p14
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p13
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p12
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p11
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p10
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p9
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p8
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p7
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p6
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p5
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p4
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        xl ^= p3
        xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
        xr ^= p2
        xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
        return xr ^ p0, xl ^ p1

    # -- block API ----------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CipherError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        value = int.from_bytes(block, "big")
        left, right = self._encrypt_words(value >> 32, value & _MASK32)
        return ((left << 32) | right).to_bytes(BLOCK_SIZE, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CipherError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        value = int.from_bytes(block, "big")
        left, right = self._decrypt_words(value >> 32, value & _MASK32)
        return ((left << 32) | right).to_bytes(BLOCK_SIZE, "big")

    # -- whole-buffer API ----------------------------------------------------
    #
    # These operate on block-aligned buffers as 64-bit integers with
    # integer-XOR chaining; repro.crypto.modes adds the IV/nonce framing
    # and padding on top.

    def cbc_encrypt_blocks(self, data: bytes, iv: bytes) -> bytes:
        """CBC-encrypt a block-aligned buffer; returns ciphertext only.

        The 16 rounds are inlined in the block loop so the subkey and
        S-box locals bind once per buffer, not once per block.
        """
        length = len(data)
        if length % BLOCK_SIZE:
            raise CipherError("CBC buffer is not block aligned")
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9,
         p10, p11, p12, p13, p14, p15, p16, p17) = self._p
        mask32 = _MASK32
        count = length // BLOCK_SIZE
        previous = int.from_bytes(iv, "big")
        out = []
        append = out.append
        # One C-level unpack/pack for the whole buffer instead of a
        # bytes slice + int conversion per block.
        for word in _struct.unpack(f">{count}Q", data):
            mixed = previous ^ word
            xl = mixed >> 32
            xr = mixed & mask32
            xl ^= p0
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p1
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p2
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p3
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p4
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p5
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p6
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p7
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p8
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p9
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p10
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p11
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p12
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p13
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p14
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p15
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            previous = ((xr ^ p17) << 32) | (xl ^ p16)
            append(previous)
        return _struct.pack(f">{count}Q", *out)

    def cbc_decrypt_blocks(self, data: bytes, iv: bytes) -> bytes:
        """CBC-decrypt a block-aligned buffer; returns padded plaintext."""
        return self.cbc_decrypt_chained(data, (iv + data)[: len(data)])

    def cbc_decrypt_chained(self, data: bytes, chain: bytes) -> bytes:
        """Return D(data_i) xor chain_i for every 8-byte block i.

        With ``chain`` = IV followed by all but the last ciphertext block,
        this is CBC decryption of one message; concatenating several
        messages' blocks and chains decrypts them all in one call.
        Buffers of :data:`_LANE_CROSSOVER` blocks or more go through
        :meth:`_decrypt_lanes`; shorter ones through the scalar loop,
        rounds inlined per block and locals bound once (see
        :meth:`cbc_encrypt_blocks`).
        """
        length = len(data)
        if length % BLOCK_SIZE:
            raise CipherError("CBC buffer is not block aligned")
        if len(chain) != length:
            raise CipherError("CBC chain and data differ in length")
        count = length // BLOCK_SIZE
        if count >= _LANE_CROSSOVER:
            return self._decrypt_lanes(data, chain)
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9,
         p10, p11, p12, p13, p14, p15, p16, p17) = self._p
        mask32 = _MASK32
        out = []
        append = out.append
        unpack = _struct.unpack
        for block, previous in zip(
            unpack(f">{count}Q", data), unpack(f">{count}Q", chain)
        ):
            xl = block >> 32
            xr = block & mask32
            xl ^= p17
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p16
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p15
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p14
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p13
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p12
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p11
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p10
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p9
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p8
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p7
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p6
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p5
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p4
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p3
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p2
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            append((((xr ^ p0) << 32) | (xl ^ p1)) ^ previous)
        return _struct.pack(f">{count}Q", *out)

    def _decrypt_lanes(self, data: bytes, chain: bytes) -> bytes:
        """:meth:`cbc_decrypt_chained` with every block a lane.

        ``left`` and ``right`` hold one 32-bit half per block, each in
        the low half of a 64-bit lane.  F is evaluated for all lanes at
        once: the lane bytes are split into four byte planes, each plane
        goes through four translate tables (one per byte of that S-box's
        output), and the results are spread back into lanes.  The upper
        half of every lane is headroom, so the two additions of F carry
        into the lane's own bits and F needs one mask, as in the scalar
        rounds.
        """
        size = len(data)
        from_bytes = int.from_bytes
        one = from_bytes(_LANE_ONE * (size // BLOCK_SIZE), "big")
        mask = one * _MASK32
        value = from_bytes(data, "big")
        left = (value >> 32) & mask
        right = value & mask
        lanes = bytearray(size)  # headroom bytes stay zero throughout
        (t00, t01, t02, t03, t10, t11, t12, t13,
         t20, t21, t22, t23, t30, t31, t32, t33) = self._planes

        def feistel(x: int) -> int:
            # A bytearray plane translates to a bytearray, which the
            # strided stores take without a conversion copy.
            raw = bytearray(x.to_bytes(size, "big"))
            plane = raw[4::8]
            lanes[4::8] = plane.translate(t00)
            lanes[5::8] = plane.translate(t01)
            lanes[6::8] = plane.translate(t02)
            lanes[7::8] = plane.translate(t03)
            mixed = from_bytes(lanes, "big")
            plane = raw[5::8]
            lanes[4::8] = plane.translate(t10)
            lanes[5::8] = plane.translate(t11)
            lanes[6::8] = plane.translate(t12)
            lanes[7::8] = plane.translate(t13)
            mixed += from_bytes(lanes, "big")
            plane = raw[6::8]
            lanes[4::8] = plane.translate(t20)
            lanes[5::8] = plane.translate(t21)
            lanes[6::8] = plane.translate(t22)
            lanes[7::8] = plane.translate(t23)
            mixed ^= from_bytes(lanes, "big")
            plane = raw[7::8]
            lanes[4::8] = plane.translate(t30)
            lanes[5::8] = plane.translate(t31)
            lanes[6::8] = plane.translate(t32)
            lanes[7::8] = plane.translate(t33)
            return (mixed + from_bytes(lanes, "big")) & mask

        p = self._p
        for i in range(_P_SIZE - 1, 1, -2):
            left ^= p[i] * one
            right ^= feistel(left)
            right ^= p[i - 1] * one
            left ^= feistel(right)
        value = ((right ^ p[0] * one) << 32) | (left ^ p[1] * one)
        return (value ^ from_bytes(chain, "big")).to_bytes(size, "big")

    def ctr_xor(self, data: bytes, nonce: bytes) -> bytes:
        """Counter-mode transform (encrypt == decrypt) of any-length data.

        Keystream blocks are E(nonce + i mod 2^64); the whole message is
        XORed against the keystream as one big integer.
        """
        length = len(data)
        if length == 0:
            return b""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9,
         p10, p11, p12, p13, p14, p15, p16, p17) = self._p
        mask32 = _MASK32
        mask64 = _MASK64
        start = int.from_bytes(nonce, "big")
        count = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
        blocks = []
        append = blocks.append
        for counter in range(count):
            value = (start + counter) & mask64
            xl = value >> 32
            xr = value & mask32
            xl ^= p0
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p1
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p2
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p3
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p4
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p5
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p6
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p7
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p8
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p9
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p10
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p11
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p12
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p13
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            xl ^= p14
            xr ^= (((s0[xl >> 24] + s1[xl >> 16 & 255]) ^ s2[xl >> 8 & 255]) + s3[xl & 255]) & mask32
            xr ^= p15
            xl ^= (((s0[xr >> 24] + s1[xr >> 16 & 255]) ^ s2[xr >> 8 & 255]) + s3[xr & 255]) & mask32
            append(((xr ^ p17) << 32) | (xl ^ p16))
        keystream = _struct.pack(f">{count}Q", *blocks)[:length]
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
        return mixed.to_bytes(length, "big")


#: Eric Young's variable-key test vectors (key, plaintext, ciphertext).
#: ``self_test`` checks a representative subset so a mis-derived pi table
#: or round-function bug cannot slip through silently.
TEST_VECTORS = (
    ("0000000000000000", "0000000000000000", "4EF997456198DD78"),
    ("FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "51866FD5B85ECB8A"),
    ("3000000000000000", "1000000000000001", "7D856F9A613063F2"),
    ("1111111111111111", "1111111111111111", "2466DD878B963C9D"),
    ("0123456789ABCDEF", "1111111111111111", "61F9C3802281B096"),
    ("FEDCBA9876543210", "0123456789ABCDEF", "0ACEAB0FC6A0A28D"),
    ("7CA110454A1A6E57", "01A1D6D039776742", "59C68245EB05282B"),
)


def self_test() -> None:
    """Verify the implementation against published test vectors.

    Raises :class:`~repro.errors.CipherError` on any mismatch.
    """
    for key_hex, plain_hex, cipher_hex in TEST_VECTORS:
        cipher = Blowfish(bytes.fromhex(key_hex))
        got = cipher.encrypt_block(bytes.fromhex(plain_hex)).hex().upper()
        if got != cipher_hex:
            raise CipherError(
                f"Blowfish self-test failed: key={key_hex} plain={plain_hex}"
                f" expected={cipher_hex} got={got}"
            )
        back = cipher.decrypt_block(bytes.fromhex(cipher_hex)).hex().upper()
        if back != plain_hex:
            raise CipherError(
                f"Blowfish decrypt self-test failed for key={key_hex}"
            )
