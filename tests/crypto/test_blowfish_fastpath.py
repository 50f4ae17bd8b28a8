"""The data-plane fast path: word-level Blowfish, buffer modes, padding.

Three layers of defense around the optimized cipher core:

* **Published vectors** — Eric Young's ``set_key`` sweep (keys of 4..24
  bytes) pins the key schedule against the world, not against ourselves.
* **Captured KATs** — CBC/CTR outputs and an extended 25..56-byte key
  sweep recorded from the pre-optimization implementation, so the
  unrolled rewrite provably changed no bit of any output.
* **Oracle equivalence** — property tests against the slow reference
  implementation in ``tests/crypto/reference.py``.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blowfish import BLOCK_SIZE, Blowfish
from repro.crypto.hmac_mac import HmacKey, hmac_digest
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_decrypt,
    ctr_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.errors import CipherError
from tests.crypto.reference import (
    ReferenceBlowfish,
    ReferenceSHA1,
    reference_cbc_decrypt,
    reference_cbc_encrypt,
    reference_ctr_xor,
    reference_hmac_digest,
)


class FixedSource:
    """Deterministic IV/nonce source for known-answer tests."""

    def __init__(self, token: bytes) -> None:
        self.token = token

    def token_bytes(self, count: int) -> bytes:
        return self.token[:count]


# -- Eric Young's set_key sweep (published vectors) ---------------------------

_SET_KEY_FULL = bytes.fromhex(
    "F0E1D2C3B4A5968778695A4B3C2D1E0F0011223344556677"
)
_SET_KEY_PLAINTEXT = bytes.fromhex("FEDCBA9876543210")

#: (key length, ciphertext) for keys that are prefixes of the 24-byte
#: set_key master key — from Eric Young's published vector file.
SET_KEY_VECTORS = [
    (4, "BE1E639408640F05"),
    (5, "B39E44481BDB1E6E"),
    (6, "9457AA83B1928C0D"),
    (7, "8BB77032F960629D"),
    (8, "E87A244E2CC85E82"),
    (9, "15750E7A4F4EC577"),
    (10, "122BA70B3AB64AE0"),
    (11, "3A833C9AFFC537F6"),
    (12, "9409DA87A90F6BF2"),
    (13, "884F80625060B8B4"),
    (14, "1F85031C19E11968"),
    (15, "79D9373A714CA34F"),
    (16, "93142887EE3BE15C"),
    (17, "03429E838CE2D14B"),
    (18, "A4299E27469FF67B"),
    (19, "AFD5AED1C1BC96A8"),
    (20, "10851C0E3858DA9F"),
    (21, "E6F51ED79B9DB21F"),
    (22, "64A6E14AFD36B46F"),
    (23, "80C7D7D45A5479AD"),
    (24, "05044B62FA52D080"),
]

#: Keys of 25..56 bytes (beyond the published file): byte ``i`` of the
#: key is ``(i * 7 + 3) & 0xFF``.  Captured from the pre-optimization
#: implementation, which itself matched the published 4..24 sweep.
EXTENDED_KEY_VECTORS = [
    (25, "F02C2CBC8C3B721A"),
    (26, "52880AA271D1B465"),
    (27, "CFEF6F26417C21F4"),
    (28, "2CC6542AF1DCBE15"),
    (29, "BAA39127F717A990"),
    (30, "72A4B5E93ACAA01E"),
    (31, "6AD3344906B80C7D"),
    (32, "3588A672FBA2EC4B"),
    (33, "81F5BAE9C50DE3BC"),
    (34, "4577E2759FB3FF0F"),
    (35, "B3E6CD82FEB6BD33"),
    (36, "FF0914BC9367C67B"),
    (37, "D0531DE655FD8A6F"),
    (38, "77941D96BD068571"),
    (39, "4DDF002112AC2B5C"),
    (40, "382EE21512A0C2ED"),
    (41, "A84100B963A05BBD"),
    (42, "D5E299AE30B9B552"),
    (43, "7EFA38411579BBF8"),
    (44, "8BE134CF2872EEB3"),
    (45, "431215182BF0EC8D"),
    (46, "5B703146C647A098"),
    (47, "C4107D2871B82515"),
    (48, "F7B34521CF003618"),
    (49, "3979846B65D0390D"),
    (50, "359BD0F01CFFEF13"),
    (51, "91F3D97637952724"),
    (52, "C88C0E7D8B5CA4FD"),
    (53, "F0B2875076E0A9D3"),
    (54, "D5D0ACC4767400BC"),
    (55, "83A8829DF07DB965"),
    (56, "83CBADE6A7845D32"),
]


@pytest.mark.parametrize("key_len,cipher_hex", SET_KEY_VECTORS)
def test_set_key_sweep_published(key_len, cipher_hex):
    cipher = Blowfish(_SET_KEY_FULL[:key_len])
    assert (
        cipher.encrypt_block(_SET_KEY_PLAINTEXT).hex().upper() == cipher_hex
    )


@pytest.mark.parametrize("key_len,cipher_hex", EXTENDED_KEY_VECTORS)
def test_set_key_sweep_extended(key_len, cipher_hex):
    key = bytes((i * 7 + 3) & 0xFF for i in range(key_len))
    cipher = Blowfish(key)
    assert (
        cipher.encrypt_block(_SET_KEY_PLAINTEXT).hex().upper() == cipher_hex
    )
    assert cipher.decrypt_block(bytes.fromhex(cipher_hex)) == _SET_KEY_PLAINTEXT


# -- captured mode KATs (pre-optimization outputs, bit-for-bit) ---------------

_KAT_KEY = b"pinned-cbc-key-16"[:16]
_KAT_MESSAGES = [
    b"",
    b"fastpath",
    b"The quick brown fox jumps over the lazy dog",
    bytes(range(64)),
]
_CBC_IV = bytes(range(8))
_CBC_EXPECTED = [
    "0001020304050607778e1e5b7ca03c0a",
    "00010203040506070e6f118ea4de689b13ae4e727f6650ab",
    "00010203040506070231bfd417da6e3ecb690216bdd4bebb"
    "c4c11649cff6c6c364aa20df84db84dc9ce4c93c49639192"
    "8c225804e4cdb2aa",
    "0001020304050607ff40ed5dcc98e356a3733bfcc22e6023"
    "13fa81abb64e2bfc0e12ce7a6be337d5394f8a91ba8df4e9"
    "2a86934a0af89fb1c7df3898ae24a7aeb19ce91b8769d9cf"
    "308212a915cb8602",
]
_CTR_NONCE = b"\xff" * 8
_CTR_EXPECTED = [
    "ffffffffffffffff",
    "ffffffffffffffffe87a359670e90e7c",
    "ffffffffffffffffda7323c271fd137794608f2fa3ef8d76"
    "90bd28aafddf9ae66df62ad5272c805c4187de908715a3b4"
    "c539f8",
    "ffffffffffffffff8e1a44e1048d7c13f749e756c095ed59"
    "e6c3429983bfe18106cf5fb85e43be3709c3dcdfc24afcb3"
    "897fb5cdf218d9a765afda7a5500d4bea23d08b598ed73ae",
]


@pytest.mark.parametrize(
    "message,expected", zip(_KAT_MESSAGES, _CBC_EXPECTED)
)
def test_cbc_known_answers(message, expected):
    cipher = Blowfish(_KAT_KEY)
    sealed = cbc_encrypt(cipher, message, FixedSource(_CBC_IV))
    assert sealed.hex() == expected
    assert cbc_decrypt(cipher, sealed) == message


@pytest.mark.parametrize(
    "message,expected", zip(_KAT_MESSAGES, _CTR_EXPECTED)
)
def test_ctr_known_answers(message, expected):
    cipher = Blowfish(_KAT_KEY)
    sealed = ctr_encrypt(cipher, message, FixedSource(_CTR_NONCE))
    assert sealed.hex() == expected
    assert ctr_decrypt(cipher, sealed) == message


# -- oracle equivalence -------------------------------------------------------

_EQUIV_KEY = b"equivalence-key!"
_FAST = Blowfish(_EQUIV_KEY)
_SLOW = ReferenceBlowfish(_EQUIV_KEY)


@settings(max_examples=25, deadline=None)
@given(key=st.binary(min_size=4, max_size=56))
def test_key_schedule_matches_reference(key):
    fast = Blowfish(key)
    slow = ReferenceBlowfish(key)
    block = b"\x5a" * BLOCK_SIZE
    assert fast.encrypt_block(block) == slow.encrypt_block(block)
    assert fast.decrypt_block(block) == slow.decrypt_block(block)


@settings(deadline=None)
@given(block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE))
def test_block_ops_match_reference(block):
    sealed = _FAST.encrypt_block(block)
    assert sealed == _SLOW.encrypt_block(block)
    assert _FAST.decrypt_block(sealed) == block


@settings(deadline=None)
@given(
    blocks=st.integers(min_value=0, max_value=9),
    data=st.data(),
)
def test_cbc_buffers_match_reference(blocks, data):
    padded = data.draw(
        st.binary(min_size=blocks * BLOCK_SIZE, max_size=blocks * BLOCK_SIZE)
    )
    iv = data.draw(st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE))
    sealed = _FAST.cbc_encrypt_blocks(padded, iv)
    assert sealed == reference_cbc_encrypt(_SLOW, padded, iv)
    assert _FAST.cbc_decrypt_blocks(sealed, iv) == reference_cbc_decrypt(
        _SLOW, sealed, iv
    )


@settings(deadline=None)
@given(
    data=st.binary(min_size=0, max_size=100),
    nonce=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
)
def test_ctr_matches_reference(data, nonce):
    assert _FAST.ctr_xor(data, nonce) == reference_ctr_xor(_SLOW, data, nonce)


def test_ctr_counter_wraps_past_2_64():
    nonce = b"\xff" * BLOCK_SIZE  # counter 2^64 - 1; next block wraps to 0
    data = bytes(24)
    assert _FAST.ctr_xor(data, nonce) == reference_ctr_xor(_SLOW, data, nonce)


# -- mode round-trips (random lengths, incl. 0 and exact multiples) ----------


@settings(deadline=None)
@given(message=st.binary(min_size=0, max_size=120))
def test_cbc_roundtrip(message):
    sealed = cbc_encrypt(_FAST, message, FixedSource(b"\x24" * BLOCK_SIZE))
    assert cbc_decrypt(_FAST, sealed) == message


@pytest.mark.parametrize("length", [0, BLOCK_SIZE, 4 * BLOCK_SIZE])
def test_cbc_roundtrip_exact_multiples(length):
    message = bytes(range(256))[:length]
    sealed = cbc_encrypt(_FAST, message, FixedSource(b"\x42" * BLOCK_SIZE))
    # Always-pad PKCS#7: a block-multiple message gains one full block.
    assert len(sealed) == BLOCK_SIZE + length + BLOCK_SIZE
    assert cbc_decrypt(_FAST, sealed) == message


@settings(deadline=None)
@given(message=st.binary(min_size=0, max_size=120))
def test_ctr_roundtrip(message):
    sealed = ctr_encrypt(_FAST, message, FixedSource(b"\x99" * BLOCK_SIZE))
    assert ctr_decrypt(_FAST, sealed) == message
    # CTR is length-preserving modulo the prepended nonce.
    assert len(sealed) == BLOCK_SIZE + len(message)


# -- PKCS#7 negative space ----------------------------------------------------


def test_unpad_rejects_truncated_buffer():
    padded = pkcs7_pad(b"some message")
    with pytest.raises(CipherError):
        pkcs7_unpad(padded[:-1])
    with pytest.raises(CipherError):
        pkcs7_unpad(b"")


def test_unpad_rejects_non_block_multiple():
    with pytest.raises(CipherError):
        pkcs7_unpad(b"x" * (BLOCK_SIZE + 3))


def test_unpad_rejects_corrupt_interior_pad_byte():
    padded = bytearray(pkcs7_pad(b"abc"))  # 5 bytes of \x05 padding
    padded[-3] ^= 0x01
    with pytest.raises(CipherError):
        pkcs7_unpad(bytes(padded))


def test_unpad_rejects_bad_length_byte():
    block = b"\x00" * (BLOCK_SIZE - 1)
    with pytest.raises(CipherError):
        pkcs7_unpad(block + b"\x00")  # zero length
    with pytest.raises(CipherError):
        pkcs7_unpad(block + bytes([BLOCK_SIZE + 1]))  # beyond block size


def test_unpad_rejections_are_indistinguishable():
    """Every in-block rejection raises the same message (oracle shape)."""
    messages = set()
    bad_inputs = [
        b"\x00" * BLOCK_SIZE,
        b"\x07" * 7 + b"\x09",
        pkcs7_pad(b"abc")[:-2] + b"\x00\x05",
    ]
    for bad in bad_inputs:
        with pytest.raises(CipherError) as excinfo:
            pkcs7_unpad(bad)
        messages.add(str(excinfo.value))
    assert len(messages) == 1


# -- SHA-1 / HMAC -------------------------------------------------------------
#
# The library's hash is ``hashlib``; ``ReferenceSHA1`` is the from-scratch
# oracle, so the HMAC cross-check below is not hashlib checking itself.


@settings(deadline=None)
@given(data=st.binary(min_size=0, max_size=300))
def test_sha1_matches_hashlib_and_reference(data):
    assert ReferenceSHA1(data).digest() == hashlib.sha1(data).digest()


@settings(deadline=None)
@given(
    key=st.binary(min_size=1, max_size=80),
    message=st.binary(min_size=0, max_size=200),
)
def test_hmac_key_matches_one_shot_and_reference(key, message):
    prepared = HmacKey(key)
    expected = hmac_digest(key, message)
    assert prepared.digest(message) == expected
    assert reference_hmac_digest(key, message) == expected
    assert prepared.verify(message, expected)
    assert not prepared.verify(message + b"x", expected)
