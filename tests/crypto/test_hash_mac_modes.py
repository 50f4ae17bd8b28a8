"""HMAC, CBC mode and padding tests.

The library takes SHA-1 from ``hashlib``; the from-scratch
``ReferenceSHA1`` in ``tests/crypto/reference.py`` is the independent
oracle the HMAC cross-checks lean on, so it is itself pinned here
against the published answer and against ``hashlib``.
"""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blowfish import BLOCK_SIZE, Blowfish
from repro.crypto.hmac_mac import HmacKey, hmac_digest, hmac_verify
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad
from repro.crypto.random_source import DeterministicSource
from repro.errors import CipherError
from tests.crypto.reference import ReferenceSHA1, reference_sha1


# -- SHA-1 (the test oracle) ---------------------------------------------------


@pytest.mark.parametrize(
    "message",
    [b"", b"abc", b"a" * 55, b"a" * 56, b"a" * 63, b"a" * 64, b"a" * 65, b"x" * 1000],
)
def test_sha1_matches_hashlib(message):
    assert reference_sha1(message) == hashlib.sha1(message).digest()


def test_sha1_known_answer():
    assert reference_sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"


def test_sha1_digest_does_not_consume():
    h = ReferenceSHA1(b"data")
    first = h.digest()
    second = h.digest()
    assert first == second
    h.update(b"more")
    assert h.digest() == reference_sha1(b"datamore")


@settings(max_examples=20, deadline=None)
@given(parts=st.lists(st.binary(max_size=100), max_size=6))
def test_sha1_chunking_invariance(parts):
    h = ReferenceSHA1()
    for part in parts:
        h.update(part)
    assert h.digest() == hashlib.sha1(b"".join(parts)).digest()


# -- HMAC -----------------------------------------------------------------------

# RFC 2202 section 3, HMAC-SHA1 test cases 1-7: (key, data, digest).
# Cases 6 and 7 carry an 80-byte key, longer than the 64-byte block, so
# they exercise the hash-the-key-first branch.
RFC2202_HMAC_SHA1 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
    ),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
    ),
    (
        b"\x0c" * 20,
        b"Test With Truncation",
        "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
    ),
    (
        b"\xaa" * 80,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "aa4ae5e15272d00e95705637ce8a3b55ed402112",
    ),
    (
        b"\xaa" * 80,
        b"Test Using Larger Than Block-Size Key and Larger"
        b" Than One Block-Size Data",
        "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
    ),
]


@pytest.mark.parametrize("key, data, expected", RFC2202_HMAC_SHA1)
def test_hmac_rfc2202_vectors(key, data, expected):
    assert hmac_digest(key, data).hex() == expected
    prepared = HmacKey(key)
    assert prepared.digest(data).hex() == expected
    # The prepared midstates are copied per message, never consumed.
    assert prepared.digest(data).hex() == expected
    assert prepared.verify(data, bytes.fromhex(expected))


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=1, max_size=120), message=st.binary(max_size=200))
def test_hmac_matches_stdlib(key, message):
    expected = stdlib_hmac.new(key, message, hashlib.sha1).digest()
    assert hmac_digest(key, message) == expected


def test_hmac_verify_accepts_good_tag():
    tag = hmac_digest(b"k", b"m")
    assert hmac_verify(b"k", b"m", tag)


def test_hmac_verify_rejects_bad_tag():
    tag = bytearray(hmac_digest(b"k", b"m"))
    tag[0] ^= 0x01
    assert not hmac_verify(b"k", b"m", bytes(tag))


def test_hmac_verify_rejects_wrong_key():
    tag = hmac_digest(b"k1", b"m")
    assert not hmac_verify(b"k2", b"m", tag)


# -- Padding -----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=100))
def test_pkcs7_roundtrip(data):
    padded = pkcs7_pad(data)
    assert len(padded) % BLOCK_SIZE == 0
    assert pkcs7_unpad(padded) == data


def test_pkcs7_always_adds_padding():
    assert len(pkcs7_pad(b"x" * BLOCK_SIZE)) == 2 * BLOCK_SIZE


def test_pkcs7_unpad_rejects_bad_length_byte():
    with pytest.raises(CipherError):
        pkcs7_unpad(b"\x00" * BLOCK_SIZE)
    with pytest.raises(CipherError):
        pkcs7_unpad(b"\x07" * 7 + b"\x09")  # 9 > block size? length 8, byte 9


def test_pkcs7_unpad_rejects_inconsistent_padding():
    with pytest.raises(CipherError):
        pkcs7_unpad(b"abcd\x01\x02\x03\x04")


def test_pkcs7_unpad_rejects_unaligned():
    with pytest.raises(CipherError):
        pkcs7_unpad(b"abc")


# -- CBC ---------------------------------------------------------------------------


def test_cbc_roundtrip():
    cipher = Blowfish(b"groupkey")
    ct = cbc_encrypt(cipher, b"attack at dawn", DeterministicSource(1))
    assert cbc_decrypt(cipher, ct) == b"attack at dawn"


def test_cbc_fresh_iv_randomizes_ciphertext():
    cipher = Blowfish(b"groupkey")
    source = DeterministicSource(2)
    a = cbc_encrypt(cipher, b"same message", source)
    b = cbc_encrypt(cipher, b"same message", source)
    assert a != b


def test_cbc_explicit_iv_is_deterministic():
    cipher = Blowfish(b"groupkey")
    iv = b"\x01" * BLOCK_SIZE
    assert cbc_encrypt(cipher, b"m", iv=iv) == cbc_encrypt(cipher, b"m", iv=iv)


def test_cbc_wrong_iv_size_raises():
    cipher = Blowfish(b"groupkey")
    with pytest.raises(CipherError):
        cbc_encrypt(cipher, b"m", iv=b"short")


def test_cbc_decrypt_rejects_truncated():
    cipher = Blowfish(b"groupkey")
    with pytest.raises(CipherError):
        cbc_decrypt(cipher, b"\x00" * BLOCK_SIZE)  # only an IV, no blocks


def test_cbc_wrong_key_fails_padding_or_garbage():
    good = Blowfish(b"goodkey1")
    bad = Blowfish(b"badkey22")
    ct = cbc_encrypt(good, b"secret payload", DeterministicSource(3))
    try:
        plaintext = cbc_decrypt(bad, ct)
    except CipherError:
        return  # padding check caught it
    assert plaintext != b"secret payload"


@settings(max_examples=25, deadline=None)
@given(message=st.binary(max_size=256), key=st.binary(min_size=8, max_size=32))
def test_cbc_roundtrip_property(message, key):
    cipher = Blowfish(key)
    ct = cbc_encrypt(cipher, message, DeterministicSource(4))
    assert cbc_decrypt(cipher, ct) == message


def test_cbc_empty_message_roundtrip():
    cipher = Blowfish(b"groupkey")
    ct = cbc_encrypt(cipher, b"", DeterministicSource(5))
    assert cbc_decrypt(cipher, ct) == b""
