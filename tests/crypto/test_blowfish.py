"""Blowfish: published vectors, round-trips, and structural properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blowfish import (
    BLOCK_SIZE,
    MAX_KEY_BYTES,
    MIN_KEY_BYTES,
    TEST_VECTORS,
    Blowfish,
    pi_fraction_words,
    self_test,
)
from repro.errors import CipherError, KeyError_

from tests.crypto.reference import reference_pi_fraction_words


def test_self_test_passes():
    self_test()


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", TEST_VECTORS)
def test_published_vectors_encrypt(key_hex, plain_hex, cipher_hex):
    cipher = Blowfish(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(bytes.fromhex(plain_hex)).hex().upper() == cipher_hex


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", TEST_VECTORS)
def test_published_vectors_decrypt(key_hex, plain_hex, cipher_hex):
    cipher = Blowfish(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(cipher_hex)).hex().upper() == plain_hex


def test_pi_table_first_word_is_blowfish_p0():
    assert pi_fraction_words()[0] == 0x243F6A88
    assert pi_fraction_words()[1] == 0x85A308D3
    assert pi_fraction_words()[2] == 0x13198A2E
    assert pi_fraction_words()[3] == 0x03707344


def test_pi_table_length():
    assert len(pi_fraction_words()) == 18 + 4 * 256


@pytest.mark.parametrize("count", [1, 2, 18, 1042, 1500])
def test_pi_words_match_machins_formula(count):
    # Chudnovsky (library) against Machin (independent oracle), word for
    # word, at the cipher's width and at widths around it.
    assert pi_fraction_words(count) == reference_pi_fraction_words(count)


def test_key_size_limits():
    with pytest.raises(KeyError_):
        Blowfish(b"abc")  # 3 bytes, below minimum
    with pytest.raises(KeyError_):
        Blowfish(b"x" * (MAX_KEY_BYTES + 1))
    Blowfish(b"x" * MIN_KEY_BYTES)
    Blowfish(b"x" * MAX_KEY_BYTES)


def test_wrong_block_size_raises():
    cipher = Blowfish(b"testkey1")
    with pytest.raises(CipherError):
        cipher.encrypt_block(b"short")
    with pytest.raises(CipherError):
        cipher.decrypt_block(b"toolongtoolong")


def test_different_keys_different_ciphertexts():
    block = b"\x00" * BLOCK_SIZE
    assert Blowfish(b"key-one1").encrypt_block(block) != Blowfish(
        b"key-two2"
    ).encrypt_block(block)


def test_encryption_is_deterministic_per_key():
    block = b"repromsg"
    a = Blowfish(b"samekey1").encrypt_block(block)
    b = Blowfish(b"samekey1").encrypt_block(block)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=MIN_KEY_BYTES, max_size=MAX_KEY_BYTES),
    block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
)
def test_roundtrip_property(key, block):
    cipher = Blowfish(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=10, deadline=None)
@given(block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE))
def test_encrypt_never_identity_on_random_blocks(block):
    # Not a theorem of block ciphers, but overwhelmingly likely; a failure
    # here means the round function degenerated to a no-op.
    cipher = Blowfish(b"fixedkey")
    if block != cipher.encrypt_block(block):
        assert True
    else:  # pragma: no cover
        pytest.fail("encryption acted as identity")
