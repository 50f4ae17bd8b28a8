"""Cipher suite modularity: CTR mode, registry, per-group suite choice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blowfish import BLOCK_SIZE, Blowfish
from repro.crypto.kdf import derive_keys
from repro.crypto.modes import ctr_decrypt, ctr_encrypt
from repro.crypto.random_source import DeterministicSource
from repro.errors import CipherError, ModuleNotFoundError_
from repro.secure.ciphers import (
    CipherSuite,
    cipher_suite_names,
    get_cipher_suite,
    register_cipher_suite,
)
from repro.secure.dataprotect import DataProtector

from tests.secure.conftest import SecureHarness


# -- CTR mode ----------------------------------------------------------------------


def test_ctr_roundtrip():
    cipher = Blowfish(b"ctr-key1")
    data = ctr_encrypt(cipher, b"stream me", DeterministicSource(1))
    assert ctr_decrypt(cipher, data) == b"stream me"


def test_ctr_no_padding_overhead():
    cipher = Blowfish(b"ctr-key1")
    plaintext = b"x" * 100
    data = ctr_encrypt(cipher, plaintext, DeterministicSource(1))
    assert len(data) == BLOCK_SIZE + 100  # nonce + exact length


def test_ctr_fresh_nonce_randomizes():
    cipher = Blowfish(b"ctr-key1")
    source = DeterministicSource(2)
    a = ctr_encrypt(cipher, b"same", source)
    b = ctr_encrypt(cipher, b"same", source)
    assert a != b


def test_ctr_explicit_nonce_deterministic():
    cipher = Blowfish(b"ctr-key1")
    nonce = b"\x01" * BLOCK_SIZE
    assert ctr_encrypt(cipher, b"m", nonce=nonce) == ctr_encrypt(
        cipher, b"m", nonce=nonce
    )


def test_ctr_bad_nonce_size():
    cipher = Blowfish(b"ctr-key1")
    with pytest.raises(CipherError):
        ctr_encrypt(cipher, b"m", nonce=b"short")


def test_ctr_decrypt_too_short():
    cipher = Blowfish(b"ctr-key1")
    with pytest.raises(CipherError):
        ctr_decrypt(cipher, b"tiny")


def test_ctr_counter_wraps_across_blocks():
    cipher = Blowfish(b"ctr-key1")
    nonce = (2 ** 64 - 1).to_bytes(BLOCK_SIZE, "big")  # forces wrap
    plaintext = b"z" * (3 * BLOCK_SIZE)
    data = ctr_encrypt(cipher, plaintext, nonce=nonce)
    assert ctr_decrypt(cipher, data) == plaintext


@settings(max_examples=30, deadline=None)
@given(message=st.binary(max_size=200), key=st.binary(min_size=8, max_size=32))
def test_ctr_roundtrip_property(message, key):
    cipher = Blowfish(key)
    data = ctr_encrypt(cipher, message, DeterministicSource(3))
    assert ctr_decrypt(cipher, data) == message


# -- registry ---------------------------------------------------------------------------


def test_registry_ships_both_suites():
    assert set(cipher_suite_names()) >= {"blowfish-cbc", "blowfish-ctr"}


def test_unknown_suite_raises():
    with pytest.raises(ModuleNotFoundError_):
        get_cipher_suite("rot13")


def test_register_custom_suite():
    xor = CipherSuite(
        "test-xor",
        lambda cipher, pt, rng: bytes(b ^ 0x42 for b in pt),
        lambda cipher, run: [bytes(b ^ 0x42 for b in data) for data in run],
    )
    register_cipher_suite(xor)
    assert "test-xor" in cipher_suite_names()
    suite = get_cipher_suite("test-xor")
    assert suite.decrypt(b"k" * 8, suite.encrypt(b"k" * 8, b"hi", None)) == b"hi"


# -- DataProtector with suites --------------------------------------------------------------


def test_protector_with_ctr_roundtrip():
    keys = derive_keys(4242, "g|v", 0)
    protector = DataProtector(keys, "g|v|0", cipher="blowfish-ctr")
    sealed = protector.seal("g", "#a#d0", b"via ctr", DeterministicSource(4))
    assert protector.unseal((sealed,)) == [b"via ctr"]


def test_ctr_protector_unseals_a_run():
    keys = derive_keys(4242, "g|v", 0)
    protector = DataProtector(keys, "g|v|0", cipher="blowfish-ctr")
    payloads = [b"", b"one", b"x" * 100, bytes(range(256))]
    sealed = protector.seal_many("g", "#a#d0", payloads, DeterministicSource(6))
    assert protector.unseal(sealed) == payloads


def test_cbc_and_ctr_protectors_incompatible():
    keys = derive_keys(4242, "g|v", 0)
    cbc = DataProtector(keys, "g|v|0", cipher="blowfish-cbc")
    ctr = DataProtector(keys, "g|v|0", cipher="blowfish-ctr")
    sealed = cbc.seal("g", "#a#d0", b"mode matters", DeterministicSource(5))
    # Same keys, same MAC: the tag verifies, but the plaintext differs
    # (CTR interprets the CBC bytes as a keystream xor) — which is why
    # the session folds the suite name into key derivation.
    assert ctr.unseal((sealed,)) != [b"mode matters"]


# -- end to end -----------------------------------------------------------------------------


def test_group_using_ctr_suite():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", cipher="blowfish-ctr")
    h.wait_view(["a"])
    b.join("g", cipher="blowfish-ctr")
    h.wait_view(["a", "b"])
    a.send("g", b"streamed secret")
    h.run_until(lambda: b"streamed secret" in h.payloads_of("b"))


def test_cipher_choice_changes_derived_keys():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g1", cipher="blowfish-cbc")
    h.wait_view(["a"], group="g1")
    a.join("g2", cipher="blowfish-ctr")
    h.wait_view(["a"], group="g2")
    # Same member, but the suite name feeds the KDF context.
    assert (
        a.sessions["g1"]._session_keys.encryption_key
        != a.sessions["g2"]._session_keys.encryption_key
    )


def test_mismatched_suites_never_confirm():
    """One member picks CBC, the other CTR: key fingerprints disagree and
    the view must not confirm (no garbage traffic)."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", cipher="blowfish-cbc")
    h.wait_view(["a"])
    b.join("g", cipher="blowfish-ctr")
    h.run(5.0)
    # The mismatch triggers fingerprint-mismatch restarts forever; the
    # group never reaches a confirmed two-member view.
    assert h.secure_members_of("a") != {str(a.pid), str(b.pid)} or not h.same_key(
        ["a", "b"]
    )
