"""DH parameters, primality, exponentiation counters, KDF, bigint helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bigint import bytes_to_int, int_to_bytes, mod_exp, mod_inverse
from repro.crypto.counters import ExpCounter, global_counter
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.kdf import derive_keys
from repro.crypto.primes import (
    SAFE_PRIME_512,
    SAFE_PRIME_512_Q,
    generate_safe_prime,
    is_probable_prime,
    is_safe_prime,
)
from repro.crypto.random_source import DeterministicSource, SystemSource
from repro.errors import ParameterError
from repro.sim.rng import DeterministicRng


# -- primes ---------------------------------------------------------------------


@pytest.mark.parametrize("prime", [2, 3, 5, 7, 97, 1019, 2039, 104729])
def test_known_primes(prime):
    assert is_probable_prime(prime)


@pytest.mark.parametrize("composite", [0, 1, 4, 9, 561, 41041, 104728])
def test_known_composites(composite):
    # 561 and 41041 are Carmichael numbers - Fermat liars, Miller-Rabin must
    # still reject them.
    assert not is_probable_prime(composite)


def test_embedded_512_bit_params_are_safe_prime():
    assert SAFE_PRIME_512.bit_length() == 512
    assert SAFE_PRIME_512 == 2 * SAFE_PRIME_512_Q + 1
    assert is_safe_prime(SAFE_PRIME_512)


def test_generate_small_safe_prime():
    p, q = generate_safe_prime(32, DeterministicRng(9))
    assert p == 2 * q + 1
    assert is_safe_prime(p)
    assert p.bit_length() == 32


def test_generate_safe_prime_rejects_tiny():
    with pytest.raises(ParameterError):
        generate_safe_prime(8, DeterministicRng(0))


# -- DH params -----------------------------------------------------------------


def test_paper_params_validate():
    params = DHParams.paper_512()
    params.validate()
    assert params.bits == 512


def test_rfc2409_params_validate():
    params = DHParams.rfc2409_group2()
    params.validate()
    assert params.bits == 1024


def test_tiny_test_params_validate():
    DHParams.tiny_test().validate()


def test_params_reject_non_safe_structure():
    with pytest.raises(ParameterError):
        DHParams(p=23, q=7, g=2)  # 23 != 2*7+1


def test_params_reject_bad_generator():
    with pytest.raises(ParameterError):
        DHParams(p=2039, q=1019, g=1)
    with pytest.raises(ParameterError):
        DHParams(p=2039, q=1019, g=2038)


def test_two_party_dh_agreement():
    params = DHParams.tiny_test()
    source = DeterministicSource(7)
    alice = DHKeyPair.generate(params, source)
    bob = DHKeyPair.generate(params, source)
    assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)


def test_shared_secret_rejects_degenerate_public():
    params = DHParams.tiny_test()
    pair = DHKeyPair.generate(params, DeterministicSource(1))
    with pytest.raises(ParameterError):
        pair.shared_secret(1)
    with pytest.raises(ParameterError):
        pair.shared_secret(params.p - 1)


def test_keypair_with_system_source():
    pair = DHKeyPair.generate(DHParams.tiny_test(), SystemSource())
    assert 1 < pair.public < pair.params.p


def test_keypair_generate_leaves_counters_untouched():
    # Long-term key creation is outside the paper's per-operation costs:
    # it routes through mod_exp (the single choke point) but uncounted.
    from repro.crypto.counters import global_counter

    counter = ExpCounter()
    before = global_counter().total
    DHKeyPair.generate(DHParams.tiny_test(), DeterministicSource(5), counter)
    assert counter.total == 0
    assert global_counter().total == before


def test_validate_leaves_counters_untouched():
    from repro.crypto.counters import global_counter

    before = global_counter().total
    DHParams.tiny_test().validate()
    assert global_counter().total == before


def test_random_exponent_in_range():
    params = DHParams.tiny_test()
    source = DeterministicSource(3)
    for _ in range(50):
        exponent = params.random_exponent(source)
        assert 2 <= exponent <= params.q - 1


# -- counters -------------------------------------------------------------------


def test_counter_records_labels():
    counter = ExpCounter()
    counter.record("a")
    counter.record("a")
    counter.record("b", count=3)
    assert counter.total == 5
    assert counter.get("a") == 2
    assert counter.get("b") == 3
    assert counter.get("missing") == 0


def test_counter_reset():
    counter = ExpCounter()
    counter.record("x")
    counter.reset()
    assert counter.total == 0
    assert counter.snapshot() == {}


def test_counter_merge():
    a = ExpCounter()
    b = ExpCounter()
    a.record("x")
    b.record("x")
    b.record("y")
    a.merge(b)
    assert a.total == 3
    assert a.get("x") == 2
    assert a.get("y") == 1


def test_counter_window_measures_delta():
    counter = ExpCounter()
    counter.record("before")
    with counter.window() as window:
        counter.record("inside")
        counter.record("inside")
    assert window.total == 2
    assert window.by_label == {"inside": 2}
    assert counter.total == 3


def test_mod_exp_counts_on_given_counter():
    counter = ExpCounter()
    result = mod_exp(2, 10, 1000, counter=counter, label="test")
    assert result == 24
    assert counter.get("test") == 1


def test_mod_exp_falls_back_to_global_counter():
    before = global_counter().total
    mod_exp(2, 2, 100)
    assert global_counter().total == before + 1


def test_mod_exp_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        mod_exp(2, 2, 0)


def test_params_exp_counts():
    params = DHParams.tiny_test()
    counter = ExpCounter()
    params.exp(params.g, 5, counter, label="session_key")
    assert counter.get("session_key") == 1


# -- bigint helpers ---------------------------------------------------------------


def test_mod_inverse():
    assert mod_inverse(3, 7) == 5
    assert (3 * mod_inverse(3, 1019)) % 1019 == 1


def test_mod_inverse_not_coprime_raises():
    with pytest.raises(ParameterError):
        mod_inverse(6, 9)


def test_mod_inverse_bad_modulus():
    with pytest.raises(ParameterError):
        mod_inverse(3, 0)


@settings(max_examples=50, deadline=None)
@given(value=st.integers(min_value=0, max_value=2 ** 128))
def test_int_bytes_roundtrip(value):
    assert bytes_to_int(int_to_bytes(value)) == value


def test_int_to_bytes_fixed_length():
    assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"


def test_int_to_bytes_rejects_negative():
    with pytest.raises(ParameterError):
        int_to_bytes(-1)


# -- KDF -----------------------------------------------------------------------------


def test_kdf_deterministic():
    a = derive_keys(123456789, "group", 1)
    b = derive_keys(123456789, "group", 1)
    assert a == b


def test_kdf_separates_epochs():
    a = derive_keys(123456789, "group", 1)
    b = derive_keys(123456789, "group", 2)
    assert a.encryption_key != b.encryption_key
    assert a.mac_key != b.mac_key


def test_kdf_separates_groups():
    a = derive_keys(123456789, "group-a", 1)
    b = derive_keys(123456789, "group-b", 1)
    assert a.encryption_key != b.encryption_key


def test_kdf_separates_enc_and_mac():
    keys = derive_keys(42, "g", 0)
    assert keys.encryption_key != keys.mac_key[: len(keys.encryption_key)]


def test_kdf_key_sizes():
    keys = derive_keys(42, "g", 0)
    assert len(keys.encryption_key) == 16
    assert len(keys.mac_key) == 20


def test_kdf_fingerprint_stable_and_short():
    keys = derive_keys(42, "g", 0)
    assert keys.fingerprint() == derive_keys(42, "g", 0).fingerprint()
    assert len(keys.fingerprint()) == 8


# Captured at PR 22 (KDF over the from-scratch SHA-1, padded key
# re-prepared per output block): (secret, group, epoch) ->
# (encryption key, MAC key, fingerprint).  The hash provider and the
# expansion loop may change; these bytes may not.
KDF_GOLDENS = [
    (
        (0x1234567890ABCDEF1234567890ABCDEF, "g", 1),
        "ec4fd7af3dee3c1861abcaf86f2cfd1b",
        "345380eec9de0a15c4fe10c0dfcb9df0d4b5093d",
        "b27c9f9d",
    ),
    (
        (2 ** 511 + 12345, "paper-group", 7),
        "a5328b10482fc5ff673eaf44d0198cec",
        "a04bcdb48e4724d8d289e09aa9821ad1f853cc25",
        "9af43031",
    ),
    (
        (1, "", 0),
        "30a28dcf7dc2a473b1aaf2dbc87382ba",
        "c613e6050ccfcd729bfa5121e8480602fea895f0",
        "c030ffb7",
    ),
]


@pytest.mark.parametrize("args, encryption_key, mac_key, fingerprint", KDF_GOLDENS)
def test_kdf_pinned_bytes(args, encryption_key, mac_key, fingerprint):
    keys = derive_keys(*args)
    assert keys.encryption_key.hex() == encryption_key
    assert keys.mac_key.hex() == mac_key
    assert keys.fingerprint() == fingerprint


@settings(max_examples=25, deadline=None)
@given(secret=st.integers(min_value=1, max_value=2 ** 512))
def test_kdf_distinct_secrets_distinct_keys(secret):
    a = derive_keys(secret, "g", 0)
    b = derive_keys(secret + 1, "g", 0)
    assert a.encryption_key != b.encryption_key


def test_rfc3526_group14_params_validate():
    params = DHParams.rfc3526_group14()
    params.validate()
    assert params.bits == 2048


def test_small_test_params_validate():
    params = DHParams.small_test()
    params.validate()
    assert params.bits == 64


def test_two_party_agreement_across_all_fixed_groups():
    for params in (
        DHParams.tiny_test(),
        DHParams.small_test(),
        DHParams.paper_512(),
    ):
        source = DeterministicSource(11)
        alice = DHKeyPair.generate(params, source)
        bob = DHKeyPair.generate(params, source)
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)
