"""Cipher-schedule cache: reuse, LRU eviction, explicit invalidation.

The regression this guards: the seed's cipher suite derived a fresh
Blowfish key schedule (521 block encryptions) inside *every* encrypt and
decrypt call.  ``Blowfish.constructions`` counts schedules process-wide,
so these tests prove reuse by construction count, not by timing.
"""

from __future__ import annotations

import pytest

from repro.crypto.blowfish import Blowfish
from repro.crypto.cipher_cache import (
    CipherCache,
    default_cache,
    get_cached_cipher,
    invalidate_key,
)
from repro.crypto.random_source import DeterministicSource
from repro.secure.ciphers import get_cipher_suite


def key_of(index: int) -> bytes:
    return bytes((index + i) & 0xFF for i in range(16))


def test_hit_returns_same_instance_without_new_schedule():
    cache = CipherCache()
    before = Blowfish.constructions
    first = cache.get(key_of(1))
    assert Blowfish.constructions == before + 1
    again = cache.get(key_of(1))
    assert again is first
    assert Blowfish.constructions == before + 1  # no second schedule
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_distinct_keys_get_distinct_schedules():
    cache = CipherCache()
    a = cache.get(key_of(1))
    b = cache.get(key_of(2))
    assert a is not b
    block = b"\x11" * 8
    assert a.encrypt_block(block) != b.encrypt_block(block)


def test_lru_eviction_drops_least_recent():
    cache = CipherCache(maxsize=2)
    cache.get(key_of(1))
    cache.get(key_of(2))
    cache.get(key_of(1))  # key 1 is now most recent
    cache.get(key_of(3))  # evicts key 2
    assert key_of(1) in cache
    assert key_of(2) not in cache
    assert key_of(3) in cache
    assert cache.stats()["evictions"] == 1
    assert len(cache) == 2


def test_invalidate_removes_and_counts():
    cache = CipherCache()
    cache.get(key_of(7))
    assert cache.invalidate(key_of(7)) is True
    assert key_of(7) not in cache
    assert cache.invalidate(key_of(7)) is False  # already gone
    assert cache.stats()["invalidations"] == 1


def test_invalidated_key_rederives_fresh_schedule():
    cache = CipherCache()
    first = cache.get(key_of(9))
    cache.invalidate(key_of(9))
    before = Blowfish.constructions
    second = cache.get(key_of(9))
    assert second is not first
    assert Blowfish.constructions == before + 1


def test_clear_empties_cache():
    cache = CipherCache()
    cache.get(key_of(1))
    cache.get(key_of(2))
    cache.clear()
    assert len(cache) == 0


def test_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        CipherCache(maxsize=0)


def test_module_level_cache_and_invalidation():
    key = key_of(42)
    invalidate_key(key)  # clean slate no matter what ran before
    cipher = get_cached_cipher(key)
    assert get_cached_cipher(key) is cipher
    assert key in default_cache()
    invalidate_key(key)
    assert key not in default_cache()


def test_cipher_suite_reuses_one_schedule_across_messages():
    """The seed's regression: suite.encrypt/decrypt derived a schedule
    per call.  Steady-state traffic must now cost zero new schedules."""
    suite = get_cipher_suite("blowfish-cbc")
    key = key_of(77)
    invalidate_key(key)
    rng = DeterministicSource(5)

    suite.encrypt(key, b"warm the cache", rng)  # one schedule derivation
    before = Blowfish.constructions
    hits_before = default_cache().hits
    for i in range(20):
        sealed = suite.encrypt(key, b"payload %d" % i, rng)
        assert suite.decrypt(key, sealed) == b"payload %d" % i
    assert Blowfish.constructions == before  # zero new schedules
    assert default_cache().hits >= hits_before + 40  # 20 seals + 20 opens
    invalidate_key(key)


def test_keyed_cipher_is_cached_instance():
    suite = get_cipher_suite("blowfish-cbc")
    key = key_of(90)
    invalidate_key(key)
    cipher = suite.keyed(key)
    assert suite.keyed(key) is cipher
    rng = DeterministicSource(6)
    sealed = suite.encrypt_with(cipher, b"direct", rng)
    assert suite.decrypt_with(cipher, [sealed]) == [b"direct"]
    invalidate_key(key)
