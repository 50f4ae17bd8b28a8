"""Fixed-base exponentiation tables: agreement with ``pow``, cache
behaviour, and the ``mod_exp`` backend routing."""

from __future__ import annotations

import random

import pytest

from repro.crypto import fixed_base
from repro.crypto.bigint import mod_exp
from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHParams
from repro.crypto.fixed_base import CombTable, FixedBaseCache, MIN_MODULUS_BITS

P512 = DHParams.paper_512()


def edge_exponents(params: DHParams):
    """The satellite's edge cases plus widths around the table capacity."""
    return [
        0,
        1,
        2,
        params.q - 1,
        params.q,
        params.p - 1,
        (1 << (params.bits - 1)) - 1,
        1 << (params.bits - 2),
    ]


@pytest.mark.parametrize("table_cls", [CombTable])
def test_tables_agree_with_pow_on_random_exponents(table_cls):
    rng = random.Random(0xF1CED)
    table = table_cls(P512.g, P512.p)
    for _ in range(40):
        e = rng.randrange(0, P512.q)
        assert table.pow(e) == pow(P512.g, e, P512.p)


@pytest.mark.parametrize("table_cls", [CombTable])
def test_tables_agree_with_pow_on_edge_exponents(table_cls):
    base = pow(P512.g, 0xBEEF, P512.p)
    table = table_cls(base, P512.p)
    for e in edge_exponents(P512):
        assert table.pow(e) == pow(base, e, P512.p), e


@pytest.mark.parametrize("table_cls", [CombTable])
def test_tables_handle_non_generator_bases(table_cls):
    rng = random.Random(7)
    for _ in range(3):
        base = rng.randrange(2, P512.p)
        table = table_cls(base, P512.p)
        e = rng.randrange(0, P512.q)
        assert table.pow(e) == pow(base, e, P512.p)


def test_capacity_matches_modulus_width():
    table = CombTable(3, P512.p)
    assert table.capacity_bits >= P512.bits
    # An exponent wider than the table is the caller's fallback case.
    assert fixed_base.fast_pow(3, 1 << (table.capacity_bits + 1), P512.p) is None


# -- the cache ---------------------------------------------------------------


def test_registered_generator_builds_on_first_lookup():
    cache = FixedBaseCache()
    cache.register(P512.g, P512.p)
    assert cache.stats()["size"] == 0
    table = cache.lookup(P512.g, P512.p)
    assert isinstance(table, CombTable)
    assert cache.stats()["builds"] == 1
    assert cache.lookup(P512.g, P512.p) is table
    assert cache.stats()["hits"] == 1


def test_unknown_base_promoted_after_repeat_sightings():
    cache = FixedBaseCache(promote_after=3)
    base = pow(P512.g, 1234, P512.p)
    assert cache.lookup(base, P512.p) is None
    assert cache.lookup(base, P512.p) is None
    table = cache.lookup(base, P512.p)  # third sighting: earns a table
    assert isinstance(table, CombTable)
    assert table.pow(5) == pow(base, 5, P512.p)


def test_cache_evicts_least_recently_used():
    cache = FixedBaseCache(maxsize=2)
    bases = [pow(P512.g, k, P512.p) for k in (2, 3, 4)]
    for base in bases:
        cache.precompute(base, P512.p)
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["evictions"] == 1
    assert (bases[0], P512.p) not in cache
    assert (bases[2], P512.p) in cache


def test_invalidate_and_clear():
    cache = FixedBaseCache()
    base = pow(P512.g, 77, P512.p)
    cache.precompute(base, P512.p)
    assert cache.invalidate(base, P512.p)
    assert not cache.invalidate(base, P512.p)
    cache.register(P512.g, P512.p)
    cache.lookup(P512.g, P512.p)
    cache.clear()
    assert cache.stats()["size"] == 0
    # Registration survives a clear: the generator rebuilds on demand.
    assert cache.lookup(P512.g, P512.p) is not None


# -- mod_exp routing ---------------------------------------------------------


def test_mod_exp_agrees_with_pow_through_the_fast_backend():
    rng = random.Random(0x5EED)
    for e in edge_exponents(P512) + [rng.randrange(0, P512.q) for _ in range(10)]:
        with fixed_base.fast_backend(True):
            fast = mod_exp(P512.g, e, P512.p)
        with fixed_base.fast_backend(False):
            ref = mod_exp(P512.g, e, P512.p)
        assert fast == ref == pow(P512.g, e, P512.p)


def test_mod_exp_reduces_out_of_range_bases():
    # The satellite regression: negative / >= modulus bases must agree
    # between backends (table keys are canonical reduced bases).
    for base in (-5, -P512.p - 3, P512.p + 12345, 2 * P512.p + 7):
        for enabled in (True, False):
            with fixed_base.fast_backend(enabled):
                assert mod_exp(base, 4321, P512.p) == pow(base, 4321, P512.p)


def test_mod_exp_counted_false_records_nothing():
    counter = ExpCounter()
    result = mod_exp(P512.g, 99, P512.p, counter=counter, counted=False)
    assert result == pow(P512.g, 99, P512.p)
    assert counter.total == 0
    mod_exp(P512.g, 99, P512.p, counter=counter, label="x")
    assert counter.snapshot() == {"x": 1}


def test_small_moduli_bypass_the_table_machinery():
    tiny = DHParams.tiny_test()
    assert tiny.bits < MIN_MODULUS_BITS
    assert fixed_base.fast_pow(tiny.g, 500, tiny.p) is None
    assert mod_exp(tiny.g, 500, tiny.p) == pow(tiny.g, 500, tiny.p)


def test_negative_exponent_falls_back_to_pow():
    with fixed_base.fast_backend(True):
        assert mod_exp(P512.g, -3, P512.p) == pow(P512.g, -3, P512.p)


def test_backend_switch_and_context_manager():
    assert fixed_base.fast_backend_enabled()
    with fixed_base.fast_backend(False):
        assert not fixed_base.fast_backend_enabled()
        assert fixed_base.fast_pow(P512.g, 5, P512.p) is None
    assert fixed_base.fast_backend_enabled()
