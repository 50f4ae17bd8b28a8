"""Rekey must retire the old epoch's cached cipher schedule.

The cipher-schedule cache makes steady-state sealing cheap; the safety
obligation it creates is that a rekey (view change) evicts the retired
epoch's schedule, so the shared cache never keeps serving key material
the group has abandoned.  ``SecureGroupSession._begin_attempt`` calls
``DataProtector.invalidate`` for exactly this, and a member that leaves
retires its key the same way.  A protector expands its key at its first
seal or unseal, so each eviction test seals once before it looks.
"""

from __future__ import annotations

from repro.crypto.blowfish import Blowfish
from repro.crypto.cipher_cache import default_cache
from repro.crypto.kdf import derive_keys
from repro.crypto.random_source import DeterministicSource
from repro.secure.dataprotect import DataProtector
from repro.spread.events import SelfLeaveEvent


def test_view_change_evicts_old_epoch_schedule(harness):
    a = harness.member("a", "d0")
    a.join("g")
    harness.wait_view(["a"])
    a.send("g", b"first epoch")

    key_a = harness.members["a"].sessions["g"]._session_keys
    assert key_a.encryption_key in default_cache()

    b = harness.member("b", "d1")
    b.join("g")
    harness.wait_view(["a", "b"])
    a.send("g", b"second epoch")

    key_ab = harness.members["a"].sessions["g"]._session_keys
    # New epoch, new key bytes, new cached schedule ...
    assert key_ab.encryption_key != key_a.encryption_key
    assert key_ab.encryption_key in default_cache()
    # ... and the retired epoch's schedule is gone from the cache.
    assert key_a.encryption_key not in default_cache()


def test_leaving_evicts_the_abandoned_key_schedule(harness):
    a = harness.member("a", "d0")
    a.join("g")
    harness.wait_view(["a"])
    a.send("g", b"before leaving")
    session = a.sessions["g"]
    key = session._session_keys.encryption_key
    assert key in default_cache()

    a.leave("g")
    harness.run_until(lambda: any(isinstance(e, SelfLeaveEvent) for e in a.queue))
    assert session.key_fingerprint is None
    assert key not in default_cache()


def test_steady_state_traffic_derives_no_schedules(harness):
    a = harness.member("a", "d0")
    b = harness.member("b", "d1")
    a.join("g")
    b.join("g")
    harness.wait_view(["a", "b"])

    a.send("g", b"warmup")
    harness.run(2.0)
    before = Blowfish.constructions
    for i in range(10):
        a.send("g", b"steady %d" % i)
        harness.run(1.0)
    assert b"steady 9" in harness.payloads_of("b")
    # Ten sealed + delivered messages, zero new key schedules.
    assert Blowfish.constructions == before


def test_protector_invalidate_is_idempotent():
    keys = derive_keys(0x5EC07D, "inv-group", 1)
    protector = DataProtector(keys, "inv-group|v1|0")
    protector.seal("inv-group", "#a#d0", b"x", DeterministicSource(1))
    assert keys.encryption_key in default_cache()
    protector.invalidate()
    assert keys.encryption_key not in default_cache()
    protector.invalidate()  # second call is a no-op, not an error
    assert default_cache().get(keys.encryption_key) is not None  # rederivable
    default_cache().invalidate(keys.encryption_key)


def test_protector_retired_before_first_use_never_caches_its_key():
    keys = derive_keys(0x5EC07E, "unused-group", 1)
    before = Blowfish.constructions
    protector = DataProtector(keys, "unused-group|v1|0")
    assert Blowfish.constructions == before  # expanded at first use
    assert keys.encryption_key not in default_cache()
    protector.invalidate()
    assert keys.encryption_key not in default_cache()
    # In-flight traffic still seals and unseals, under a private schedule.
    sealed = protector.seal("unused-group", "#a#d0", b"late", DeterministicSource(2))
    assert protector.unseal([sealed]) == [b"late"]
    assert keys.encryption_key not in default_cache()
