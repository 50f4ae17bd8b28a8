"""Batched data protection: seal_many / unseal of a run / send_many.

The batched entry points exist for the data-plane fast path (one header
build and one key-schedule lookup amortised over a burst) — their
outputs must be bit-identical to the per-message calls.
"""

from __future__ import annotations

import pytest

from repro.crypto.kdf import derive_keys
from repro.crypto.random_source import DeterministicSource
from repro.errors import IntegrityError, NoGroupKeyError, StaleKeyError
from repro.secure.dataprotect import DataProtector, seal_header

from tests.secure.conftest import SecureHarness


def make_protector(epoch="g|v|0"):
    keys = derive_keys(123456789, "g|v", 0)
    return DataProtector(keys, epoch)


PLAINTEXTS = [b"", b"a", b"attack at dawn", bytes(range(256))]


# -- units -------------------------------------------------------------------------


def test_seal_many_bit_identical_to_sequential_seal():
    batched = make_protector().seal_many(
        "g", "#a#d0", PLAINTEXTS, DeterministicSource(7)
    )
    sequential_protector = make_protector()
    source = DeterministicSource(7)
    sequential = [
        sequential_protector.seal("g", "#a#d0", plaintext, source)
        for plaintext in PLAINTEXTS
    ]
    assert batched == sequential


def test_unseal_run_roundtrip_preserves_order():
    protector = make_protector()
    sealed = protector.seal_many(
        "g", "#a#d0", PLAINTEXTS, DeterministicSource(7)
    )
    assert protector.unseal(sealed) == PLAINTEXTS


def test_unseal_run_rejects_wrong_epoch():
    sealed = make_protector().seal_many(
        "g", "#a#d0", PLAINTEXTS, DeterministicSource(7)
    )
    with pytest.raises(StaleKeyError):
        make_protector(epoch="g|v|1").unseal(sealed)


def test_unseal_run_rejects_tampered_member():
    protector = make_protector()
    sealed = protector.seal_many(
        "g", "#a#d0", PLAINTEXTS, DeterministicSource(7)
    )
    bad = sealed[2]
    sealed[2] = type(bad)(
        group=bad.group,
        epoch_label=bad.epoch_label,
        sender=bad.sender,
        ciphertext=bad.ciphertext[:-1] + bytes([bad.ciphertext[-1] ^ 1]),
        tag=bad.tag,
    )
    with pytest.raises(IntegrityError):
        protector.unseal(sealed)


def test_seal_header_is_the_sealed_message_header():
    protector = make_protector()
    sealed = protector.seal("g", "#a#d0", b"x", DeterministicSource(1))
    assert sealed.header() == seal_header("g", sealed.epoch_label, "#a#d0")


def test_seal_many_empty_batch():
    assert make_protector().seal_many(
        "g", "#a#d0", [], DeterministicSource(1)
    ) == []


# -- full stack --------------------------------------------------------------------


def test_send_many_delivers_all_in_order():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    burst = [b"msg-%d" % i for i in range(8)]
    a.send_many("g", burst)
    h.run_until(lambda: len(h.payloads_of("b")) >= len(burst))
    assert h.payloads_of("b") == burst
    # Sender receives its own copies in order too.
    h.run_until(lambda: len(h.payloads_of("a")) >= len(burst))
    assert h.payloads_of("a") == burst


def test_send_many_before_key_raises():
    h = SecureHarness()
    a = h.member("a", "d0")
    with pytest.raises(NoGroupKeyError):
        a.send_many("g", [b"x"])


def test_send_many_empty_burst_is_noop():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    a.send_many("g", [])
    h.run(0.2)
    assert h.payloads_of("a") == []
