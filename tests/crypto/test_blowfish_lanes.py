"""The lane decrypt: many messages' CBC blocks through one kernel call.

:meth:`~repro.crypto.blowfish.Blowfish.cbc_decrypt_chained` runs short
buffers through the scalar rounds and buffers of ``_LANE_CROSSOVER``
blocks or more through the lane rounds; :func:`~repro.crypto.modes.
cbc_decrypt_run` joins a run of messages into one such buffer.  Both
sides of the crossover, and the run split back into messages, are
pinned against the per-block oracle in ``tests/crypto/reference.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.blowfish import _LANE_CROSSOVER, BLOCK_SIZE, Blowfish
from repro.crypto.modes import cbc_decrypt_run, cbc_encrypt, pkcs7_unpad
from repro.errors import CipherError
from tests.crypto.reference import ReferenceBlowfish, reference_cbc_decrypt

_KEY = b"lane-decrypt-key"
_FAST = Blowfish(_KEY)
_SLOW = ReferenceBlowfish(_KEY)


@pytest.mark.parametrize(
    "count",
    [1, _LANE_CROSSOVER - 1, _LANE_CROSSOVER, _LANE_CROSSOVER + 1, 4 * _LANE_CROSSOVER],
)
def test_chained_blocks_match_reference_around_the_crossover(count):
    data = bytes((7 * i + 3) & 255 for i in range(count * BLOCK_SIZE))
    chain = bytes((11 * i + 5) & 255 for i in range(count * BLOCK_SIZE))
    expected = b"".join(
        bytes(
            x ^ y
            for x, y in zip(
                _SLOW.decrypt_block(data[i : i + BLOCK_SIZE]),
                chain[i : i + BLOCK_SIZE],
            )
        )
        for i in range(0, len(data), BLOCK_SIZE)
    )
    assert _FAST.cbc_decrypt_chained(data, chain) == expected


def test_chained_rejects_misaligned_or_mismatched_buffers():
    with pytest.raises(CipherError):
        _FAST.cbc_decrypt_chained(b"x" * 9, b"x" * 9)
    with pytest.raises(CipherError):
        _FAST.cbc_decrypt_chained(b"x" * 16, b"x" * 8)


_RUNS = st.lists(
    st.tuples(st.binary(max_size=600), st.binary(min_size=8, max_size=8)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(run=_RUNS)
@example(run=[(b"", bytes(8))])  # one block: scalar
@example(run=[(bytes(8 * _LANE_CROSSOVER - 1), bytes(8))])  # exactly the crossover
@example(run=[(b"a" * 100, bytes(8)), (b"b" * 20, b"\xff" * 8)])  # 13 + 3 blocks
def test_run_decrypt_matches_reference_per_message(run):
    messages = [cbc_encrypt(_FAST, plaintext, iv=iv) for plaintext, iv in run]
    plaintexts = cbc_decrypt_run(_FAST, messages)
    assert plaintexts == [plaintext for plaintext, _ in run]
    for message, plaintext in zip(messages, plaintexts):
        reference = reference_cbc_decrypt(
            _SLOW, message[BLOCK_SIZE:], message[:BLOCK_SIZE]
        )
        assert plaintext == pkcs7_unpad(reference)


@settings(max_examples=25, deadline=None)
@given(run=_RUNS, data=st.data())
def test_a_corrupt_pad_byte_anywhere_in_a_run_raises(run, data):
    messages = [cbc_encrypt(_FAST, plaintext, iv=iv) for plaintext, iv in run]
    victim = data.draw(st.integers(0, len(messages) - 1))
    # The byte before the last block XORs into the last plaintext byte,
    # the pad length: 0x80 takes every valid length (1..8) out of range.
    message = bytearray(messages[victim])
    message[-BLOCK_SIZE - 1] ^= 0x80
    messages[victim] = bytes(message)
    with pytest.raises(CipherError):
        cbc_decrypt_run(_FAST, messages)


def test_per_block_fallback_takes_a_run():
    run = [b"", b"fallback", bytes(range(40))]
    messages = [cbc_encrypt(_FAST, plaintext, iv=bytes(8)) for plaintext in run]
    assert cbc_decrypt_run(_SLOW, messages) == run
