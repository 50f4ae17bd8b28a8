"""Block cipher modes of operation: CBC (with PKCS#7 padding) and CTR.

Secure Spread encrypted bulk data with Blowfish; CBC was the standard
mode of the era.  CTR is provided as the "stream cipher" alternative the
paper alludes to ("encryption can be done with almost no overhead if
certain types of stream ciphers are used") and to exercise the modular
drop-in-cipher architecture of §5.1.  In both modes the IV/nonce is
prepended so each message is self-contained.

When the cipher exposes the whole-buffer word-level primitives
(``cbc_encrypt_blocks`` / ``cbc_decrypt_chained`` / ``ctr_xor``, as
:class:`~repro.crypto.blowfish.Blowfish` does), the modes run on them —
integer XOR chaining, no per-byte generators.  Any object with only
``encrypt_block``/``decrypt_block`` (e.g. the reference oracle or a
drop-in cipher) still works through a per-block fallback.

CBC decryption takes a *run* of messages (:func:`cbc_decrypt_run`):
each block's chain value is the ciphertext block before it, known up
front, so the word-level primitive decrypts every block of every
message in one call.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.blowfish import BLOCK_SIZE
from repro.crypto.random_source import RandomSource, SystemSource
from repro.errors import CipherError


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding (always at least one byte)."""
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len] * pad_len)


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding.

    Constant-time-shaped: the whole final block is examined with no
    data-dependent early exit, the length byte's range check folds into
    the same accumulator, and every rejection raises the same error —
    so a padding oracle cannot distinguish *where* validation failed.
    (CPython cannot promise true constant time; the shape removes the
    obvious timing structure, and the secure layer MACs before
    decrypting anyway.)
    """
    if not data or len(data) % block_size != 0:
        raise CipherError("padded data length is not a block multiple")
    pad_len = data[-1]
    tail = data[-block_size:]
    # 0 when 1 <= pad_len <= block_size, nonzero otherwise (arbitrary-
    # precision arithmetic shift: negative stays negative).
    invalid = ((pad_len - 1) | (block_size - pad_len)) >> 8
    diff = 0
    for offset in range(1, block_size + 1):
        # in_pad is 1 for the pad_len trailing positions, 0 elsewhere;
        # every byte of the block is read either way.
        in_pad = ((offset - pad_len - 1) >> 8) & 1
        diff |= (tail[-offset] ^ pad_len) & (0xFF * in_pad)
    if invalid | diff:
        raise CipherError("invalid PKCS#7 padding")
    return data[:-pad_len]


def _xor_block(a: bytes, b: bytes) -> bytes:
    length = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b[:length], "big")).to_bytes(
        length, "big"
    )


def cbc_encrypt(
    cipher,
    plaintext: bytes,
    random_source: RandomSource = None,
    iv: bytes = None,
) -> bytes:
    """Encrypt ``plaintext``; returns ``iv || ciphertext``.

    Either a ``random_source`` (to draw a fresh IV — the normal path) or
    an explicit ``iv`` (for known-answer tests) must be provided.
    """
    if iv is None:
        source = random_source if random_source is not None else SystemSource()
        iv = source.token_bytes(BLOCK_SIZE)
    if len(iv) != BLOCK_SIZE:
        raise CipherError(f"IV must be {BLOCK_SIZE} bytes")
    padded = pkcs7_pad(plaintext)
    fast = getattr(cipher, "cbc_encrypt_blocks", None)
    if fast is not None:
        return iv + fast(padded, iv)
    blocks = [iv]
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = _xor_block(padded[offset : offset + BLOCK_SIZE], previous)
        previous = cipher.encrypt_block(block)
        blocks.append(previous)
    return b"".join(blocks)


def cbc_decrypt(cipher, data: bytes) -> bytes:
    """Decrypt ``iv || ciphertext`` produced by :func:`cbc_encrypt`."""
    return cbc_decrypt_run(cipher, (data,))[0]


def cbc_decrypt_run(cipher, messages: Sequence[bytes]) -> List[bytes]:
    """Decrypt a run of ``iv || ciphertext`` messages, in order.

    With ``cbc_decrypt_chained`` the whole run is one kernel call: the
    data is every message's ciphertext, the chain every message's IV
    and all but its last ciphertext block.  Raises
    :class:`~repro.errors.CipherError` if any message is short,
    misaligned or badly padded.
    """
    for data in messages:
        if len(data) < 2 * BLOCK_SIZE or len(data) % BLOCK_SIZE != 0:
            raise CipherError("ciphertext too short or not block aligned")
    fast = getattr(cipher, "cbc_decrypt_chained", None)
    if fast is None:
        return [
            pkcs7_unpad(_cbc_decrypt_per_block(cipher, data)) for data in messages
        ]
    padded = fast(
        b"".join([data[BLOCK_SIZE:] for data in messages]),
        b"".join([data[:-BLOCK_SIZE] for data in messages]),
    )
    plaintexts = []
    offset = 0
    for data in messages:
        end = offset + len(data) - BLOCK_SIZE
        plaintexts.append(pkcs7_unpad(padded[offset:end]))
        offset = end
    return plaintexts


def _cbc_decrypt_per_block(cipher, data: bytes) -> bytes:
    """CBC through ``decrypt_block`` only; returns padded plaintext."""
    plaintext = bytearray()
    previous = data[:BLOCK_SIZE]
    for offset in range(BLOCK_SIZE, len(data), BLOCK_SIZE):
        block = data[offset : offset + BLOCK_SIZE]
        plaintext += _xor_block(cipher.decrypt_block(block), previous)
        previous = block
    return bytes(plaintext)


def _ctr_transform(cipher, data: bytes, nonce: bytes) -> bytes:
    """Counter-mode keystream XOR: E(nonce + i mod 2^64), i = 0, 1, ..."""
    fast = getattr(cipher, "ctr_xor", None)
    if fast is not None:
        return fast(data, nonce)
    start = int.from_bytes(nonce, "big")
    stream = bytearray()
    counter = 0
    while len(stream) < len(data):
        block_value = (start + counter) % (1 << 64)
        stream += cipher.encrypt_block(block_value.to_bytes(BLOCK_SIZE, "big"))
        counter += 1
    return bytes(c ^ k for c, k in zip(data, stream))


def ctr_encrypt(
    cipher,
    plaintext: bytes,
    random_source: RandomSource = None,
    nonce: bytes = None,
) -> bytes:
    """Counter-mode encrypt; returns ``nonce || ciphertext``.

    No padding: the ciphertext body has exactly the plaintext's length
    (stream-cipher behaviour).  A nonce must NEVER repeat under one key;
    the secure layer guarantees this by drawing fresh random nonces and
    re-keying every view.
    """
    if nonce is None:
        source = random_source if random_source is not None else SystemSource()
        nonce = source.token_bytes(BLOCK_SIZE)
    if len(nonce) != BLOCK_SIZE:
        raise CipherError(f"nonce must be {BLOCK_SIZE} bytes")
    return nonce + _ctr_transform(cipher, plaintext, nonce)


def ctr_decrypt(cipher, data: bytes) -> bytes:
    """Decrypt ``nonce || ciphertext`` produced by :func:`ctr_encrypt`."""
    if len(data) < BLOCK_SIZE:
        raise CipherError("ciphertext shorter than the nonce")
    nonce, ciphertext = data[:BLOCK_SIZE], data[BLOCK_SIZE:]
    return _ctr_transform(cipher, ciphertext, nonce)
