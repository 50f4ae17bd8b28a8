"""Pluggable bulk-cipher suites (the paper's §5.1 modular design).

"Currently, secure Spread is designed to allow for drop in replacement
of encryption and key agreement protocols" — key agreement modules live
in :mod:`repro.secure.handlers`; this module is the encryption side.  A
suite turns (key, plaintext) into a self-contained ciphertext and back;
the secure layer composes it with HMAC (encrypt-then-MAC) regardless of
suite.

Key schedules are NOT re-derived per call: the byte key resolves to a
keyed cipher through :mod:`repro.crypto.cipher_cache`, so steady-state
traffic under one session-key epoch reuses one Blowfish schedule.  Hot
callers (``DataProtector``) resolve the cipher once per epoch and use
``encrypt_with``/``decrypt_with`` directly, skipping even the cache
lookup.  Decryption takes a run of ciphertexts (what reached a member
in one loop turn), so a suite can decrypt them in one pass:
``blowfish-cbc`` makes one kernel call per run.

Shipped suites:

* ``blowfish-cbc`` — the paper's configuration (default);
* ``blowfish-ctr`` — the stream-cipher-style alternative the paper
  mentions for near-zero-overhead encryption.

A group picks its suite at join time; the suite name is folded into the
key derivation context, so members that disagree derive different keys
and the key-confirmation round aborts the view instead of silently
producing garbage.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.crypto.blowfish import Blowfish
from repro.crypto.cipher_cache import get_cached_cipher
from repro.crypto.modes import (
    cbc_decrypt_run,
    cbc_encrypt,
    ctr_decrypt,
    ctr_encrypt,
)
from repro.crypto.random_source import RandomSource
from repro.errors import ModuleNotFoundError_

DEFAULT_CIPHER = "blowfish-cbc"


class CipherSuite:
    """One bulk-encryption algorithm + mode, as a drop-in module."""

    def __init__(
        self,
        name: str,
        encrypt: Callable[[Blowfish, bytes, RandomSource], bytes],
        decrypt: Callable[[Blowfish, Sequence[bytes]], List[bytes]],
    ) -> None:
        self.name = name
        self._encrypt = encrypt
        self._decrypt = decrypt

    # -- keyed-instance fast path (one schedule per epoch) ------------------

    def keyed(self, key: bytes) -> Blowfish:
        """The cached keyed cipher for ``key`` (schedule derived on miss)."""
        return get_cached_cipher(key)

    def encrypt_with(
        self, cipher: Blowfish, plaintext: bytes, random_source: RandomSource
    ) -> bytes:
        return self._encrypt(cipher, plaintext, random_source)

    def decrypt_with(
        self, cipher: Blowfish, ciphertexts: Sequence[bytes]
    ) -> List[bytes]:
        """Decrypt a run of ciphertexts; the plaintexts, in order."""
        return self._decrypt(cipher, ciphertexts)

    # -- byte-key convenience API ------------------------------------------

    def encrypt(
        self, key: bytes, plaintext: bytes, random_source: RandomSource
    ) -> bytes:
        return self._encrypt(get_cached_cipher(key), plaintext, random_source)

    def decrypt(self, key: bytes, data: bytes) -> bytes:
        return self._decrypt(get_cached_cipher(key), (data,))[0]


_SUITES: Dict[str, CipherSuite] = {
    "blowfish-cbc": CipherSuite(
        "blowfish-cbc",
        lambda cipher, pt, rng: cbc_encrypt(cipher, pt, rng),
        cbc_decrypt_run,
    ),
    "blowfish-ctr": CipherSuite(
        "blowfish-ctr",
        lambda cipher, pt, rng: ctr_encrypt(cipher, pt, rng),
        lambda cipher, run: [ctr_decrypt(cipher, data) for data in run],
    ),
}


def get_cipher_suite(name: str) -> CipherSuite:
    """Look up a registered suite by name."""
    suite = _SUITES.get(name)
    if suite is None:
        raise ModuleNotFoundError_(
            f"no cipher suite named {name!r}; known: {sorted(_SUITES)}"
        )
    return suite


def register_cipher_suite(suite: CipherSuite) -> None:
    """Drop in a new cipher suite (the §5.1 extension point)."""
    _SUITES[suite.name] = suite


def cipher_suite_names():
    return sorted(_SUITES)
