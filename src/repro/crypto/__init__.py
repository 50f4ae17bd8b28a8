"""Cryptographic substrate.

Everything the secure group layer needs, written here except the hash
functions, which come from ``hashlib`` (DESIGN.md §2):

* :mod:`repro.crypto.counters` — modular-exponentiation instrumentation.
  The paper's evaluation (Tables 2-4, Figure 4) is driven by serial
  exponentiation counts, so every ``mod_exp`` in the library routes
  through a counter.
* :mod:`repro.crypto.bigint` — counted modular arithmetic helpers.
* :mod:`repro.crypto.primes` — Miller-Rabin and safe-prime generation.
* :mod:`repro.crypto.dh` — Diffie-Hellman parameters and key pairs
  (fixed 512-bit parameters matching the paper's setting, plus larger
  published groups).
* :mod:`repro.crypto.blowfish` — Bruce Schneier's Blowfish block cipher
  (the paper's bulk cipher), with its P/S boxes derived from the hex
  digits of pi exactly as specified.
* :mod:`repro.crypto.modes` — CBC mode with PKCS#7 padding.
* :mod:`repro.crypto.hmac_mac` — HMAC (over ``hashlib`` SHA-1) for
  message integrity.
* :mod:`repro.crypto.kdf` — key derivation from the group secret.
* :mod:`repro.crypto.random_source` — CSPRNG with a deterministic test
  mode.
* :mod:`repro.crypto.fixed_base` / :mod:`repro.crypto.multiexp` — the
  control-plane fast path: fixed-base exponentiation tables behind
  ``mod_exp`` and batched multi-exponentiation for token construction.
"""

from repro.crypto.bigint import mod_exp, mod_inverse
from repro.crypto.fixed_base import (
    FixedBaseCache,
    fast_backend,
    fast_backend_enabled,
    set_fast_backend,
)
from repro.crypto.multiexp import multi_exp, shared_base_powers, shared_exponent_powers
from repro.crypto.blowfish import Blowfish
from repro.crypto.counters import ExpCounter, global_counter
from repro.crypto.dh import DHParams, DHKeyPair
from repro.crypto.hmac_mac import hmac_digest, hmac_verify
from repro.crypto.kdf import derive_keys, SessionKeys
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.random_source import DeterministicSource, RandomSource, SystemSource

__all__ = [
    "mod_exp",
    "mod_inverse",
    "FixedBaseCache",
    "fast_backend",
    "fast_backend_enabled",
    "set_fast_backend",
    "multi_exp",
    "shared_base_powers",
    "shared_exponent_powers",
    "Blowfish",
    "ExpCounter",
    "global_counter",
    "DHParams",
    "DHKeyPair",
    "hmac_digest",
    "hmac_verify",
    "derive_keys",
    "SessionKeys",
    "cbc_encrypt",
    "cbc_decrypt",
    "RandomSource",
    "SystemSource",
    "DeterministicSource",
]
