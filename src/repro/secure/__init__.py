"""Secure Spread: the secure group communication layer.

The paper's primary contribution: a client-side layer over the Flush
(View Synchrony) layer that

* maps VS membership events to group key management operations
  (Table 1: join -> JOIN, leave/disconnect/partition -> LEAVE,
  merge -> MERGE, partition+merge -> LEAVE then MERGE),
* runs a pluggable key agreement module per group — distributed Cliques
  (A-GDH.2) or centralized CKD — chosen at group-join time,
* protects application data with the per-view group key
  (Blowfish-CBC + HMAC, bound to the view and key epoch),
* handles **cascading membership events** by superseding in-progress
  agreements with a deterministic restart protocol, and confirms keys
  across all members before unblocking application traffic (so no data
  is ever sent under a key some member abandoned).

Public surface: :class:`~repro.secure.session.SecureClient`.
"""

from repro.secure.session import CryptoCostModel, SecureClient, SecureGroupSession
from repro.secure.events import (
    KeyOperation,
    RekeyStartedEvent,
    SecureDataEvent,
    SecureMembershipEvent,
    classify_event,
)
from repro.secure.policy import AllowAllPolicy, ModuleRegistry, default_registry
from repro.secure.ciphers import (
    CipherSuite,
    cipher_suite_names,
    get_cipher_suite,
    register_cipher_suite,
)

__all__ = [
    "SecureClient",
    "SecureGroupSession",
    "CryptoCostModel",
    "SecureDataEvent",
    "SecureMembershipEvent",
    "RekeyStartedEvent",
    "KeyOperation",
    "classify_event",
    "ModuleRegistry",
    "AllowAllPolicy",
    "default_registry",
    "CipherSuite",
    "cipher_suite_names",
    "get_cipher_suite",
    "register_cipher_suite",
]
