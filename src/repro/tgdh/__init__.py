"""TGDH: Tree-based Group Diffie-Hellman key agreement.

The third pluggable key-agreement module (after Cliques A-GDH.2 and
centralized CKD) — the protocol the real Secure Spread added next.
Members are leaves of a binary *key tree*; every internal node's secret
is the two-party Diffie-Hellman key of its children, and the root secret
is the group key.  Each member holds the secrets on its own leaf-to-root
path only, so any membership event costs O(log n) serial modular
exponentiations instead of the O(n) of the linear protocols.

Package layout mirrors :mod:`repro.cliques`:

* :mod:`repro.tgdh.tree`    — the key tree (structure, sponsors, serialization)
* :mod:`repro.tgdh.tokens`  — wire tokens (join announce / tree / blinded-key updates)
* :mod:`repro.tgdh.context` — the per-member protocol state machine
"""

from repro.tgdh.context import TGDHContext
from repro.tgdh.tokens import TGDHJoinToken, TGDHTreeToken, TGDHUpdateToken
from repro.tgdh.tree import TGDHTree

__all__ = [
    "TGDHContext",
    "TGDHTree",
    "TGDHJoinToken",
    "TGDHTreeToken",
    "TGDHUpdateToken",
]
