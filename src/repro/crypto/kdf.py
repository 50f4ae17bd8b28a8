"""Key derivation: group secret -> session keys.

Both Cliques and CKD end with every member holding the same big-integer
group secret.  The secure layer needs independent byte-string keys for
encryption and integrity; this KDF derives them with a counter-mode hash
construction (SHA-1 based, matching the system's vintage), bound to the
group name and key epoch so distinct views never share key material.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bigint import int_to_bytes
from repro.crypto.hmac_mac import HmacKey, hmac_digest

ENCRYPTION_KEY_BYTES = 16
MAC_KEY_BYTES = 20


@dataclass(frozen=True)
class SessionKeys:
    """Derived per-view keys plus the identifiers they are bound to."""

    encryption_key: bytes
    mac_key: bytes
    group: str
    epoch: int

    def fingerprint(self) -> str:
        """Short hex tag for logging/key-confirmation (not secret-revealing)."""
        return hmac_digest(self.mac_key, b"fingerprint")[:4].hex()


def _expand(secret: HmacKey, context: bytes, length: int) -> bytes:
    """Counter-mode expansion: HMAC(secret, context || counter) blocks."""
    output = b""
    counter = 0
    while len(output) < length:
        output += secret.digest(context + counter.to_bytes(4, "big"))
        counter += 1
    return output[:length]


def derive_keys(group_secret: int, group: str, epoch: int) -> SessionKeys:
    """Derive encryption and MAC keys from the agreed group secret.

    ``epoch`` is the key-agreement round number inside the group; a new
    view (or a key refresh) bumps it, so old keys can never validate new
    traffic (key independence at the byte-key level, complementing the
    protocol-level guarantee).
    """
    secret = HmacKey(int_to_bytes(group_secret))
    context = b"secure-spread-kdf|" + group.encode() + b"|" + epoch.to_bytes(8, "big")
    encryption_key = _expand(secret, context + b"|enc", ENCRYPTION_KEY_BYTES)
    mac_key = _expand(secret, context + b"|mac", MAC_KEY_BYTES)
    return SessionKeys(
        encryption_key=encryption_key,
        mac_key=mac_key,
        group=group,
        epoch=epoch,
    )
