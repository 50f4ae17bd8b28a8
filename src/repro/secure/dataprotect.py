"""Bulk data protection: Blowfish-CBC encryption + HMAC integrity.

Every secure application message is sealed under the group's current
session keys and bound to the group, view and key epoch, so a message
can never validate outside the exact secure view it was sent in.
Encrypt-then-MAC; constant-time verification.

Data-plane fast path: the protector resolves its keyed cipher **once**
per session-key epoch through the shared cipher-schedule cache, so
steady-state traffic pays zero key-schedule derivations.  When a rekey
retires the epoch, :meth:`DataProtector.invalidate` evicts the schedule
from the cache so a stale epoch's schedule is never served again.

:meth:`DataProtector.unseal` takes a run of messages (the session
collects what reached it in one loop turn): every epoch and tag is
checked before any byte is decrypted, then the whole run goes through
one ``decrypt_with`` call, which Blowfish-CBC serves in one lane-parallel
kernel pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Iterable, List, Sequence

from repro.crypto.cipher_cache import invalidate_key
from repro.crypto.hmac_mac import HmacKey
from repro.crypto.kdf import SessionKeys
from repro.crypto.random_source import RandomSource
from repro.errors import IntegrityError, StaleKeyError
from repro.secure.ciphers import get_cipher_suite


def seal_header(group: str, epoch_label: str, sender: str) -> bytes:
    """The authenticated associated data of a sealed message.

    One definition for both sides: the sealer MACs it, the verifier
    reconstructs it.  Binds every tag to (group, key epoch, sender).
    """
    return "|".join((group, epoch_label, sender)).encode()


@dataclass(frozen=True, slots=True)
class SealedMessage:
    """An encrypted group message with its integrity tag."""

    group: str
    epoch_label: str
    sender: str
    ciphertext: bytes
    tag: bytes

    def wire_size(self) -> int:
        return 64 + len(self.ciphertext) + len(self.tag)

    def header(self) -> bytes:
        return seal_header(self.group, self.epoch_label, self.sender)


class DataProtector:
    """Seals/unseals messages under one secure view's session keys.

    ``cipher`` selects the bulk cipher suite (default: the paper's
    Blowfish-CBC); integrity is always encrypt-then-HMAC on top.
    """

    __slots__ = ("keys", "epoch_label", "suite", "_cipher", "_mac")

    def __init__(
        self, keys: SessionKeys, epoch_label: str, cipher: str = "blowfish-cbc"
    ) -> None:
        self.keys = keys
        self.epoch_label = epoch_label
        self.suite = get_cipher_suite(cipher)
        # One schedule per epoch: resolved through the shared cache so
        # every protector of this epoch (and every message it seals)
        # shares a single key expansion.
        self._cipher = self.suite.keyed(keys.encryption_key)
        # Likewise one HMAC key preparation (inner/outer midstates)
        # per epoch instead of per message.
        self._mac = HmacKey(keys.mac_key)

    def invalidate(self) -> None:
        """Retire this epoch's cached cipher schedule (called on rekey).

        Safe to call more than once; the protector itself keeps working
        for in-flight traffic (it holds its own reference), but the
        shared cache stops serving the stale epoch's schedule.
        """
        invalidate_key(self.keys.encryption_key)

    def seal(
        self,
        group: str,
        sender: str,
        plaintext: bytes,
        random_source: RandomSource,
    ) -> SealedMessage:
        """Encrypt and authenticate one application payload."""
        ciphertext = self.suite.encrypt_with(self._cipher, plaintext, random_source)
        header = seal_header(group, self.epoch_label, sender)
        tag = self._mac.digest(header + ciphertext)
        return SealedMessage(
            group=group,
            epoch_label=self.epoch_label,
            sender=sender,
            ciphertext=ciphertext,
            tag=tag,
        )

    def seal_many(
        self,
        group: str,
        sender: str,
        plaintexts: Iterable[bytes],
        random_source: RandomSource,
    ) -> List[SealedMessage]:
        """Seal a batch of payloads from one sender to one group.

        Same output as calling :meth:`seal` per payload, but the epoch
        cipher schedule, prepared HMAC key and associated-data header
        are resolved once for the whole batch instead of per message —
        the send-side hot path for coalesced application traffic.
        """
        epoch_label = self.epoch_label
        header = seal_header(group, epoch_label, sender)
        encrypt = self.suite.encrypt_with
        cipher = self._cipher
        digest = self._mac.digest
        sealed: List[SealedMessage] = []
        append = sealed.append
        for plaintext in plaintexts:
            ciphertext = encrypt(cipher, plaintext, random_source)
            append(
                SealedMessage(
                    group=group,
                    epoch_label=epoch_label,
                    sender=sender,
                    ciphertext=ciphertext,
                    tag=digest(header + ciphertext),
                )
            )
        return sealed

    def unseal(self, messages: Sequence[SealedMessage]) -> List[bytes]:
        """Verify a run of messages, then decrypt it; the plaintexts, in order.

        Encrypt-then-MAC: the epoch and tag of *every* message are
        checked before any byte is decrypted, and the run is decrypted
        in one ``decrypt_with`` call.  Raises on the first bad message,
        so a run with one forgery delivers nothing (the caller retries
        per message if it wants its neighbours):

        :class:`~repro.errors.StaleKeyError` — sealed under a different
        key epoch (View Synchrony should make this impossible for honest
        traffic).
        :class:`~repro.errors.IntegrityError` — tag verification failed
        (tampering or corruption).
        :class:`~repro.errors.CipherError` — the tag verified but the
        ciphertext does not decrypt (a bad pad under the right key).
        """
        epoch_label = self.epoch_label
        verify = self._mac.verify
        for message in messages:
            if message.epoch_label != epoch_label:
                raise StaleKeyError(
                    f"message sealed under epoch {message.epoch_label!r};"
                    f" current is {epoch_label!r}"
                )
            if not verify(message.header() + message.ciphertext, message.tag):
                raise IntegrityError(
                    f"MAC verification failed for message from {message.sender}"
                )
        return self.suite.decrypt_with(
            self._cipher, [message.ciphertext for message in messages]
        )

    #: The benchmark tracer's entry-point table (``benchmarks/e2e/
    #: trace.py``) still names the old batch method; it goes with that
    #: entry.
    unseal_many = unseal
