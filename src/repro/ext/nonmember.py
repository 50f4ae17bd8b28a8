"""Secure communication between a group and non-members (paper §2, §8).

The paper's second security goal: "authentic and private communication
between a secure group (i.e., its members) and other entities
(non-members)", listed under future services (§8).  This module builds
that service **on top of the public API**, using the one EVS feature the
paper highlights for it: open groups — a non-member may multicast to a
group it cannot read.

Protocol:

1. The outsider multicasts an :class:`OutsiderHello` into the group (in
   the clear — it carries only its name and a nonce).  Every member sees
   it; the member currently holding the key-agreement *controller* role
   answers.
2. The controller unicasts a :class:`GatewayAccept` with its own nonce.
   Both sides derive the gateway key from their long-term pairwise
   Diffie-Hellman secret and the two nonces — mutual authentication by
   key possession, exactly the long-term-key technique A-GDH.2 and CKD
   already rely on.
3. The outsider seals payloads under the gateway key and unicasts them
   to the controller (:class:`OutsiderData`); the controller verifies,
   unseals, and **relays** them into the group under the group key.
   Members receive an :class:`OutsiderDataEvent` naming the outsider.
4. Replies go the reverse path: any member asks the gateway to relay;
   the controller seals the reply to the outsider under the gateway key.

The gateway key has no forward secrecy (it derives from long-term keys —
the trade the paper accepts for CKD's pairwise channels too); the
*group* key's guarantees are untouched, since the outsider never learns
it.

A relay is an ordinary group message: ``gateway-relay:``, a 2-byte name
length, the outsider's UTF-8 name, then the plaintext.  Its outsider
attribution is therefore the *relaying member's* claim — receivers do
not check that the sender is the acting gateway, so any member can
attribute a message to any outsider.  A member payload that carries the
marker but no well-formed relay body is dropped and traced
(``secure.gateway_malformed``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cliques.directory import KeyDirectory
from repro.crypto.bigint import int_to_bytes
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.hmac_mac import hmac_digest
from repro.crypto.kdf import SessionKeys
from repro.crypto.random_source import RandomSource, SystemSource
from repro.errors import ReproError, SecureGroupError
from repro.secure.dataprotect import DataProtector, SealedMessage
from repro.secure.events import SecureDataEvent
from repro.secure.session import SecureClient
from repro.spread.client import EventQueue, SpreadClient
from repro.spread.events import DataEvent
from repro.types import GroupId, ProcessId, ServiceType

_RELAY_MARKER = b"gateway-relay:"
_NAME_LENGTH = struct.Struct(">H")


@dataclass(frozen=True)
class OutsiderHello:
    """Outsider -> group (open multicast): request a gateway channel."""

    group: str
    outsider: str
    nonce: bytes

    def wire_size(self) -> int:
        return 64 + len(self.nonce)


@dataclass(frozen=True)
class GatewayAccept:
    """Controller -> outsider: channel accepted; derive the key."""

    group: str
    gateway: str
    outsider_nonce: bytes
    gateway_nonce: bytes

    def wire_size(self) -> int:
        return 64 + len(self.outsider_nonce) + len(self.gateway_nonce)


@dataclass(frozen=True)
class OutsiderData:
    """Outsider -> controller: a payload sealed under the gateway key."""

    group: str
    outsider: str
    sealed: SealedMessage

    def wire_size(self) -> int:
        return 32 + self.sealed.wire_size()


@dataclass(frozen=True)
class OutsiderDataEvent:
    """Delivered to group members: an authenticated outsider message."""

    group: GroupId
    outsider: str
    payload: bytes

    @property
    def is_membership(self) -> bool:
        return False


def _gateway_keys(
    pairwise_secret: int,
    group: str,
    outsider: str,
    gateway: str,
    outsider_nonce: bytes,
    gateway_nonce: bytes,
) -> SessionKeys:
    """Derive the gateway channel keys (same at both endpoints)."""
    from repro.crypto.kdf import derive_keys

    binding = hmac_digest(
        int_to_bytes(pairwise_secret),
        b"|".join(
            (
                b"gateway",
                group.encode(),
                outsider.encode(),
                gateway.encode(),
                outsider_nonce,
                gateway_nonce,
            )
        ),
    )
    return derive_keys(int.from_bytes(binding, "big"), f"gateway|{group}", 0)


def _epoch_label(group: str, outsider: str) -> str:
    return f"gateway|{group}|{outsider}"


def _encode_relay(outsider: str, plaintext: bytes) -> bytes:
    name = outsider.encode()
    return _RELAY_MARKER + _NAME_LENGTH.pack(len(name)) + name + plaintext


def _decode_relay(body: bytes) -> Optional[Tuple[str, bytes]]:
    """``(outsider, plaintext)`` of a relay body, or ``None`` when it is
    malformed."""
    start = len(_RELAY_MARKER) + _NAME_LENGTH.size
    if len(body) < start:
        return None
    (length,) = _NAME_LENGTH.unpack_from(body, len(_RELAY_MARKER))
    if len(body) < start + length:
        return None
    try:
        outsider = body[start : start + length].decode()
    except UnicodeDecodeError:
        return None
    return outsider, body[start + length :]


class GroupGateway(EventQueue):
    """Member-side gateway service, attached to a :class:`SecureClient`.

    Attach it at every member; only the member holding the controller
    role answers hellos and relays, so exactly one gateway is active per
    channel.  Relayed messages surface at every member as
    :class:`OutsiderDataEvent` in the gateway's ``queue`` (and at its
    ``on_event`` callbacks).
    """

    def __init__(self, client: SecureClient, group: str) -> None:
        super().__init__()
        self.client = client
        self.group = group
        self._channels: Dict[str, DataProtector] = {}
        client.on_event(self._on_event)

    # -- inbound ------------------------------------------------------------------

    @property
    def _session(self):
        return self.client.sessions[self.group]

    def _is_acting_gateway(self) -> bool:
        session = self.client.sessions.get(self.group)
        return (
            session is not None
            and session.has_key
            and session.module.is_controller
        )

    def _on_event(self, event) -> None:
        if isinstance(event, DataEvent):
            payload = event.payload
            if isinstance(payload, OutsiderHello) and payload.group == self.group:
                self._on_hello(payload)
                return
            if isinstance(payload, OutsiderData) and payload.group == self.group:
                self._on_outsider_data(payload)
                return
        if isinstance(event, SecureDataEvent) and str(event.group) == self.group:
            if event.payload.startswith(_RELAY_MARKER):
                self._on_relay(event)

    def _on_relay(self, event: SecureDataEvent) -> None:
        relay = _decode_relay(event.payload)
        if relay is None:
            tracer = self._session.flush.client.kernel.tracer
            if tracer.enabled:
                tracer.record(
                    "secure.gateway_malformed",
                    me=self.client.me,
                    group=self.group,
                    sender=str(event.sender),
                )
            return
        outsider, message = relay
        self._emit(
            OutsiderDataEvent(group=event.group, outsider=outsider, payload=message)
        )

    def _on_hello(self, hello: OutsiderHello) -> None:
        if not self._is_acting_gateway():
            return
        session = self._session
        gateway_nonce = self.client.random_source.token_bytes(16)
        pairwise = self.client.params.exp(
            self.client.directory.lookup(hello.outsider),
            self.client.long_term.private,
            self.client.counter,
            "gateway",
        )
        keys = _gateway_keys(
            pairwise, self.group, hello.outsider, self.client.me,
            hello.nonce, gateway_nonce,
        )
        self._channels[hello.outsider] = DataProtector(
            keys, _epoch_label(self.group, hello.outsider)
        )
        accept = GatewayAccept(
            group=self.group,
            gateway=self.client.me,
            outsider_nonce=hello.nonce,
            gateway_nonce=gateway_nonce,
        )
        session.flush.unicast(ProcessId.parse(hello.outsider), accept)

    def _on_outsider_data(self, data: OutsiderData) -> None:
        if not self._is_acting_gateway():
            return
        protector = self._channels.get(data.outsider)
        if protector is None:
            return
        try:
            (plaintext,) = protector.unseal((data.sealed,))
        except ReproError:
            return  # forged or replayed across channels
        self.client.send(self.group, _encode_relay(data.outsider, plaintext))

    # -- outbound (group -> outsider) --------------------------------------------------

    def reply(self, outsider: str, payload: bytes) -> None:
        """Send a gateway-sealed reply to a connected outsider (only the
        acting gateway holds the channel)."""
        protector = self._channels.get(outsider)
        if protector is None:
            raise SecureGroupError(f"no gateway channel with {outsider!r}")
        sealed = protector.seal(
            self.group, self.client.me, payload, self.client.random_source
        )
        self._session.flush.unicast(
            ProcessId.parse(outsider),
            OutsiderData(group=self.group, outsider=outsider, sealed=sealed),
        )


class OutsiderChannel:
    """The non-member's side of the gateway.

    Needs only a raw (non-member!) Spread connection, an identity in the
    key directory, and the group's name.
    """

    def __init__(
        self,
        client: SpreadClient,
        group: str,
        params: DHParams,
        long_term: DHKeyPair,
        directory: KeyDirectory,
        random_source: Optional[RandomSource] = None,
    ) -> None:
        self.client = client
        self.group = group
        self.params = params
        self.long_term = long_term
        self.directory = directory
        self.random_source = random_source or SystemSource()
        self._nonce: Optional[bytes] = None
        self._protector: Optional[DataProtector] = None
        self._gateway: Optional[str] = None
        self.received: List[bytes] = []
        client.on_event(self._on_event)

    @property
    def me(self) -> str:
        return str(self.client.pid)

    @property
    def connected(self) -> bool:
        return self._protector is not None

    def publish_key(self) -> None:
        self.directory.register(self.me, self.long_term.public)

    def open(self) -> None:
        """Request a gateway channel (open-group multicast)."""
        self._nonce = self.random_source.token_bytes(16)
        self.client.multicast(
            ServiceType.AGREED,
            self.group,
            OutsiderHello(group=self.group, outsider=self.me, nonce=self._nonce),
        )

    def send(self, payload: bytes) -> None:
        """Seal a payload to the group via the gateway."""
        if self._protector is None or self._gateway is None:
            raise SecureGroupError("gateway channel not established")
        sealed = self._protector.seal(
            self.group, self.me, payload, self.random_source
        )
        self.client.unicast(
            ServiceType.AGREED,
            ProcessId.parse(self._gateway),
            OutsiderData(group=self.group, outsider=self.me, sealed=sealed),
        )

    def _on_event(self, event) -> None:
        if not isinstance(event, DataEvent):
            return
        payload = event.payload
        # Group members send through their flush layer, which wraps
        # payloads; the outsider speaks raw Spread, so unwrap here.
        from repro.spread.flush import _FlushData

        if isinstance(payload, _FlushData):
            payload = payload.payload
        if isinstance(payload, GatewayAccept) and payload.group == self.group:
            if payload.outsider_nonce != self._nonce:
                return  # not an answer to our hello
            pairwise = self.params.exp(
                self.directory.lookup(payload.gateway),
                self.long_term.private,
                None,
                "gateway",
            )
            keys = _gateway_keys(
                pairwise, self.group, self.me, payload.gateway,
                payload.outsider_nonce, payload.gateway_nonce,
            )
            self._protector = DataProtector(
                keys, _epoch_label(self.group, self.me)
            )
            self._gateway = payload.gateway
            return
        if isinstance(payload, OutsiderData) and payload.outsider == self.me:
            if self._protector is None:
                return
            try:
                self.received.extend(self._protector.unseal((payload.sealed,)))
            except ReproError:
                return
