"""Intra-group member authentication (the paper's §8 short-term work).

The paper notes that its approach "allows a group member to authenticate
based on its unique short-term secret, i.e., its secret contribution to
the common group key", unlike Ensemble's membership-only or long-lived
identity authentication.  This module provides the explicit
challenge-response realizing that:

* the **response key** is derived from the pairwise *long-term*
  Diffie-Hellman secret of challenger and responder (proves identity)
  **and** the fingerprint of the *current* group key (proves live
  membership in this very secure view);
* the challenge carries the secure view and attempt, so a response
  never validates across re-keys (freshness).

An adversary must hold both the member's long-term private key and the
current group key to impersonate — exactly the "member, not just
membership" granularity the paper asks for.

:class:`MemberAuthenticator` runs the exchange over the public
:class:`~repro.secure.session.SecureClient` API.  A member answers
challenges only if it attached one.  Challenges and responses are
ordinary unicasts, so they also reach ``client.queue`` as plain
:class:`~repro.spread.events.DataEvent` objects; verdicts reach the
authenticator's own ``queue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.bigint import int_to_bytes
from repro.crypto.hmac_mac import hmac_digest, hmac_verify
from repro.errors import NoGroupKeyError
from repro.secure.session import SecureClient, SecureGroupSession
from repro.spread.client import EventQueue
from repro.spread.events import DataEvent, GroupViewId
from repro.types import GroupId, ProcessId


@dataclass(frozen=True)
class MemberAuthChallenge:
    """Challenger -> member: prove you are <you> in this secure view."""

    group: str
    view_key: GroupViewId
    attempt: int
    nonce: bytes
    challenger: str
    target: str

    def wire_size(self) -> int:
        return 96 + len(self.nonce)


@dataclass(frozen=True)
class MemberAuthResponse:
    """Member -> challenger: the keyed proof."""

    group: str
    view_key: GroupViewId
    attempt: int
    nonce: bytes
    responder: str
    proof: bytes

    def wire_size(self) -> int:
        return 96 + len(self.nonce) + len(self.proof)


@dataclass(frozen=True)
class MemberAuthenticatedEvent:
    """Delivered to the challenger's application with the verdict."""

    group: GroupId
    peer: str
    authenticated: bool

    @property
    def is_membership(self) -> bool:
        return False


def response_key(
    pairwise_secret: int,
    group: str,
    view_key: GroupViewId,
    attempt: int,
    key_fingerprint: str,
    low_name: str,
    high_name: str,
) -> bytes:
    """The HMAC key for a challenge-response between two members.

    Binds: the pair's long-term DH secret, the exact secure view
    (group, view, attempt) and the current group key's fingerprint.
    """
    context = "|".join(
        (
            "member-auth",
            group,
            str(view_key),
            str(attempt),
            key_fingerprint,
            low_name,
            high_name,
        )
    ).encode()
    return hmac_digest(int_to_bytes(pairwise_secret), context)


def _proof_message(challenge: MemberAuthChallenge) -> bytes:
    return (
        challenge.nonce + challenge.challenger.encode() + b"|"
        + challenge.target.encode()
    )


def make_proof(key: bytes, challenge: MemberAuthChallenge) -> bytes:
    """The responder's proof over the challenge contents."""
    return hmac_digest(key, _proof_message(challenge))


def verify_proof(
    key: bytes, challenge: MemberAuthChallenge, response: MemberAuthResponse
) -> bool:
    """Constant-time verification, including freshness checks."""
    return (
        response.nonce == challenge.nonce
        and (response.view_key, response.attempt)
        == (challenge.view_key, challenge.attempt)
        and response.responder == challenge.target
        and hmac_verify(key, _proof_message(challenge), response.proof)
    )


class MemberAuthenticator(EventQueue):
    """Member-side challenge-response service, attached to a
    :class:`SecureClient`.

    :meth:`authenticate` challenges a member of a secure group; the
    verdict arrives in ``queue`` (and at ``on_event`` callbacks) as a
    :class:`MemberAuthenticatedEvent`.  Both sides act only in the
    secure view the challenge names: a challenge for an older view or
    attempt gets no answer, and a response that arrives after a rekey
    gets no verdict.
    """

    def __init__(self, client: SecureClient) -> None:
        super().__init__()
        self.client = client
        self._pairwise: Dict[str, int] = {}  # peer -> long-term DH secret
        self._pending: Dict[bytes, MemberAuthChallenge] = {}
        client.on_event(self._on_event)

    def authenticate(self, group: str, peer: str) -> None:
        """Challenge ``peer`` to prove membership AND identity in
        ``group``'s current secure view."""
        session = self.client.sessions.get(group)
        if session is None or not session.has_key:
            raise NoGroupKeyError("cannot authenticate without a secure view")
        if peer not in session.members():
            raise NoGroupKeyError(f"{peer} is not a member of {group!r}")
        challenge = MemberAuthChallenge(
            group=group,
            view_key=session.view_key,
            attempt=session.attempt,
            nonce=self.client.random_source.token_bytes(16),
            challenger=self.client.me,
            target=peer,
        )
        # Challenges of a retired secure view can never be answered.
        self._pending = {
            nonce: pending
            for nonce, pending in self._pending.items()
            if self._session_of(pending) is not None
        }
        self._pending[challenge.nonce] = challenge
        session.flush.unicast(ProcessId.parse(peer), challenge)

    def _session_of(
        self, challenge: MemberAuthChallenge
    ) -> Optional[SecureGroupSession]:
        """The session whose confirmed secure view ``challenge`` names, or
        None once that view has been rekeyed away."""
        session = self.client.sessions.get(challenge.group)
        if session is None or not session.has_key or (
            session.view_key, session.attempt
        ) != (challenge.view_key, challenge.attempt):
            return None
        return session

    def _on_event(self, event) -> None:
        if not isinstance(event, DataEvent):
            return
        payload = event.payload
        if isinstance(payload, MemberAuthChallenge):
            self._on_challenge(payload)
        elif isinstance(payload, MemberAuthResponse):
            self._on_response(payload)

    def _on_challenge(self, challenge: MemberAuthChallenge) -> None:
        session = self._session_of(challenge)
        if session is None or challenge.target != self.client.me:
            return
        response = MemberAuthResponse(
            group=challenge.group,
            view_key=challenge.view_key,
            attempt=challenge.attempt,
            nonce=challenge.nonce,
            responder=self.client.me,
            proof=make_proof(self._key(session, challenge.challenger), challenge),
        )
        session.flush.unicast(ProcessId.parse(challenge.challenger), response)

    def _on_response(self, response: MemberAuthResponse) -> None:
        challenge = self._pending.pop(response.nonce, None)
        if challenge is None:
            return
        session = self._session_of(challenge)
        if session is None:
            return
        ok = verify_proof(self._key(session, challenge.target), challenge, response)
        self._emit(
            MemberAuthenticatedEvent(
                group=GroupId(challenge.group),
                peer=challenge.target,
                authenticated=ok,
            )
        )

    def _key(self, session: SecureGroupSession, peer: str) -> bytes:
        client = self.client
        shared = self._pairwise.get(peer)
        if shared is None:
            shared = self._pairwise[peer] = client.params.exp(
                client.directory.lookup(peer),
                client.long_term.private,
                client.counter,
                "member_auth",
            )
        low, high = sorted((client.me, peer))
        return response_key(
            shared, session.group, session.view_key, session.attempt,
            session.key_fingerprint, low, high,
        )
