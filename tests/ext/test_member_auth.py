"""Intra-group member authentication: challenge-response over the stack."""

import pytest

from repro.errors import NoGroupKeyError
from repro.ext.member_auth import (
    MemberAuthChallenge,
    MemberAuthenticatedEvent,
    MemberAuthenticator,
    MemberAuthResponse,
    make_proof,
    response_key,
    verify_proof,
)
from repro.spread.events import DataEvent, GroupViewId
from repro.types import ViewId

from tests.secure.conftest import SecureHarness


# -- pure crypto units -------------------------------------------------------------


def make_challenge(nonce=b"n" * 16, attempt=0):
    return MemberAuthChallenge(
        group="g",
        view_key=GroupViewId(ViewId(1, 1, "d0"), 1),
        attempt=attempt,
        nonce=nonce,
        challenger="#a#d0",
        target="#b#d1",
    )


def make_response(challenge, proof, responder="#b#d1", nonce=None,
                  attempt=None):
    return MemberAuthResponse(
        group=challenge.group,
        view_key=challenge.view_key,
        attempt=challenge.attempt if attempt is None else attempt,
        nonce=challenge.nonce if nonce is None else nonce,
        responder=responder,
        proof=proof,
    )


def test_proof_roundtrip():
    challenge = make_challenge()
    key = response_key(12345, "g", challenge.view_key, 0, "abcd", "#a#d0", "#b#d1")
    proof = make_proof(key, challenge)
    assert verify_proof(key, challenge, make_response(challenge, proof))


def test_proof_rejects_wrong_key():
    challenge = make_challenge()
    key = response_key(12345, "g", challenge.view_key, 0, "abcd", "#a#d0", "#b#d1")
    bad_key = response_key(54321, "g", challenge.view_key, 0, "abcd", "#a#d0", "#b#d1")
    proof = make_proof(bad_key, challenge)
    assert not verify_proof(key, challenge, make_response(challenge, proof))


def test_proof_rejects_wrong_nonce():
    challenge = make_challenge()
    key = response_key(12345, "g", challenge.view_key, 0, "abcd", "#a#d0", "#b#d1")
    proof = make_proof(key, challenge)
    assert not verify_proof(
        key, challenge, make_response(challenge, proof, nonce=b"x" * 16)
    )


def test_proof_rejects_wrong_responder():
    challenge = make_challenge()
    key = response_key(12345, "g", challenge.view_key, 0, "abcd", "#a#d0", "#b#d1")
    proof = make_proof(key, challenge)
    assert not verify_proof(
        key, challenge, make_response(challenge, proof, responder="#m#d2")
    )


def test_proof_rejects_stale_attempt():
    challenge = make_challenge()
    key = response_key(12345, "g", challenge.view_key, 0, "abcd", "#a#d0", "#b#d1")
    proof = make_proof(key, challenge)
    assert not verify_proof(
        key, challenge, make_response(challenge, proof, attempt=1)
    )


def test_response_key_binds_fingerprint():
    challenge = make_challenge()
    a = response_key(12345, "g", challenge.view_key, 0, "aaaa", "#a#d0", "#b#d1")
    b = response_key(12345, "g", challenge.view_key, 0, "bbbb", "#a#d0", "#b#d1")
    assert a != b


# -- full stack ----------------------------------------------------------------------


def auth_events(authenticator):
    return [
        e for e in authenticator.queue if isinstance(e, MemberAuthenticatedEvent)
    ]


def auth_frames(member, kind):
    """Challenge or response frames that reached ``member``'s queue."""
    return [
        e for e in member.queue
        if isinstance(e, DataEvent) and isinstance(e.payload, kind)
    ]


def keyed_pair(h):
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    return a, b


def test_member_authentication_succeeds():
    h = SecureHarness()
    a, b = keyed_pair(h)
    auth_a = MemberAuthenticator(a)
    MemberAuthenticator(b)
    auth_a.authenticate("g", str(b.pid))
    h.run_until(lambda: auth_events(auth_a))
    event = auth_events(auth_a)[-1]
    assert event.authenticated
    assert event.peer == str(b.pid)


def test_mutual_authentication():
    h = SecureHarness()
    a, b = keyed_pair(h)
    auth_a = MemberAuthenticator(a)
    auth_b = MemberAuthenticator(b)
    auth_a.authenticate("g", str(b.pid))
    auth_b.authenticate("g", str(a.pid))
    h.run_until(lambda: auth_events(auth_a) and auth_events(auth_b))
    assert auth_events(auth_a)[-1].authenticated
    assert auth_events(auth_b)[-1].authenticated


def test_authenticate_unknown_peer_rejected():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    with pytest.raises(NoGroupKeyError):
        MemberAuthenticator(a).authenticate("g", "#ghost#d9")


def test_authenticate_before_key_rejected():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    with pytest.raises(NoGroupKeyError):
        MemberAuthenticator(a).authenticate("g", "#b#d1")


def test_stale_challenge_after_rekey_gets_no_response():
    """A challenge from the previous secure view must not be answered."""
    h = SecureHarness()
    a, b = keyed_pair(h)
    auth_a = MemberAuthenticator(a)
    MemberAuthenticator(b)  # b can answer: silence below is a refusal
    session_a = a.sessions["g"]
    old_view, old_attempt = session_a.view_key, session_a.attempt
    # Re-key via a third member joining.
    c = h.member("c", "d2")
    c.join("g")
    h.wait_view(["a", "b", "c"])
    # Forge a challenge pinned to the old view.
    stale = MemberAuthChallenge(
        group="g",
        view_key=old_view,
        attempt=old_attempt,
        nonce=b"z" * 16,
        challenger=str(a.pid),
        target=str(b.pid),
    )
    auth_a._pending[stale.nonce] = stale
    a.flush.unicast(b.pid, stale)
    h.run(2.0)
    assert auth_frames(b, MemberAuthChallenge)  # the challenge reached b
    assert not auth_frames(a, MemberAuthResponse)  # b refused to answer
    assert not auth_events(auth_a)  # no verdict


def test_member_without_authenticator_leaves_challenge_unanswered():
    h = SecureHarness()
    a, b = keyed_pair(h)
    auth_a = MemberAuthenticator(a)
    auth_a.authenticate("g", str(b.pid))
    h.run(2.0)
    # The challenge reaches b's application as a plain data event ...
    (frame,) = auth_frames(b, MemberAuthChallenge)
    assert frame.payload.target == str(b.pid)
    # ... and nothing answers it.
    assert not auth_frames(a, MemberAuthResponse)
    assert not auth_events(auth_a)
