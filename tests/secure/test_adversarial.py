"""Adversarial scenarios: active attackers at the GCS level.

The paper's threat model (§1.1, §4): the network is untrusted, an
active attacker can inject, replay and corrupt messages; Cliques claims
key independence, key confirmation, PFS and resistance to known-key
attacks, with long-term keys authenticating the flows.  These tests play
the attacker by injecting forged traffic straight into the stack and
assert the system either rejects it or recovers through the restart
path — never by accepting a wrong key or plaintext.
"""

import pytest

from repro.cliques.tokens import AuthenticatedEntry, DownflowToken
from repro.crypto.kdf import derive_keys
from repro.crypto.random_source import DeterministicSource
from repro.secure.cascade import AgreementEnvelope, KeyConfirm
from repro.secure.dataprotect import DataProtector, SealedMessage
from repro.secure.events import SecureDataEvent
from repro.types import ServiceType

from tests.secure.conftest import SecureHarness, wire_tap


def build_pair(h, module="cliques"):
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    return a, b


def inject(h, outsider_name, daemon, group, payload):
    """Send arbitrary payload into the group from a raw connection (the
    attacker controls a machine on the LAN)."""
    attacker = h.cluster.client(outsider_name, daemon)
    attacker.multicast(ServiceType.AGREED, group, payload)
    return attacker


def test_forged_sealed_message_is_dropped():
    h = SecureHarness()
    a, b = build_pair(h)
    bogus_keys = derive_keys(666, "g|forged", 0)
    forger = DataProtector(bogus_keys, a.sessions["g"].epoch_label)
    sealed = forger.seal("g", str(a.pid), b"evil", DeterministicSource(1))
    inject(h, "mallory", "d2", "g", sealed)
    h.run(2.0)
    assert b"evil" not in h.payloads_of("a")
    assert b"evil" not in h.payloads_of("b")
    # The group remains healthy.
    a.send("g", b"still fine")
    h.run_until(lambda: b"still fine" in h.payloads_of("b"))


def test_replayed_sealed_message_from_old_epoch_dropped():
    h = SecureHarness()
    a, b = build_pair(h)
    sniffed = wire_tap(b)  # the attacker sniffs b's connection
    a.send("g", b"first epoch secret")
    h.run_until(lambda: b"first epoch secret" in h.payloads_of("b"))
    captured = sniffed[-1]
    # Re-key (third member joins), then replay the old ciphertext.
    c = h.member("c", "d2")
    c.join("g")
    h.wait_view(["a", "b", "c"])
    count_before = h.payloads_of("a").count(b"first epoch secret")
    inject(h, "mallory", "d2", "g", captured)
    h.run(2.0)
    assert h.payloads_of("a").count(b"first epoch secret") == count_before


def test_forged_key_confirm_cannot_complete_view():
    """An attacker spamming KeyConfirms with a fake fingerprint must not
    trick members into a bad view; mismatches force a restart and the
    group still converges on a correct common key."""
    h = SecureHarness()
    a, b = build_pair(h)
    session = a.sessions["g"]
    forged = KeyConfirm(session.view_key, session.attempt, "attacker00")
    inject(h, "mallory", "d2", "g", forged)
    h.run(3.0)
    # Whatever happened (ignored or restart), both members end up with
    # the same key and working traffic.
    h.wait_view(["a", "b"], timeout=60)
    a.send("g", b"after forged confirm")
    h.run_until(lambda: b"after forged confirm" in h.payloads_of("b"))


def test_forged_downflow_token_recovers_via_restart():
    """A garbage Cliques downflow injected mid-agreement triggers the
    restart path instead of corrupting anyone's state."""
    h = SecureHarness()
    a, b = build_pair(h)
    session = a.sessions["g"]
    bogus_token = DownflowToken(
        group="g",
        sender="#mallory#d2",
        epoch=99,
        members=(str(a.pid), str(b.pid)),
        entries={
            str(a.pid): AuthenticatedEntry(5, frozenset()),
            str(b.pid): AuthenticatedEntry(7, frozenset()),
        },
        operation="join",
    )
    envelope = AgreementEnvelope(session.view_key, session.attempt, bogus_token)
    inject(h, "mallory", "d2", "g", envelope)
    h.run(3.0)
    h.wait_view(["a", "b"], timeout=60)
    a.send("g", b"attack absorbed")
    h.run_until(lambda: b"attack absorbed" in h.payloads_of("b"))


def test_eavesdropper_sees_no_plaintext():
    """Everything a non-member observes on the wire during keying and
    traffic is free of the application plaintext."""
    h = SecureHarness()
    observed = []
    original_send = h.network.send

    def sniff(source, destination, payload, size=None):
        observed.append(payload)
        return original_send(source, destination, payload, size)

    h.network.send = sniff
    a, b = build_pair(h)
    secret_text = b"the eagle lands at midnight"
    a.send("g", secret_text)
    h.run_until(lambda: secret_text in h.payloads_of("b"))

    def contains_plaintext(obj, depth=0):
        if depth > 6:
            return False
        if isinstance(obj, (bytes, bytearray)):
            return secret_text in obj
        if isinstance(obj, str):
            return secret_text.decode() in obj
        if isinstance(obj, dict):
            return any(contains_plaintext(v, depth + 1) for v in obj.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            return any(contains_plaintext(v, depth + 1) for v in obj)
        if hasattr(obj, "__dict__"):
            return contains_plaintext(vars(obj), depth + 1)
        if hasattr(obj, "__dataclass_fields__"):
            return any(
                contains_plaintext(getattr(obj, f), depth + 1)
                for f in obj.__dataclass_fields__
            )
        return False

    assert not any(contains_plaintext(p) for p in observed)


def test_leaver_transcript_cannot_decrypt_future_traffic():
    """Key independence, end to end: everything the leaver ever held
    (its last session keys) fails against post-leave ciphertexts."""
    h = SecureHarness()
    a, b = build_pair(h)
    c = h.member("c", "d2")
    c.join("g")
    h.wait_view(["a", "b", "c"])
    leaver_keys = c.sessions["g"]._session_keys  # what c walks away with
    c.leave("g")
    h.wait_view(["a", "b"])
    sniffed = wire_tap(b)
    a.send("g", b"post-leave plan")
    h.run_until(lambda: b"post-leave plan" in h.payloads_of("b"))
    # Grab the new ciphertext and try the leaver's old protector on it.
    captured = sniffed[-1]
    old_protector = DataProtector(leaver_keys, captured.epoch_label)
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        old_protector.unseal((captured,))


def test_tampered_ciphertext_rejected_and_group_survives():
    h = SecureHarness()
    a, b = build_pair(h)
    sniffed = wire_tap(b)
    a.send("g", b"original")
    h.run_until(
        lambda: b"original" in h.payloads_of("b")
        and b"original" in h.payloads_of("a")
    )
    captured = sniffed[-1]
    tampered = SealedMessage(
        group=captured.group,
        epoch_label=captured.epoch_label,
        sender=captured.sender,
        ciphertext=bytes([captured.ciphertext[0] ^ 1]) + captured.ciphertext[1:],
        tag=captured.tag,
    )
    before = len(h.payloads_of("a"))
    inject(h, "mallory", "d2", "g", tampered)
    h.run(2.0)
    assert len(h.payloads_of("a")) == before
