"""Secure layer end-to-end: key agreement over the real stack, data
protection, membership changes, all three modules."""

import pytest

from repro.errors import (
    ConnectionClosedError,
    ControllerError,
    NoGroupKeyError,
    SendBlockedError,
)
from repro.secure.cascade import RestartRequest
from repro.secure.events import (
    KeyOperation,
    RekeyStartedEvent,
    SecureDataEvent,
    SecureMembershipEvent,
)
from repro.secure.session import AGREEMENT_WATCHDOG
from repro.spread.events import DataEvent
from repro.types import GroupId, ServiceType

from tests.secure.conftest import SecureHarness, hand_up, wire_tap


MODULES = ["cliques", "ckd", "tgdh"]


# -- basic keying -------------------------------------------------------------------


@pytest.mark.parametrize("module", MODULES)
def test_single_member_gets_key(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g", module=module)
    h.wait_view(["a"])
    assert a.has_key("g")


@pytest.mark.parametrize("module", MODULES)
def test_two_members_agree(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    assert h.same_key(["a", "b"])


@pytest.mark.parametrize("module", MODULES)
def test_three_members_across_daemons(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    c = h.member("c", "d2")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    c.join("g", module=module)
    h.wait_view(["a", "b", "c"])


@pytest.mark.parametrize("module", MODULES)
def test_join_changes_key(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g", module=module)
    h.wait_view(["a"])
    key_before = a.sessions["g"]._session_keys.fingerprint()
    b = h.member("b", "d1")
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    assert a.sessions["g"]._session_keys.fingerprint() != key_before


# -- secure data ---------------------------------------------------------------------


@pytest.mark.parametrize("module", MODULES)
def test_encrypted_data_delivered(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    a.send("g", b"attack at dawn")
    h.run_until(lambda: b"attack at dawn" in h.payloads_of("b"))
    # Sender also receives its own (decrypted) copy.
    h.run_until(lambda: b"attack at dawn" in h.payloads_of("a"))


def test_ciphertext_on_wire_differs_from_plaintext():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    sniffed = wire_tap(b)
    a.send("g", b"supersecret-payload")
    # Inspect the traffic reaching b's Spread connection: the plaintext
    # must never appear in any sealed message on the wire.
    h.run_until(lambda: b"supersecret-payload" in h.payloads_of("b"))
    assert sniffed
    for sealed in sniffed:
        assert b"supersecret-payload" not in sealed.ciphertext


def test_send_before_key_raises():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    with pytest.raises(NoGroupKeyError):
        a.send("g", b"too early")


def test_send_to_unjoined_group_raises():
    h = SecureHarness()
    a = h.member("a", "d0")
    with pytest.raises(NoGroupKeyError):
        a.send("nope", b"x")


def test_non_member_cannot_decrypt():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    before = a.sessions["g"]._session_keys.fingerprint()
    b.leave("g")
    h.wait_view(["a"])
    # Key rotated after the leave: the leaver cannot decrypt new data.
    assert a.sessions["g"]._session_keys.fingerprint() != before
    a.send("g", b"post-leave secret")
    h.run(1.0)
    assert b"post-leave secret" not in h.payloads_of("b")


# -- leaves, disconnects --------------------------------------------------------------


@pytest.mark.parametrize("module", MODULES)
def test_voluntary_leave_rekeys_remaining(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    c = h.member("c", "d2")
    for m in (a, b, c):
        m.join("g", module=module)
        h.run(2.0)
    h.wait_view(["a", "b", "c"])
    c.leave("g")
    h.wait_view(["a", "b"])
    assert h.same_key(["a", "b"])


@pytest.mark.parametrize("module", MODULES)
def test_client_crash_rekeys_remaining(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    c = h.member("c", "d2")
    for m in (a, b, c):
        m.join("g", module=module)
        h.run(2.0)
    h.wait_view(["a", "b", "c"])
    h.cluster.clients["c"].crash()
    h.wait_view(["a", "b"])


def test_leave_event_operation_classified():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    b.leave("g")
    h.wait_view(["a"])
    final = [
        e for e in a.queue if isinstance(e, SecureMembershipEvent)
    ][-1]
    assert final.operation == KeyOperation.LEAVE


def test_rekey_started_events_emitted():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    assert any(isinstance(e, RekeyStartedEvent) for e in a.queue)


# -- partitions / merges ------------------------------------------------------------------


@pytest.mark.parametrize("module", MODULES)
def test_partition_rekeys_each_side(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    h.network.partition([["d0"], ["d1", "d2"]])
    h.run_until(lambda: h.secure_members_of("a") == {str(a.pid)})
    h.run_until(lambda: h.secure_members_of("b") == {str(b.pid)})
    assert a.has_key("g") and b.has_key("g")


@pytest.mark.parametrize("module", MODULES)
def test_merge_after_heal_rekeys_together(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    h.network.partition([["d0"], ["d1", "d2"]])
    h.run_until(lambda: h.secure_members_of("a") == {str(a.pid)})
    h.run_until(lambda: h.secure_members_of("b") == {str(b.pid)})
    h.network.heal()
    h.wait_view(["a", "b"])
    assert h.same_key(["a", "b"])
    final = [e for e in a.queue if isinstance(e, SecureMembershipEvent)][-1]
    assert final.operation in (KeyOperation.MERGE, KeyOperation.LEAVE_THEN_MERGE)


@pytest.mark.parametrize("module", MODULES)
def test_member_of_a_stalled_daemon_merges_back_without_the_watchdog(module):
    """a's daemon stalls through the view where b rekeys alone, so a
    still holds the old two-member key when all merge.  a must not take
    the merge for a refresh (b takes it for a merge, and the two would
    wait out the agreement watchdog): b returned from another component,
    so a restarts the agreement and both key at once."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    h.cluster.daemons["d0"].stall()
    h.run_until(lambda: h.secure_members_of("b") == {str(b.pid)})
    h.cluster.daemons["d0"].resume()
    h.wait_view(["a", "b"], timeout=AGREEMENT_WATCHDOG / 5)
    started = {
        e["me"]: e["operation"]
        for e in h.cluster.tracer.of_kind("secure.rekey_started")
    }
    assert started == {"#a#d0": "leave_then_merge", "#b#d1": "merge"}
    assert not h.cluster.tracer.of_kind("secure.watchdog")


@pytest.mark.parametrize("module", MODULES)
def test_data_flows_after_merge(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    h.network.partition([["d0"], ["d1", "d2"]])
    h.run_until(lambda: h.secure_members_of("a") == {str(a.pid)})
    h.network.heal()
    h.wait_view(["a", "b"])
    a.send("g", b"after the storm")
    h.run_until(lambda: b"after the storm" in h.payloads_of("b"))


# -- refresh ------------------------------------------------------------------------------


@pytest.mark.parametrize("module", MODULES)
def test_controller_refresh_rotates_key(module):
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g", module=module)
    h.wait_view(["a"])
    b.join("g", module=module)
    h.wait_view(["a", "b"])
    before = a.sessions["g"]._session_keys.fingerprint()
    # Find the controller and refresh from there.
    controller = a if a.sessions["g"].module.is_controller else b
    controller.refresh("g")
    h.run_until(
        lambda: h.same_key(["a", "b"])
        and a.sessions["g"]._session_keys.fingerprint() != before
    )


def test_non_controller_refresh_rejected():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    non_controller = a if not a.sessions["g"].module.is_controller else b
    with pytest.raises(ControllerError):
        non_controller.refresh("g")


# -- mixed modules in one system -------------------------------------------------------------


def test_different_groups_different_modules():
    """One group on Cliques, another on CKD, same clients — the paper's
    run-time module choice."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g1", module="cliques")
    h.wait_view(["a"], group="g1")
    b.join("g1", module="cliques")
    a.join("g2", module="ckd")
    h.run(2.0)
    b.join("g2", module="ckd")
    h.wait_view(["a", "b"], group="g1")
    h.wait_view(["a", "b"], group="g2")
    assert a.sessions["g1"].module.name == "cliques"
    assert a.sessions["g2"].module.name == "ckd"
    a.send("g1", b"via cliques")
    a.send("g2", b"via ckd")
    h.run_until(
        lambda: b"via cliques" in h.payloads_of("b", "g1")
        and b"via ckd" in h.payloads_of("b", "g2")
    )


@pytest.mark.parametrize(
    "error", [SendBlockedError, ConnectionClosedError], ids=["blocked", "closed"]
)
def test_blocked_flush_drops_control_messages_gracefully(monkeypatch, error):
    """A restart round while the next view flushes (or the connection is
    down) is dropped by the client, and the session still moves on."""
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    session = a.sessions["g"]

    def refuse(*args, **kwargs):
        raise error("refused")

    monkeypatch.setattr(a.flush, "multicast", refuse)
    restart = RestartRequest(session.view_key, 0)
    hand_up(a, DataEvent(GroupId("g"), a.pid, ServiceType.AGREED, restart, 0))
    assert session.attempt == 1


def test_a_stacked_client_queues_each_event_once():
    """Only the top of the stack queues: the flush layer and the Spread
    connection under a SecureClient hand their events up instead of
    keeping a copy, while their ``on_event`` taps still see them."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    flush_tap = []
    b.flush.on_event(flush_tap.append)
    sniffed = wire_tap(b)
    payloads = [b"m%d" % i for i in range(20)]
    for payload in payloads:
        a.send("g", payload)
    h.run_until(lambda: h.payloads_of("b")[-20:] == payloads)
    for member in (a, b):
        assert not member.flush.queue and not member.flush.client.queue
    assert len(sniffed) == 20
    assert [e.payload for e in flush_tap if isinstance(e, DataEvent)] == sniffed
