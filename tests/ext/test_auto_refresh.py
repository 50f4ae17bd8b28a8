"""Periodic key refresh (Section 4.4 on a timer)."""

import pytest

from repro.ext.refresh import auto_refresh
from repro.secure.events import KeyOperation, SecureMembershipEvent

from tests.secure.conftest import SecureHarness


def refresh_views(member, group="g"):
    return [
        e for e in member.queue
        if isinstance(e, SecureMembershipEvent)
        and str(e.group) == group
        and e.operation == KeyOperation.REFRESH
    ]


def test_auto_refresh_rotates_keys_periodically():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    for name in ("a", "b"):
        auto_refresh(h.members[name], "g", 1.0)
    fingerprints = set()
    h.run(3.5)
    assert len(refresh_views(a)) >= 3
    assert len(refresh_views(b)) >= 3
    for event in refresh_views(a):
        fingerprints.add(event.key_fingerprint)
    assert len(fingerprints) == len(refresh_views(a))  # all keys distinct
    assert h.same_key(["a", "b"])


def test_auto_refresh_only_controller_triggers():
    """Both members arm the timer; exactly one refresh per period."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    auto_refresh(a, "g", 1.0)
    auto_refresh(b, "g", 1.0)
    h.run(2.5)
    # Two periods elapsed -> exactly two refresh views (not four).
    assert len(refresh_views(a)) == 2


def test_auto_refresh_rejects_bad_period():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    with pytest.raises(ValueError):
        auto_refresh(a, "g", 0)


def test_auto_refresh_survives_membership_change():
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    for name in ("a", "b"):
        auto_refresh(h.members[name], "g", 1.0)
    h.run(1.5)
    c = h.member("c", "d2")
    c.join("g")
    h.wait_view(["a", "b", "c"])
    # The controller role moved to the newest member: it arms its own
    # timer, like every member does on joining.
    auto_refresh(c, "g", 1.0)
    before = len(refresh_views(a))
    h.run(2.5)
    assert len(refresh_views(a)) > before
    assert h.same_key(["a", "b", "c"])


def count_refresh_ticks(kernel, group="g"):
    """Wrap ``kernel.call_later``; the returned list grows by one per
    tick scheduled under the refresh timer's label."""
    scheduled = []
    call_later = kernel.call_later

    def counting(delay, callback, *args, **kwargs):
        if kwargs.get("label") == f"secure.{group}.refresh":
            scheduled.append(kernel.now)
        return call_later(delay, callback, *args, **kwargs)

    kernel.call_later = counting
    return scheduled


def test_auto_refresh_stops_when_the_member_leaves():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    auto_refresh(a, "g", 1.0)
    a.leave("g")
    ticks = count_refresh_ticks(h.kernel)
    h.run(5.0)
    assert ticks == []


def test_auto_refresh_does_not_poll_a_rejoined_session():
    h = SecureHarness()
    a = h.member("a", "d0")
    a.join("g")
    h.wait_view(["a"])
    auto_refresh(a, "g", 1.0)
    a.leave("g")
    h.run(0.5)
    a.join("g")
    h.run_until(lambda: a.has_key("g"))
    ticks = count_refresh_ticks(h.kernel)
    h.run(5.0)
    assert ticks == []
    assert not refresh_views(a)
