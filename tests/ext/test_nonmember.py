"""Secure group <-> non-member communication through the gateway."""

import pytest

from repro.crypto.dh import DHKeyPair
from repro.crypto.random_source import DeterministicSource
from repro.errors import SecureGroupError
from repro.ext.nonmember import (
    GroupGateway,
    OutsiderChannel,
    OutsiderDataEvent,
)
from repro.sim.rng import stable_seed

from tests.secure.conftest import SecureHarness


def build_group_with_gateways(h, names=("a", "b"), group="g"):
    members = []
    gateways = []
    for i, name in enumerate(names):
        member = h.member(name, f"d{i % 3}")
        member.join(group)
        members.append(member)
        h.wait_view(list(names[: i + 1]), group=group)
        gateways.append(GroupGateway(member, group))
    return members, gateways


def make_outsider(h, name, daemon, group="g"):
    raw = h.cluster.client(name, daemon)
    source = DeterministicSource(stable_seed(77, name))
    keypair = DHKeyPair.generate(h.params, source)
    outsider = OutsiderChannel(
        raw, group, h.params, keypair, h.directory, random_source=source
    )
    outsider.publish_key()
    return outsider


def test_outsider_message_reaches_all_members():
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    outsider = make_outsider(h, "x", "d2")
    outsider.open()
    h.run_until(lambda: outsider.connected, timeout=30)
    outsider.send(b"hello from outside")
    h.run_until(
        lambda: all(
            any(e.payload == b"hello from outside" for e in gw.queue)
            for gw in gateways
        ),
        timeout=30,
    )
    for gateway in gateways:
        event = gateway.queue[-1]
        assert event.outsider == str(outsider.me)


def test_outsider_never_sees_group_key_material():
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    outsider = make_outsider(h, "x", "d2")
    outsider.open()
    h.run_until(lambda: outsider.connected, timeout=30)
    group_fingerprint = members[0].sessions["g"]._session_keys.fingerprint()
    assert outsider._protector.keys.fingerprint() != group_fingerprint


def test_group_reply_to_outsider():
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    outsider = make_outsider(h, "x", "d2")
    outsider.open()
    h.run_until(lambda: outsider.connected, timeout=30)
    acting = next(g for g in gateways if g._is_acting_gateway())
    acting.reply(outsider.me, b"the group answers")
    h.run_until(lambda: b"the group answers" in outsider.received, timeout=30)


def test_reply_without_channel_raises():
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    with pytest.raises(SecureGroupError):
        gateways[0].reply("#ghost#d9", b"x")


def test_send_before_channel_raises():
    h = SecureHarness()
    build_group_with_gateways(h)
    outsider = make_outsider(h, "x", "d2")
    with pytest.raises(SecureGroupError):
        outsider.send(b"too early")


def test_only_one_member_acts_as_gateway():
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h, names=("a", "b", "c"))
    outsider = make_outsider(h, "x", "d0")
    outsider.open()
    h.run_until(lambda: outsider.connected, timeout=30)
    acting = [g for g in gateways if g._channels]
    assert len(acting) == 1


def test_forged_outsider_data_dropped():
    """Data sealed under the wrong key must not be relayed."""
    from repro.secure.dataprotect import DataProtector
    from repro.crypto.kdf import derive_keys
    from repro.ext.nonmember import OutsiderData

    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    outsider = make_outsider(h, "x", "d2")
    outsider.open()
    h.run_until(lambda: outsider.connected, timeout=30)
    # Forge: seal with an unrelated key but claim the outsider's name.
    bogus_keys = derive_keys(12345, "gateway|g", 0)
    forger = DataProtector(bogus_keys, f"gateway|g|{outsider.me}")
    sealed = forger.seal("g", outsider.me, b"forged", DeterministicSource(5))
    acting = next(g for g in gateways if g._channels)
    acting._on_outsider_data(
        OutsiderData(group="g", outsider=outsider.me, sealed=sealed)
    )
    h.run(2.0)
    for gateway in gateways:
        assert all(e.payload != b"forged" for e in gateway.queue)


def test_two_outsiders_independent_channels():
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    x = make_outsider(h, "x", "d2")
    y = make_outsider(h, "y", "d2")
    x.open()
    y.open()
    h.run_until(lambda: x.connected and y.connected, timeout=30)
    assert x._protector.keys.fingerprint() != y._protector.keys.fingerprint()
    x.send(b"from x")
    y.send(b"from y")
    h.run_until(
        lambda: any(e.payload == b"from x" for e in gateways[0].queue)
        and any(e.payload == b"from y" for e in gateways[0].queue),
        timeout=30,
    )
    events = {
        (e.outsider, bytes(e.payload)) for e in gateways[0].queue
    }
    assert (str(x.me), b"from x") in events
    assert (str(y.me), b"from y") in events
