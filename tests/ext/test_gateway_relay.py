"""The gateway's relay body: an explicit encoding, dropped when malformed."""

from repro.ext.nonmember import _decode_relay, _encode_relay

from tests.ext.test_nonmember import build_group_with_gateways
from tests.secure.conftest import SecureHarness

MALFORMED = (
    b"gateway-relay:",                    # no name length
    b"gateway-relay:\x00",                # half a name length
    b"gateway-relay:not a pickle",        # name length past the end
    b"gateway-relay:\x00\x02\xff\xfe hi", # name is not UTF-8
)


def test_relay_body_round_trips():
    for outsider, plaintext in (("#x#d2", b"hello"), ("#é#d0", b""), ("", b"\x00")):
        assert _decode_relay(_encode_relay(outsider, plaintext)) == (outsider, plaintext)
    for body in MALFORMED:
        assert _decode_relay(body) is None


def test_malformed_relay_body_is_dropped_and_traced():
    """A member payload that merely starts with the relay marker reaches
    every gateway; none may raise, and none may surface it."""
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    for body in MALFORMED:
        members[1].send("g", body)
    members[1].send("g", b"after")
    h.run_until(
        lambda: all(b"after" in h.payloads_of(name) for name in ("a", "b")),
        timeout=30,
    )
    assert all(not gateway.queue for gateway in gateways)
    traced = h.cluster.tracer.of_kind("secure.gateway_malformed")
    assert len(traced) == len(MALFORMED) * len(gateways)


def test_outsider_attribution_is_the_relaying_members_claim():
    """Receivers do not check which member relayed: a member that is not
    the acting gateway can still attribute a message to any outsider."""
    h = SecureHarness()
    members, gateways = build_group_with_gateways(h)
    forger = next(
        member for member, gateway in zip(members, gateways)
        if not gateway._is_acting_gateway()
    )
    forger.send("g", _encode_relay("#spoofed#d9", b"i am an outsider"))
    h.run_until(lambda: all(gateway.queue for gateway in gateways), timeout=30)
    for gateway in gateways:
        assert [(e.outsider, e.payload) for e in gateway.queue] == [
            ("#spoofed#d9", b"i am an outsider")
        ]
