"""The unseal run: sealed data that reaches a member in one loop turn.

A :class:`~repro.secure.session.SecureGroupSession` collects the sealed
messages of one loop turn and unseals them in one
:meth:`~repro.secure.dataprotect.DataProtector.unseal` call at the end
of the turn.  These cases pin the run's contract on both backends
(``[sim]``: the seeded kernel; ``[tcp]``: real daemons and clients on
an asyncio loop):

* anything else the session takes drains the run first, so deliveries
  keep their order against every other event;
* one bad message in a run is rejected alone, with its usual reason;
* a rekey that retires the key drains the run under the old key.

Each case hands a member's secure client events back to back from the
test, between two loop turns, exactly as the flush layer does for one
socket read; the client performs what the session returns.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cliques.directory import KeyDirectory
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.secure.dataprotect import DataProtector, SealedMessage
from repro.secure.events import SecureDataEvent
from repro.secure.session import SecureClient
from repro.sim.rng import stable_seed
from repro.sim.trace import Tracer
from repro.spread.events import DataEvent, FlushRequestEvent, MembershipEvent
from repro.spread.flush import FlushClient
from repro.transport.client import TcpSpreadClient
from repro.transport.host import DaemonHost, loopback_available, wait_for_condition
from repro.types import GroupId, MembershipCause, ServiceType

from tests.secure.conftest import SecureHarness, hand_up
from tests.transport.conftest import loopback_config


class SimSide:
    def __init__(self) -> None:
        self.harness = SecureHarness(daemon_count=1)
        self.tracer = self.harness.cluster.tracer

    def member(self, name: str) -> SecureClient:
        return self.harness.member(name, "d0")

    def wait(self, predicate) -> None:
        self.harness.run_until(predicate, timeout=30.0)

    def turn(self) -> None:
        self.harness.run(0.0)

    def close(self) -> None:
        pass


class TcpSide:
    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.tracer = Tracer()
        self.host = DaemonHost(loopback_config(("d0",)), ("d0",), tracer=self.tracer)
        self.clients = []
        self.params = DHParams.tiny_test()
        self.directory = KeyDirectory()
        self.run(self.host.start())
        self.run(self.host.settle())

    def run(self, coro, timeout: float = 30.0):
        return self.loop.run_until_complete(asyncio.wait_for(coro, timeout))

    def member(self, name: str) -> SecureClient:
        client = TcpSpreadClient(
            self.host.addresses.client("d0"), name, clock=self.host.clock,
            reconnect=False,
        )
        self.run(client.connect())
        self.clients.append(client)
        source = DeterministicSource(stable_seed(11, name))
        member = SecureClient(
            flush=FlushClient(client, auto_flush=False),
            params=self.params,
            long_term=DHKeyPair.generate(self.params, source),
            directory=self.directory,
            random_source=source,
        )
        member.publish_key()
        return member

    def wait(self, predicate) -> None:
        self.run(wait_for_condition(predicate, timeout=30.0))

    def turn(self) -> None:
        self.run(asyncio.sleep(0.01))

    def close(self) -> None:
        try:
            for client in self.clients:
                self.run(client.close())
            self.run(self.host.stop())
        finally:
            self.loop.close()


@pytest.fixture(params=["sim", "tcp"])
def side(request):
    if request.param == "tcp" and not loopback_available():  # pragma: no cover
        pytest.skip("loopback sockets unavailable")
    backend = SimSide() if request.param == "sim" else TcpSide()
    yield backend
    backend.close()


def keyed_pair(side):
    """Two members of ``g`` with a confirmed key: (sender, receiver)."""
    a = side.member("a")
    b = side.member("b")
    a.join("g")
    side.wait(lambda: a.has_key("g"))
    b.join("g")
    side.wait(lambda: all(
        m.has_key("g") and len(m.sessions["g"].members()) == 2 for m in (a, b)
    ))
    return a, b


def sealed_from(sender: SecureClient, payload: bytes) -> DataEvent:
    """A data event carrying ``payload`` sealed under the sender's key."""
    session = sender.sessions["g"]
    sealed = session._protector.seal(
        "g", sender.me, payload, DeterministicSource(len(payload))
    )
    return DataEvent(GroupId("g"), sender.pid, ServiceType.AGREED, sealed, 0)


def with_sealed(event: DataEvent, **fields) -> DataEvent:
    sealed = event.payload
    values = {
        name: getattr(sealed, name)
        for name in ("group", "epoch_label", "sender", "ciphertext", "tag")
    }
    values.update(fields)
    return DataEvent(
        event.group, event.sender, event.service, SealedMessage(**values), 0
    )


def data_payloads(member: SecureClient):
    return [e.payload for e in member.queue if isinstance(e, SecureDataEvent)]


def test_other_events_drain_the_run_first(side, monkeypatch):
    a, b = keyed_pair(side)
    session = b.sessions["g"]
    flush_oks = []
    monkeypatch.setattr(
        b.flush, "flush_ok", lambda group: flush_oks.append(data_payloads(b))
    )
    transitional = MembershipEvent(
        GroupId("g"), session.view.view_id, session.view.members,
        MembershipCause.TRANSITIONAL,
    )
    before = len(b.queue)
    hand_up(
        b, sealed_from(a, b"one"), sealed_from(a, b"two"), transitional,
        sealed_from(a, b"three"), FlushRequestEvent(GroupId("g")),
        sealed_from(a, b"four"),
    )
    # Everything up to the flush request is out; "four" waits for the
    # end of the turn.
    assert flush_oks == [[b"one", b"two", b"three"]]
    side.turn()
    new = [
        e.payload if isinstance(e, SecureDataEvent) else e
        for e in list(b.queue)[before:]
    ]
    assert new == [b"one", b"two", transitional, b"three", b"four"]


def test_a_bad_message_is_rejected_alone(side):
    a, b = keyed_pair(side)
    session = b.sessions["g"]
    good = sealed_from(a, b"good")
    forged = with_sealed(sealed_from(a, b"forged"), tag=bytes(len(good.payload.tag)))
    stale_protector = DataProtector(
        session._session_keys, "g|stale|0", cipher=session.cipher
    )
    stale = DataEvent(
        GroupId("g"), a.pid, ServiceType.AGREED,
        stale_protector.seal("g", a.me, b"stale", DeterministicSource(3)), 0,
    )
    rejected = session.rejected_messages
    side.tracer.clear()
    hand_up(
        b, sealed_from(a, b"n1"), forged, sealed_from(a, b"n2"), stale,
        sealed_from(a, b"n3"),
    )
    side.turn()
    assert data_payloads(b)[-3:] == [b"n1", b"n2", b"n3"]
    assert session.rejected_messages == rejected + 2
    mine = [
        (e.kind, e.get("reason"))
        for e in side.tracer.with_prefix("secure.")
        if e.get("me") == b.me and e.kind in ("secure.data", "secure.reject")
    ]
    assert mine == [
        ("secure.data", None),
        ("secure.reject", "mac_fail"),
        ("secure.data", None),
        ("secure.reject", "stale_epoch"),
        ("secure.data", None),
    ]


def test_a_rekey_drains_the_run_under_the_old_key(side):
    a, b = keyed_pair(side)
    controller, other = (a, b) if a.sessions["g"].module.is_controller else (b, a)
    session = controller.sessions["g"]
    rejected = session.rejected_messages
    hand_up(controller, sealed_from(other, b"r1"), sealed_from(other, b"r2"))
    controller.refresh("g")  # retires the key in the same turn
    side.turn()
    assert data_payloads(controller)[-2:] == [b"r1", b"r2"]
    assert session.rejected_messages == rejected
