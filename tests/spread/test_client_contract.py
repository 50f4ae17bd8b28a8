"""One client contract, two backends.

Both Spread clients — :class:`~repro.spread.client.SpreadClient` over a
co-simulated daemon and :class:`~repro.transport.client.TcpSpreadClient`
over a real socket — sit on the one
:class:`~repro.spread.client.ClientCore`.  Every case here runs against
one daemon on each backend (``[sim]`` and ``[tcp]``), so a client fix
that lands on one backend only fails on the other.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    ConnectionClosedError,
    IllegalServiceError,
    NotMemberError,
)
from repro.spread.client import SpreadClient
from repro.spread.events import ConnectionLostEvent, DataEvent, MembershipEvent
from repro.transport.client import TcpSpreadClient
from repro.transport.host import DaemonHost, loopback_available, wait_for_condition
from repro.types import MembershipCause, ServiceType

from tests.spread.conftest import Cluster
from tests.transport.conftest import loopback_config


class SimSide:
    """One co-simulated daemon; waits run the virtual clock."""

    def __init__(self) -> None:
        self.cluster = Cluster(daemon_count=1)
        self.cluster.settle()
        self.daemon = self.cluster.daemons["d0"]

    def client(self, name: str) -> SpreadClient:
        return SpreadClient(self.cluster.kernel, name, self.daemon)

    def connect(self, client: SpreadClient):
        return client.connect()

    def wait(self, predicate) -> None:
        self.cluster.run_until(predicate, timeout=10.0)

    def idle(self, seconds: float) -> None:
        self.cluster.run(seconds)

    def lose_daemon(self) -> None:
        self.daemon.crash()

    def close(self) -> None:
        pass


class TcpSide:
    """One daemon on loopback sockets, driven step by step on a loop
    this side owns (a single daemon settles at once)."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.host = DaemonHost(loopback_config(("d0",)), ("d0",))
        self.clients = []
        self.run(self.host.start())
        self.run(self.host.settle())
        self.daemon = self.host.daemons["d0"]

    def run(self, coro, timeout: float = 30.0):
        return self.loop.run_until_complete(asyncio.wait_for(coro, timeout))

    def client(self, name: str) -> TcpSpreadClient:
        # The sim client has no reconnect, so the contract leaves it off.
        client = TcpSpreadClient(
            self.host.addresses.client("d0"),
            name,
            clock=self.host.clock,
            reconnect=False,
        )
        self.clients.append(client)
        return client

    def connect(self, client: TcpSpreadClient):
        return self.run(client.connect())

    def wait(self, predicate) -> None:
        self.run(wait_for_condition(predicate, timeout=10.0))

    def idle(self, seconds: float) -> None:
        self.run(asyncio.sleep(seconds))

    def lose_daemon(self) -> None:
        assert self.host.kick_clients("d0") >= 1

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


def joined(side, name: str = "app", group: str = "g"):
    """A connected client whose own join of ``group`` has installed."""
    client = side.client(name)
    side.connect(client)
    client.join(group)
    side.wait(lambda: any(
        isinstance(e, MembershipEvent) and str(e.group) == group
        for e in client.queue
    ))
    return client


def test_operations_require_connection(side):
    client = side.client("app")
    with pytest.raises(ConnectionClosedError):
        client.join("g")
    with pytest.raises(ConnectionClosedError):
        client.leave("g")
    with pytest.raises(ConnectionClosedError):
        client.multicast(ServiceType.AGREED, "g", b"x")
    with pytest.raises(ConnectionClosedError):
        client.unicast(ServiceType.FIFO, "#other#d0", b"x")


def test_connect_returns_the_private_group_once(side):
    client = side.client("app")
    pid = side.connect(client)
    assert str(pid) == "#app#d0" and client.connected
    assert side.connect(client) == pid
    assert list(side.daemon.clients) == ["app"]


def test_leave_without_join_raises(side):
    client = side.client("app")
    side.connect(client)
    with pytest.raises(NotMemberError):
        client.leave("never-joined")


def test_send_seq_increases(side):
    """+1 per message, +k per k-fragment train, and the train arrives
    as one payload."""
    client = joined(side)
    limit = side.daemon.config.max_message_size
    first = client.multicast(ServiceType.AGREED, "g", b"one")
    assert client.multicast(ServiceType.AGREED, "g", b"two") == first + 1
    big = bytes(range(256)) * (2 * limit // 256) + b"tail"  # 3 fragments
    assert client.multicast(ServiceType.AGREED, "g", big) == first + 4
    assert client._send_seq == first + 4

    def payloads():
        return [e.payload for e in client.data_events()]

    side.wait(lambda: len(payloads()) == 3)
    assert payloads() == [b"one", b"two", big]


def test_oversize_unreliable_payload_is_refused(side):
    client = joined(side)
    limit = side.daemon.config.max_message_size
    before = client._send_seq
    with pytest.raises(IllegalServiceError):
        client.multicast(ServiceType.UNRELIABLE, "g", b"x" * (limit + 1))
    assert client._send_seq == before


def test_receive_and_drain(side):
    client = side.client("app")
    seen = []
    client.on_event(seen.append)
    side.connect(client)
    assert client.receive() is None and client.drain() == []
    client.join("g")
    side.wait(lambda: client.queue)
    side.idle(0.2)
    event = client.receive()
    assert isinstance(event, MembershipEvent) and str(event.group) == "g"
    assert client.receive() is None
    client.join("h")
    side.wait(lambda: client.queue)
    side.idle(0.2)
    drained = client.drain()
    assert len(drained) == 1 and client.drain() == []
    # Callbacks see every queued event, popped or not.
    assert seen == [event] + drained


def test_disconnect_connect_disconnect(side):
    """A disconnected client may connect again, and disconnect again:
    the daemon holds 1, 0, 1, 0 connections."""
    client = joined(side)
    assert len(side.daemon.clients) == 1
    client.disconnect()
    client.disconnect()  # idempotent
    side.wait(lambda: not side.daemon.clients)
    assert not client.connected
    with pytest.raises(ConnectionClosedError):
        client.multicast(ServiceType.AGREED, "g", b"x")

    side.connect(client)
    client.join("g")
    side.wait(lambda: len(side.daemon.clients) == 1)
    client.disconnect()
    side.wait(lambda: not side.daemon.clients)
    assert not client.connected
    with pytest.raises(ConnectionClosedError):
        client.join("g")


def test_verbs_of_one_turn_reach_the_daemon_in_call_order(side):
    """Multicasts interleaved with a join, a leave and a disconnect, all
    issued in one turn: the daemon applies them in call order (on TCP
    the multicasts ride batch frames, which every other verb flushes)."""
    client = joined(side)
    daemon = side.daemon
    calls = []
    verbs = {
        "client_multicast": lambda args: args[3],
        "client_join": lambda args: args[1],
        "client_leave": lambda args: args[1],
        "client_gone": lambda args: args[0],
    }
    for verb, detail in verbs.items():
        def record(*args, _verb=verb, _detail=detail,
                   _original=getattr(daemon, verb)):
            calls.append((_verb[len("client_"):], _detail(args)))
            return _original(*args)

        setattr(daemon, verb, record)
    client.multicast(ServiceType.AGREED, "g", b"m1")
    client.multicast(ServiceType.AGREED, "g", b"m2")
    client.join("h")
    client.multicast(ServiceType.AGREED, "g", b"m3")
    client.leave("h")
    client.multicast(ServiceType.AGREED, "g", b"m4")
    client.disconnect()
    side.wait(lambda: ("gone", "app") in calls)
    assert calls == [
        ("multicast", b"m1"), ("multicast", b"m2"), ("join", "h"),
        ("multicast", b"m3"), ("leave", "h"), ("multicast", b"m4"),
        ("gone", "app"),
    ]


def test_daemon_crash_disconnects_clients(side):
    """Exactly one ConnectionLostEvent per lost daemon, and the
    connection is closed with its groups."""
    client = joined(side)
    side.lose_daemon()
    side.wait(lambda: not client.connected)
    side.idle(0.2)
    lost = [e for e in client.queue if isinstance(e, ConnectionLostEvent)]
    assert len(lost) == 1
    assert not [e for e in client.queue if isinstance(e, DataEvent)]
    with pytest.raises(ConnectionClosedError):
        client.join("g")
    with pytest.raises(ConnectionClosedError):
        client.leave("g")


def test_reincarnated_sender_fragments_are_reassembled(side):
    """A client re-created under a departed client's private name gets
    the same pid and numbers its fragment trains from 1 again: the
    receivers must have forgotten the first incarnation's trains."""
    receiver = joined(side, "rx")
    limit = side.daemon.config.max_message_size
    big = bytes(range(256)) * (2 * limit // 256) + b"tail"  # 3 fragments

    def payloads():
        return [e.payload for e in receiver.data_events()]

    first = joined(side, "tx")
    first.multicast(ServiceType.AGREED, "g", big)
    side.wait(lambda: payloads() == [big])
    first.disconnect()
    side.wait(lambda: any(
        isinstance(e, MembershipEvent) and e.cause is MembershipCause.DISCONNECT
        for e in receiver.queue
    ))

    second = joined(side, "tx")
    assert second.pid == first.pid
    second.multicast(ServiceType.AGREED, "g", big[::-1])
    side.wait(lambda: len(payloads()) == 2)
    assert payloads() == [big, big[::-1]]
