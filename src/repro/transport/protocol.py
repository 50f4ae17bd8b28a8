"""Client ↔ daemon IPC verbs for the TCP backend.

One dataclass per operation of the Spread client API's connection half
(plus the daemon-to-daemon ``PeerHello`` stream preamble), each sent as
one :mod:`repro.transport.wire` frame.  The request verbs mirror the sim
client's in-process daemon calls (``client_connect``, ``client_join``,
``client_leave``, ``client_multicast``, ``client_gone``) one-to-one.

The client coalesces the multicasts it issues within one loop turn into
one frame (:class:`~repro.transport.client.FrameBatch`), so the
upstream data verb is ``ClientMulticastBatch``: a tuple of
``ClientMulticast`` requests in call order, also when it holds one.
``ClientDeliver`` is the downstream half — the daemon pushing a
:class:`~repro.spread.events.DataEvent` / ``MembershipEvent`` /
``FlushRequestEvent`` / ``SelfLeaveEvent`` to the connection, exactly
the objects :meth:`SpreadClient.deliver_event` receives in the sim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.types import ProcessId, ServiceType


@dataclass(frozen=True, slots=True)
class PeerHello:
    """First frame on every daemon-to-daemon connection: who is calling.

    TCP gives no datagram source address, so the dialing daemon
    identifies itself once and every later frame on the stream is
    attributed to ``sender``.
    """

    sender: str


@dataclass(frozen=True, slots=True)
class ClientConnect:
    """``SP_connect``: register ``private_name`` on this connection."""

    private_name: str


@dataclass(frozen=True, slots=True)
class ClientWelcome:
    """Accept a connect: the private group id plus the config the client
    library needs locally (fragmentation threshold, deployment names,
    and the daemon's own ``hello_interval`` / ``fail_timeout``, which
    time the client's pings and its reconnect attempts)."""

    pid: ProcessId
    max_message_size: int
    daemons: Tuple[str, ...]
    hello_interval: float
    fail_timeout: float


@dataclass(frozen=True, slots=True)
class ClientRefused:
    """Reject a connect (duplicate private name, daemon shutting down)."""

    reason: str


@dataclass(frozen=True, slots=True)
class ClientJoin:
    """``SP_join``."""

    pid: ProcessId
    group: str


@dataclass(frozen=True, slots=True)
class ClientLeave:
    """``SP_leave``."""

    pid: ProcessId
    group: str


@dataclass(frozen=True, slots=True)
class ClientMulticast:
    """``SP_multicast``: one send (fragments travel as separate sends).
    Never a frame of its own: it travels inside a
    :class:`ClientMulticastBatch`."""

    pid: ProcessId
    service: ServiceType
    group: str
    payload: Any
    origin_seq: int


@dataclass(frozen=True, slots=True)
class ClientMulticastBatch:
    """The multicasts one client queued within one loop turn."""

    multicasts: Tuple[ClientMulticast, ...]


@dataclass(frozen=True, slots=True)
class ClientPing:
    """Client → daemon → client: a liveness probe on the link.  The
    daemon's connection handler writes it straight back; no daemon
    state is touched."""

    seq: int


@dataclass(frozen=True, slots=True)
class ClientDisconnect:
    """``SP_disconnect``: voluntary close (an unannounced socket loss is
    treated as a client crash, same as a broken IPC channel in the sim)."""

    private_name: str


@dataclass(frozen=True, slots=True)
class ClientDeliver:
    """Daemon → client push of one queued event."""

    event: Any


@dataclass(frozen=True, slots=True)
class ClientBye:
    """Daemon → client: the daemon is going down; the connection dies."""

    reason: str = "daemon_down"
