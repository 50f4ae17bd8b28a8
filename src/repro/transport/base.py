"""The transport seam: the contracts between the Spread stack and
whatever carries its bytes and drives its timers.

The daemon and client code in :mod:`repro.spread` was written against
the deterministic sim kernel, but the coupling was always narrow.  This
module makes the two implicit seams explicit (as :class:`typing
.Protocol` classes, so backends duck-type — the sim backend predates the
seam and must not import this package):

``Transport``
    What a :class:`~repro.spread.daemon.SpreadDaemon` needs from the
    daemon-to-daemon datagram substrate.  The sim backend is
    :class:`repro.net.network.Network` (unchanged — it already satisfies
    the protocol); the real backend is
    :class:`repro.transport.tcp.TcpTransport`, which carries each
    payload as one length-prefixed frame over a TCP connection per peer.

``Clock``
    What daemons, clients and secure sessions need from the event
    scheduler.  The sim backend is :class:`repro.sim.kernel.Kernel`
    (virtual time); the real backend is :class:`repro.transport.rtclock
    .RealtimeClock`, which maps the same ``call_at``/``call_later``
    surface onto ``asyncio.loop.call_at`` (wall-clock seconds).
    :class:`~repro.sim.process.SimProcess`, :class:`~repro.sim.timers
    .TimerWheel` and :class:`~repro.secure.session.SecureGroupSession`
    run unmodified over either.

The client side needs no seam: both client classes share one I/O-free
core (:class:`repro.spread.client.ClientCore`) and differ only in their
IPC — in-process calls behind the modelled ``ipc_delay``
(:class:`~repro.spread.client.SpreadClient`) or one frame per verb over
a socket (:class:`~repro.transport.client.TcpSpreadClient`).

Nothing here is imported by :mod:`repro.spread` — the seam is a
contract, not a dependency — so the sim path stays byte-identical to
the pre-seam code (chaos-crucible fingerprints pin this).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class ScheduledEvent(Protocol):
    """Handle returned by ``Clock.call_at``/``call_later``.

    ``cancelled`` must be a readable attribute (``repro.sim.timers
    .Timer`` polls it) and ``cancel()`` must be idempotent.
    """

    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """The scheduler surface the Spread stack runs against.

    The sim backend is :class:`repro.sim.kernel.Kernel`; the realtime
    backend is :class:`repro.transport.rtclock.RealtimeClock`.  ``now``
    is seconds (virtual or wall — relative to the clock's own epoch);
    ``tracer`` and ``rng`` ride along because every layer reaches them
    through its clock/kernel reference.
    """

    now: float
    tracer: Any
    rng: Any

    def call_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent: ...

    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent: ...


@runtime_checkable
class Transport(Protocol):
    """The daemon-to-daemon datagram surface.

    Exactly the three calls :class:`~repro.spread.daemon.SpreadDaemon`
    makes: register the local node, ask whether a peer is reachable at
    all (configured/registered — *not* a liveness oracle), and send one
    payload.  Datagram semantics: ``send`` never blocks and may drop;
    reliability lives above, in the daemon's NACK/retransmit machinery.
    """

    def add_node(self, node: Any) -> None: ...

    def has_node(self, name: str) -> bool: ...

    def send(
        self,
        source: str,
        destination: str,
        payload: Any,
        size: Optional[int] = None,
    ) -> None: ...
