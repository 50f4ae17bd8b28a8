"""The Spread client library: one client core, two connections.

A client is one application connection to its local daemon, mirroring
the Spread C API surface: ``SP_connect``, ``SP_join``, ``SP_leave``,
``SP_multicast``, ``SP_receive`` (here, an event queue plus optional
callbacks), ``SP_disconnect``.

Everything a client does that is not I/O lives once, in
:class:`ClientCore`: the identity (``private_name`` / ``pid`` /
``connected``), the joined-group set, the per-connection send sequence
with SP_scat-style fragmentation of oversized byte payloads, reassembly
of received fragment trains, and the event queue (:class:`EventQueue`,
which the flush and secure layers reuse for their own queues).  Two
classes add the IPC on top:

* :class:`SpreadClient` (here) calls a co-simulated
  :class:`~repro.spread.daemon.SpreadDaemon` in process, behind the
  configured ``ipc_delay`` — the paper's daemon-client architecture, in
  which client operations never touch the network directly;
* :class:`repro.transport.client.TcpSpreadClient` frames the same verbs
  onto a socket and adds what only a real network needs: reconnect with
  group re-join, and heartbeat liveness.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Set

from repro.errors import (
    ConnectionClosedError,
    DaemonDownError,
    IllegalServiceError,
    NotMemberError,
)
from repro.sim.kernel import Kernel
from repro.sim.process import SimProcess
from repro.spread.daemon import SpreadDaemon
from repro.spread.events import ConnectionLostEvent, DataEvent, MembershipEvent
from repro.spread.fragments import MessageFragment, Reassembler, split_payload
from repro.types import MembershipCause, ProcessId, ServiceType

EventCallback = Callable[[Any], None]


class EventQueue:
    """A receive queue plus delivery callbacks (``SP_receive``).

    Every event a layer delivers is appended to ``queue`` and handed to
    each ``on_event`` callback; applications poll with :meth:`receive` /
    :meth:`drain` or react in the callbacks.
    """

    def __init__(self) -> None:
        self.queue: Deque[Any] = deque()
        self._callbacks: List[EventCallback] = []

    def on_event(self, callback: EventCallback) -> None:
        """Register a delivery callback (fires for every queued event)."""
        self._callbacks.append(callback)

    def receive(self) -> Optional[Any]:
        """Pop the next delivered event, or None when the queue is empty."""
        if self.queue:
            return self.queue.popleft()
        return None

    def drain(self) -> List[Any]:
        """Pop everything currently queued."""
        events = list(self.queue)
        self.queue.clear()
        return events

    def _emit(self, event: Any) -> None:
        self.queue.append(event)
        for callback in list(self._callbacks):
            callback(event)


class ClientCore(EventQueue):
    """The I/O-free half of a Spread client connection.

    A subclass provides ``name`` and ``kernel``, performs the IPC — its
    own ``connect`` / ``disconnect`` / ``join`` / ``leave`` /
    ``multicast`` around the bookkeeping here, and :meth:`_send` for one
    numbered multicast — and hands every event the daemon pushes to
    :meth:`_deliver`.
    """

    def __init__(self, private_name: str) -> None:
        super().__init__()
        self.private_name = private_name
        self.pid: Optional[ProcessId] = None
        self.connected = False
        self._send_seq = 0
        self._my_groups: Set[str] = set()
        self._fragment_counter = 0
        self._reassembler: Optional[Reassembler] = None

    # -- connection state ----------------------------------------------------

    def _opened(self, pid: ProcessId) -> None:
        """The daemon accepted this connection as ``pid``."""
        self.pid = pid
        self.connected = True
        if self._reassembler is None:
            self._reassembler = Reassembler(tracer=self.kernel.tracer)

    def _closed(self) -> None:
        """The connection is gone, and with it every group membership."""
        self.connected = False
        self._my_groups.clear()

    def _require_connected(self) -> None:
        if not self.connected:
            raise ConnectionClosedError(f"{self.name} is not connected")

    # -- sending ---------------------------------------------------------------

    def _track_join(self, group: str) -> None:
        self._require_connected()
        self._my_groups.add(group)

    def _track_leave(self, group: str) -> None:
        self._require_connected()
        if group not in self._my_groups:
            raise NotMemberError(f"{self.name} never joined {group!r}")
        self._my_groups.discard(group)

    def _multicast(
        self, service: ServiceType, group: str, payload: Any, limit: int
    ) -> int:
        """Number ``payload`` and pass it to :meth:`_send`.

        Byte payloads larger than ``limit`` (the daemon's
        ``max_message_size``) go as a train of fragments, one sequence
        number each, that receivers reassemble transparently (SP_scat
        behaviour); this needs an ordered service (FIFO or stronger).
        Returns this connection's last message sequence number.
        """
        self._require_connected()
        if isinstance(payload, (bytes, bytearray)) and len(payload) > limit:
            if service.ordering_rank < ServiceType.FIFO.ordering_rank:
                raise IllegalServiceError(
                    "fragmented payloads need FIFO or stronger ordering"
                )
            self._fragment_counter += 1
            for fragment in split_payload(payload, limit, self._fragment_counter):
                self._send_seq += 1
                self._send(service, group, fragment, self._send_seq)
        else:
            self._send_seq += 1
            self._send(service, group, payload, self._send_seq)
        return self._send_seq

    def _send(
        self, service: ServiceType, group: str, body: Any, seq: int
    ) -> None:
        raise NotImplementedError

    def unicast(self, service: ServiceType, target: ProcessId, payload: Any) -> int:
        """Send to a single process via its private group."""
        return self.multicast(service, str(target), payload)

    # -- receive side ------------------------------------------------------------

    def _deliver(self, event: Any) -> None:
        """Queue one event the daemon pushed, reassembling fragments.

        A process that left the daemon (disconnect, crash or partition)
        takes its fragment-train state along: a client reconnecting
        under its pid numbers its trains from 1 again.
        """
        if isinstance(event, MembershipEvent) and event.cause in (
            MembershipCause.DISCONNECT, MembershipCause.NETWORK
        ):
            for pid in event.left:
                self._reassembler.drop_sender(str(pid))
        elif isinstance(event, DataEvent) and isinstance(
            event.payload, MessageFragment
        ):
            whole = self._reassembler.accept(str(event.sender), event.payload)
            if whole is None:
                return  # more fragments coming
            event = DataEvent(
                group=event.group,
                sender=event.sender,
                service=event.service,
                payload=whole,
                seq=event.seq,
            )
        self._emit(event)

    def data_events(self) -> List[DataEvent]:
        return [e for e in self.queue if isinstance(e, DataEvent)]

    def membership_events(self) -> List[MembershipEvent]:
        return [e for e in self.queue if isinstance(e, MembershipEvent)]


class SpreadClient(SimProcess, ClientCore):
    """One application connection to a co-simulated Spread daemon.

    Every verb is an in-process call on the local daemon, scheduled
    behind the configured ``ipc_delay`` with the kernel labels
    ``{name}.ipc``, ``{name}.disconnect`` and ``{name}.crash_notify`` —
    chaos-crucible fingerprints pin both.
    """

    def __init__(self, kernel: Kernel, private_name: str, daemon: SpreadDaemon) -> None:
        SimProcess.__init__(self, kernel, f"#{private_name}#{daemon.name}")
        ClientCore.__init__(self, private_name)
        self.daemon = daemon

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    def connect(self) -> ProcessId:
        """Register with the daemon; returns the private group id.

        Synchronous, as the C library blocks on the handshake; the
        daemon is handed the client object itself as the delivery
        channel.
        """
        if self.connected:
            return self.pid
        if not self.daemon.alive:
            raise DaemonDownError(f"daemon {self.daemon.name} is down")
        self._opened(self.daemon.client_connect(self, self.private_name))
        self.start()
        return self.pid

    def disconnect(self) -> None:
        """Voluntarily close the connection; the daemon announces the
        departure from every joined group."""
        if not self.connected:
            return
        self._closed()
        daemon, private_name = self.daemon, self.private_name
        self.after(
            daemon.config.ipc_delay,
            lambda: daemon.client_gone(private_name),
            label=f"{self.name}.disconnect",
        )

    def daemon_down(self) -> None:
        """Called by the daemon when it crashes."""
        self._closed()
        self._emit(ConnectionLostEvent("daemon_down"))

    def on_crash(self) -> None:
        # A crashed client looks like a broken IPC channel to the daemon.
        if not self.connected:
            return
        self.connected = False
        daemon, private_name = self.daemon, self.private_name
        if daemon.alive:
            self.kernel.call_later(
                daemon.config.ipc_delay,
                lambda: daemon.client_gone(private_name),
                label=f"{self.name}.crash_notify",
            )

    # ------------------------------------------------------------------
    # group operations
    # ------------------------------------------------------------------

    def _ipc(self, action: Callable[[], None]) -> None:
        self.after(self.daemon.config.ipc_delay, action, label=f"{self.name}.ipc")

    def join(self, group: str) -> None:
        """Join a group (idempotent at the daemon)."""
        self._track_join(group)
        daemon, pid = self.daemon, self.pid
        self._ipc(lambda: daemon.client_join(pid, group))

    def leave(self, group: str) -> None:
        """Leave a group."""
        self._track_leave(group)
        daemon, pid = self.daemon, self.pid
        self._ipc(lambda: daemon.client_leave(pid, group))

    def multicast(self, service: ServiceType, group: str, payload: Any) -> int:
        """Send to a group (or a private ``#name#daemon`` destination);
        see :meth:`ClientCore._multicast`."""
        return self._multicast(
            service, group, payload, self.daemon.config.max_message_size
        )

    def _send(
        self, service: ServiceType, group: str, body: Any, seq: int
    ) -> None:
        daemon, pid = self.daemon, self.pid
        self._ipc(lambda: daemon.client_multicast(pid, service, group, body, seq))

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------

    def deliver_event(self, event: Any) -> None:
        """Entry point used by the daemon's IPC push."""
        if self.alive and self.connected:
            self._deliver(event)
