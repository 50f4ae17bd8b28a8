"""The TCP Spread client: ``SP_*`` over a socket, with reconnect.

:class:`TcpSpreadClient` is the socket connection on top of the shared
:class:`~repro.spread.client.ClientCore` — the same groups, send
sequence, fragmentation, reassembly and event queue as the sim
:class:`~repro.spread.client.SpreadClient` — so
:class:`~repro.spread.flush.FlushClient` and the whole secure-session
stack run over it without a line changed.  What it adds is the IPC
(:mod:`repro.transport.protocol` frames, with the multicasts of one
loop turn coalesced into one frame by a :class:`FrameBatch`) and two
things a real network needs:

* **Liveness**: once per the daemon's ``hello_interval`` the client
  writes a ``ClientPing`` that the daemon's connection handler echoes
  back.  If no echo arrives for twice the daemon's ``fail_timeout``,
  the connection is declared dead and aborted, which funnels into the
  reconnect path below.  This catches the half-open TCP case where the
  socket looks writable but the daemon is gone.  The ping never leaves
  the link: the daemon's protocol does not see it.  Both timers come in
  the daemon's ``ClientWelcome``, so a client has none of its own.

* **Auto-reconnect**: when the connection drops, the client backs off
  as the daemons' peer channels do (``decorrelated_jitter`` between
  ``BACKOFF_BASE`` and ``BACKOFF_CAP`` of :mod:`repro.transport.tcp`,
  so a crowd of clients dropped by one daemon restart does not storm
  back in lockstep), re-connects under the same private name with each
  attempt bounded by the daemon's ``fail_timeout`` (a blackholed or
  half-open listener cannot wedge the retry loop), and re-joins every
  group it was in.  The application sees exactly one
  :class:`~repro.spread.events.ConnectionLostEvent` per outage, one
  :class:`~repro.spread.events.ConnectionRestoredEvent`, then the
  normal membership events as its re-joins install — a membership
  resync, not an event replay.  (A daemon that still holds the old
  connection refuses the duplicate name; that refusal is retried like
  any other failure until the daemon notices the broken old socket.)
  A daemon's own goodbye (``ClientBye``) names the outage verbatim —
  ``ConnectionLostEvent("daemon_down")`` when the daemon crashes, as on
  the simulator; any other loss names its exception.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ConnectionClosedError, FrameError, TransportError
from repro.spread.client import ClientCore
from repro.spread.events import ConnectionLostEvent, ConnectionRestoredEvent
from repro.spread.messages import PACK_MAX_BYTES, PACK_MAX_MESSAGES, payload_size
from repro.transport.protocol import (
    ClientBye,
    ClientConnect,
    ClientDeliver,
    ClientDisconnect,
    ClientJoin,
    ClientLeave,
    ClientMulticast,
    ClientMulticastBatch,
    ClientPing,
    ClientRefused,
    ClientWelcome,
)
from repro.transport.auth import FrameAuth
from repro.transport.rtclock import RealtimeClock
from repro.transport.tcp import BACKOFF_BASE, READ_CHUNK, decorrelated_jitter
from repro.transport.wire import REJECT_COUNTERS, FrameDecoder, encode_frame
from repro.types import ProcessId, ServiceType


class _DaemonBye(ConnectionClosedError):
    """The daemon closed the connection and said why (``ClientBye``)."""


class FrameBatch:
    """The multicast coalescer of one client connection.

    What the client queues for the socket within one loop turn goes out
    as one frame: the first :meth:`add` of a turn schedules a
    :meth:`flush` with ``call_soon``, and ``write`` receives the items
    as one tuple.  The budget is the daemon's packing budget: a batch
    closes early at :data:`~repro.spread.messages.PACK_MAX_MESSAGES`
    items or :data:`~repro.spread.messages.PACK_MAX_BYTES` of payload,
    and an item at or above the byte budget travels alone, after
    whatever was pending.  A caller that writes any other frame on the
    stream flushes first, so the stream stays in call order.  ``write``
    must not raise: a flush at the end of a turn has no caller to
    raise to.
    """

    __slots__ = ("_loop", "_write", "_items", "_bytes", "_scheduled")

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        write: Callable[[Tuple[Any, ...]], None],
    ) -> None:
        self._loop = loop
        self._write = write
        self._items: List[Any] = []
        self._bytes = 0
        self._scheduled: Optional[asyncio.Handle] = None

    @property
    def pending(self) -> int:
        """Items queued but not yet written."""
        return len(self._items)

    def add(self, item: Any, size: int) -> None:
        if size >= PACK_MAX_BYTES:
            self.flush()
            self._write((item,))
            return
        items = self._items
        items.append(item)
        self._bytes += size
        if len(items) >= PACK_MAX_MESSAGES or self._bytes >= PACK_MAX_BYTES:
            self.flush()
        elif self._scheduled is None:
            self._scheduled = self._loop.call_soon(self._end_of_turn)

    def _end_of_turn(self) -> None:
        self._scheduled = None
        self.flush()

    def flush(self) -> None:
        """Write the pending items now, as one frame."""
        if self._items:
            items = tuple(self._items)
            self._items.clear()
            self._bytes = 0
            self._write(items)

    def discard(self) -> None:
        """Drop the pending items (the connection is gone)."""
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        self._items.clear()
        self._bytes = 0


class TcpSpreadClient(ClientCore):
    """One application connection to a daemon over TCP."""

    def __init__(
        self,
        address: Tuple[str, int],
        private_name: str,
        clock: Optional[RealtimeClock] = None,
        reconnect: bool = True,
        auth: Optional[FrameAuth] = None,
    ) -> None:
        super().__init__(private_name)
        self.address = address
        self.kernel = clock  # created at connect() when not supplied
        self.auto_reconnect = reconnect
        self.auth = auth

        self.name = f"#{private_name}#?"
        self.daemon_name: Optional[str] = None
        self.max_message_size = 65536
        #: The daemon's timers, from its welcome (None until connected).
        self.hello_interval: Optional[float] = None
        self.fail_timeout: Optional[float] = None
        self.counters = {
            "bytes_sent": 0,
            "bytes_recv": 0,
            "frames_sent": 0,
            "frames_recv": 0,
            "drops": 0,
            "reconnects": 0,
            "reconnect_attempts": 0,
            "pings_sent": 0,
            "pings_echoed": 0,
            "liveness_aborts": 0,
            "send_errors": 0,
        }
        for key in REJECT_COUNTERS:
            self.counters[key] = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder: Optional[FrameDecoder] = None
        self._sends: Optional[FrameBatch] = None
        self._lost_cause: Optional[BaseException] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._closing = False
        self._ping_timer = None
        self._ping_seq = 0
        self._last_echo = 0.0

    # -- connection lifecycle ----------------------------------------------

    async def connect(self, timeout: float = 10.0) -> ProcessId:
        """Dial the daemon, register ``private_name``, start receiving."""
        if self.connected:
            return self.pid
        if self.kernel is None:
            self.kernel = RealtimeClock(asyncio.get_running_loop())
        if self._sends is None:
            self._sends = FrameBatch(self.kernel.loop, self._write_multicasts)
        self._closing = False  # a disconnected client may connect again
        await asyncio.wait_for(self._connect_once(), timeout)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name=f"spread-client:{self.private_name}"
        )
        self._start_ping()
        return self.pid

    async def _connect_once(self) -> None:
        reader, writer = await asyncio.open_connection(*self.address)
        decoder = FrameDecoder(
            observe=self._observe_rx,
            auth=self.auth,
            counters=self.counters,
        )
        try:
            writer.write(
                encode_frame(ClientConnect(self.private_name), auth=self.auth)
            )
            await writer.drain()
            welcome: Optional[ClientWelcome] = None
            while welcome is None:
                data = await reader.read(READ_CHUNK)
                if not data:
                    raise ConnectionClosedError(
                        f"daemon at {self.address} closed during handshake"
                    )
                for op in decoder.feed(data):
                    if isinstance(op, ClientRefused):
                        raise ConnectionClosedError(
                            f"daemon refused {self.private_name!r}: {op.reason}"
                        )
                    if isinstance(op, ClientWelcome):
                        welcome = op
                        break
                    raise FrameError(
                        f"unexpected handshake frame {type(op).__name__}"
                    )
        except BaseException:
            writer.close()
            raise
        self._reader, self._writer, self._decoder = reader, writer, decoder
        self.daemon_name = str(welcome.pid.daemon)
        self.name = str(welcome.pid)
        self.max_message_size = welcome.max_message_size
        self.hello_interval = welcome.hello_interval
        self.fail_timeout = welcome.fail_timeout
        self._opened(welcome.pid)

    def disconnect(self) -> None:
        """Voluntarily close: announce, stop reconnecting, drop."""
        if self._closing:
            return
        self._closing = True
        self._stop_ping()
        if self.connected:
            try:
                self._raw_send(ClientDisconnect(self.private_name))
            except Exception:
                pass
        if self._sends is not None:
            self._sends.discard()
        self._closed()
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass

    async def close(self) -> None:
        """``disconnect`` plus letting the writer flush its goodbyes
        (bounded: a dead daemon must not hang our shutdown)."""
        self.disconnect()
        writer = self._writer
        if writer is not None:
            try:
                await asyncio.wait_for(writer.wait_closed(), 2.0)
            except (asyncio.TimeoutError, Exception):
                pass

    # -- sending -----------------------------------------------------------

    def _observe_rx(self, kind: int, total: int) -> None:
        self.counters["frames_recv"] += 1
        self.counters["bytes_recv"] += total

    def _raw_send(self, op: Any) -> None:
        """Write one frame, after the pending multicasts: per-connection
        FIFO holds across every verb."""
        self._sends.flush()
        self._write_frame(op)

    def _write_frame(self, op: Any) -> None:
        data = encode_frame(op, auth=self.auth)
        self.counters["frames_sent"] += 1
        self.counters["bytes_sent"] += len(data)
        self._writer.write(data)

    def _write_multicasts(self, multicasts: Tuple[ClientMulticast, ...]) -> None:
        try:
            self._write_frame(ClientMulticastBatch(multicasts))
        except Exception as exc:
            # Say, an unpicklable payload: the whole batch is lost, so
            # the connection fails, as it does when the daemon refuses
            # a frame, and the ConnectionLostEvent names the cause.
            self.counters["send_errors"] += 1
            self._lost_cause = exc
            writer = self._writer
            if writer is not None:
                writer.transport.abort()

    def join(self, group: str) -> None:
        """Join a group (idempotent at the daemon)."""
        self._track_join(group)
        self._raw_send(ClientJoin(self.pid, group))

    def leave(self, group: str) -> None:
        """Leave a group."""
        self._track_leave(group)
        self._raw_send(ClientLeave(self.pid, group))

    def multicast(self, service: ServiceType, group: str, payload: Any) -> int:
        """Send to a group or private ``#name#daemon`` destination; see
        :meth:`~repro.spread.client.ClientCore._multicast`."""
        return self._multicast(service, group, payload, self.max_message_size)

    def _send(
        self, service: ServiceType, group: str, body: Any, seq: int
    ) -> None:
        self._sends.add(
            ClientMulticast(self.pid, service, group, body, seq),
            payload_size(body),
        )

    async def flush_writes(self) -> None:
        """Write the pending multicasts, then await the socket's write
        buffer draining (senders in tight loops call this for
        backpressure; sync sends never block)."""
        if self._sends is not None:
            self._sends.flush()
        writer = self._writer
        if writer is not None:
            await writer.drain()

    # -- the receive side --------------------------------------------------

    async def _read_loop(self) -> None:
        while True:
            try:
                while True:
                    data = await self._reader.read(READ_CHUNK)
                    if not data:
                        raise ConnectionClosedError("daemon closed connection")
                    for op in self._decoder.feed(data):
                        self._handle(op)
            except asyncio.CancelledError:
                return
            except Exception as exc:
                if self._closing:
                    return
                cause, self._lost_cause = self._lost_cause or exc, None
                if not await self._reconnect(cause):
                    return

    def _handle(self, op: Any) -> None:
        if isinstance(op, ClientDeliver):
            self._deliver(op.event)
        elif isinstance(op, ClientPing):
            self.counters["pings_echoed"] += 1
            self._last_echo = self.kernel.now
        elif isinstance(op, ClientBye):
            raise _DaemonBye(op.reason)
        else:
            raise FrameError(f"unexpected frame {type(op).__name__}")

    # -- reconnect ---------------------------------------------------------

    async def _reconnect(self, cause: BaseException) -> bool:
        """Drop bookkeeping + backoff-retry loop.  True when the session
        is re-established (groups re-joined), False when giving up."""
        self.connected = False
        self.counters["drops"] += 1
        self._stop_ping()
        self._sends.discard()
        reason = (
            str(cause) if isinstance(cause, _DaemonBye)
            else f"{type(cause).__name__}: {cause}"
        )
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._emit(ConnectionLostEvent(reason))
        if not self.auto_reconnect or self._closing:
            self._closed()
            return False
        rng = self.kernel.rng.child(f"client-backoff/{self.private_name}")
        delay = BACKOFF_BASE
        while not self._closing:
            await asyncio.sleep(delay)
            delay = decorrelated_jitter(rng, delay)
            self.counters["reconnect_attempts"] += 1
            try:
                # The per-attempt bound matters against a blackholed or
                # half-open listener: the TCP connect (or handshake)
                # would otherwise hang forever and the loop would never
                # retry once the partition heals.
                await asyncio.wait_for(self._connect_once(), self.fail_timeout)
            except (
                OSError,
                TransportError,
                ConnectionClosedError,
                asyncio.TimeoutError,
            ):
                # Includes the daemon still holding our old name: retry
                # until its broken-socket detection runs client_gone.
                continue
            break
        if self._closing:
            return False
        self._start_ping()
        self.counters["reconnects"] += 1
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.record(
                "transport.client_reconnect",
                client=self.private_name,
                attempts=self.counters["reconnect_attempts"],
            )
        # Session re-join: the daemon sees a fresh connection, so the
        # groups re-install and every member (including us) gets the
        # membership resync events.
        for group in sorted(self._my_groups):
            self._raw_send(ClientJoin(self.pid, group))
        self._emit(ConnectionRestoredEvent())
        return True

    # -- liveness --------------------------------------------------------

    def _start_ping(self) -> None:
        """Arm the ping on a fresh connection: its welcome counts as
        the first echo."""
        self._last_echo = self.kernel.now
        self._arm_ping()

    def _arm_ping(self) -> None:
        self._ping_timer = self.kernel.call_later(
            self.hello_interval, self._ping_tick, label=f"{self.name}.ping"
        )

    def _stop_ping(self) -> None:
        if self._ping_timer is not None:
            self._ping_timer.cancel()
            self._ping_timer = None

    def _ping_tick(self) -> None:
        self._ping_timer = None
        idle = self.kernel.now - self._last_echo
        if idle <= 2 * self.fail_timeout:
            self._ping_seq += 1
            self._raw_send(ClientPing(self._ping_seq))
            self.counters["pings_sent"] += 1
            self._arm_ping()
            return
        # No echo: the connection is dead.  Abort the socket; the read
        # loop's error path reconnects and re-arms the ping.
        self.counters["liveness_aborts"] += 1
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.record(
                "transport.client_liveness",
                client=self.private_name,
                idle=idle,
            )
        self._lost_cause = ConnectionClosedError(
            f"no ping echo for {idle:.2f}s"
        )
        self._writer.transport.abort()
