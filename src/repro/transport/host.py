"""The daemon host: real Spread daemons on a real-time event loop.

A :class:`DaemonHost` runs one or more unmodified
:class:`~repro.spread.daemon.SpreadDaemon` instances inside one asyncio
loop: each daemon gets a :class:`~repro.transport.tcp.TcpTransport`
(peer listener + per-peer outbound channels) and a *client listener*
where :class:`~repro.transport.client.TcpSpreadClient` connections
land.  Timers the daemons arm through the kernel seam are served by a
shared :class:`~repro.transport.rtclock.RealtimeClock`, i.e. bridged to
``loop.call_at`` — hello intervals, failure detection and membership
timeouts run on wall-clock seconds with their sim semantics intact.

An accepted client connection becomes a :class:`_ClientChannel`, which
plays the *client* role of the daemon's IPC surface: the daemon calls
``deliver_event`` / ``daemon_down`` on it exactly as it would on a sim
:class:`~repro.spread.client.SpreadClient`, and the channel turns each
into a framed ``ClientDeliver`` / ``ClientBye``.  In the other direction
it applies a ``ClientMulticastBatch`` only once every element has
type-checked, and echoes a ``ClientPing`` back verbatim (the client's
liveness check; the daemon itself never sees it).  A socket that drops
without a ``ClientDisconnect`` is reported as ``client_gone`` — the
same "broken IPC channel" a crashed client produces in the sim.

The CLI lives in :mod:`repro.transport.daemon`
(``python -m repro.transport.daemon``).
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FrameError, SpreadError
from repro.spread.config import SpreadConfig
from repro.spread.daemon import SpreadDaemon
from repro.transport.auth import FrameAuth
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
from repro.transport.rtclock import RealtimeClock
from repro.transport.tcp import (
    READ_CHUNK,
    SEND_DEADLINE,
    TcpTransport,
    TransportMap,
    drain_tasks,
)
from repro.transport.wire import FrameDecoder, encode_frame

#: Per-client outbound high-water mark, bytes.  A client socket whose
#: OS write buffer stays above this for longer than the transport's
#: send deadline is *stalled* — half-open or unreading — and gets
#: kicked so the daemon's event stream never backs up behind it.
CLIENT_WRITE_HIGH_WATER = 4 * 1024 * 1024


class _ClientChannel:
    """Server side of one client connection (the daemon's 'client')."""

    def __init__(
        self,
        host: "DaemonHost",
        daemon: SpreadDaemon,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.host = host
        self.daemon = daemon
        self._reader = reader
        self._writer = writer
        self._auth = host.auth
        transport = host.transports.get(daemon.name)
        self._counters = transport.counters if transport is not None else None
        self._private_name: Optional[str] = None
        self._closed = False
        self._disconnected = False
        self._stall_since: Optional[float] = None

    # -- the surface the daemon expects of a client ------------------------

    def deliver_event(self, event: Any) -> None:
        if self._closed:
            return
        try:
            self._writer.write(
                encode_frame(ClientDeliver(event), auth=self._auth)
            )
        except Exception:
            self._drop()
            return
        self._check_backpressure()

    def _check_backpressure(self) -> None:
        """Deliveries are fire-and-forget (the daemon cannot await a
        slow client), so backpressure is detected after the fact: a
        write buffer continuously above the high-water mark past the
        send deadline means a stalled-but-open socket, and the client
        is kicked exactly like a crashed one."""
        try:
            buffered = self._writer.transport.get_write_buffer_size()
        except Exception:
            return
        clock = self.host.clock
        if buffered <= CLIENT_WRITE_HIGH_WATER:
            self._stall_since = None
            return
        if self._stall_since is None:
            self._stall_since = clock.now
            return
        stalled_for = clock.now - self._stall_since
        if stalled_for <= SEND_DEADLINE:
            return
        transport = self.host.transports.get(self.daemon.name)
        if transport is not None:
            transport.counters["client_stall_kicks"] += 1
        tracer = clock.tracer
        if tracer.enabled:
            tracer.record(
                "transport.client_stall_kick",
                daemon=self.daemon.name,
                client=self._private_name,
                buffered=buffered,
                stalled_for=stalled_for,
            )
        # Abort → run() ends → client_gone: same path as a crash.
        self.kick()

    def daemon_down(self) -> None:
        if self._closed:
            return
        try:
            self._writer.write(
                encode_frame(ClientBye("daemon_down"), auth=self._auth)
            )
        except Exception:
            pass
        self._drop()

    # -- connection driving ------------------------------------------------

    async def run(self) -> None:
        decoder = FrameDecoder(auth=self._auth, counters=self._counters)
        try:
            while True:
                data = await self._reader.read(READ_CHUNK)
                if not data:
                    break
                for op in decoder.feed(data):
                    if not self._handle(op):
                        return
        except FrameError:
            if self._counters is not None:
                self._counters["decode_errors"] += 1
        except (ConnectionError, OSError):
            pass
        finally:
            self._drop()
            # An unannounced loss is a client crash: broken IPC channel.
            if (
                self._private_name is not None
                and not self._disconnected
                and self.daemon.alive
            ):
                self.daemon.client_gone(self._private_name)

    def _handle(self, op: Any) -> bool:
        """Apply one client verb; False ends the connection."""
        daemon = self.daemon
        if isinstance(op, ClientConnect):
            try:
                pid = daemon.client_connect(self, op.private_name)
            except SpreadError as exc:
                self._write(ClientRefused(str(exc)))
                return False
            self._private_name = op.private_name
            tracer = self.host.clock.tracer
            if tracer.enabled:
                tracer.record(
                    "transport.client_connect",
                    daemon=daemon.name,
                    client=op.private_name,
                )
            config = daemon.config
            self._write(
                ClientWelcome(
                    pid=pid,
                    max_message_size=config.max_message_size,
                    daemons=config.daemons,
                    hello_interval=config.hello_interval,
                    fail_timeout=config.fail_timeout,
                )
            )
            return True
        if self._private_name is None:
            self._write(ClientRefused("first frame must be ClientConnect"))
            return False
        if isinstance(op, ClientMulticastBatch):
            multicasts = op.multicasts
            # Check the whole batch before applying any of it.
            if type(multicasts) is not tuple or not all(
                type(m) is ClientMulticast for m in multicasts
            ):
                raise FrameError("multicast batch holds a non-multicast")
            for m in multicasts:
                daemon.client_multicast(
                    m.pid, m.service, m.group, m.payload, m.origin_seq
                )
        elif isinstance(op, ClientPing):
            self._write(op)
        elif isinstance(op, ClientJoin):
            daemon.client_join(op.pid, op.group)
        elif isinstance(op, ClientLeave):
            daemon.client_leave(op.pid, op.group)
        elif isinstance(op, ClientDisconnect):
            self._disconnected = True
            if daemon.alive:
                daemon.client_gone(op.private_name)
            return False
        return True

    def _write(self, op: Any) -> None:
        try:
            self._writer.write(encode_frame(op, auth=self._auth))
        except Exception:
            self._drop()

    def _drop(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
        except Exception:
            pass

    def kick(self) -> None:
        """Force-close the socket without telling the daemon first (the
        reconnect tests' guillotine: to the client this is a dead
        daemon, to the daemon a broken IPC channel)."""
        try:
            self._writer.transport.abort()
        except Exception:
            self._drop()


class DaemonHost:
    """One or more real daemons on one asyncio loop."""

    def __init__(
        self,
        config: SpreadConfig,
        hosted: Tuple[str, ...],
        addresses: Optional[TransportMap] = None,
        bind: str = "127.0.0.1",
        tracer=None,
        seed: int = 0,
        auth: Optional[FrameAuth] = None,
    ) -> None:
        self.config = config
        self.hosted = tuple(hosted)
        self.addresses = addresses if addresses is not None else TransportMap()
        self.bind = bind
        self.tracer = tracer
        self.seed = seed
        self.auth = auth
        self.clock: Optional[RealtimeClock] = None
        self.daemons: Dict[str, SpreadDaemon] = {}
        self.transports: Dict[str, TcpTransport] = {}
        self._client_servers: List[asyncio.base_events.Server] = []
        self._channels: Dict[str, List[_ClientChannel]] = {}
        self._accept_tasks: set = set()

    async def start(self) -> None:
        """Bind every listener, then start the hosted daemons."""
        loop = asyncio.get_running_loop()
        self.clock = RealtimeClock(loop, tracer=self.tracer, seed=self.seed)
        for name in self.hosted:
            transport = TcpTransport(
                name, self.clock, self.addresses, auth=self.auth
            )
            peer_addr = self.addresses.peer(name)
            await transport.serve(self.bind, peer_addr[1] if peer_addr else 0)
            self.transports[name] = transport
            daemon = SpreadDaemon(self.clock, name, transport, self.config)
            self.daemons[name] = daemon
            self._channels[name] = []

            async def accept(reader, writer, daemon=daemon, name=name):
                channel = _ClientChannel(self, daemon, reader, writer)
                self._channels[name].append(channel)
                task = asyncio.current_task()
                self._accept_tasks.add(task)
                try:
                    await channel.run()
                finally:
                    self._accept_tasks.discard(task)
                    self._channels[name].remove(channel)

            client_addr = self.addresses.client(name)
            server = await asyncio.start_server(
                accept, self.bind, client_addr[1] if client_addr else 0
            )
            bound = server.sockets[0].getsockname()[:2]
            self.addresses.set_client(name, bound[0], bound[1])
            self._client_servers.append(server)
        # Listeners are all bound before any daemon speaks, so the first
        # hello a daemon broadcasts can already be delivered.
        for name in self.hosted:
            self.daemons[name].start()

    async def stop(self) -> None:
        """Close client connections, listeners and peer channels.
        Bounded: remote ends that never detach must not hang us."""
        for channels in self._channels.values():
            for channel in list(channels):
                channel._drop()
        for server in self._client_servers:
            server.close()
            try:
                await asyncio.wait_for(server.wait_closed(), 2.0)
            except asyncio.TimeoutError:
                pass
        self._client_servers.clear()
        await drain_tasks(self._accept_tasks, set())
        for transport in self.transports.values():
            await transport.close()
        for daemon in self.daemons.values():
            if daemon.alive:
                daemon.crash()

    # -- test/bench helpers ------------------------------------------------

    def kick_clients(self, daemon_name: str) -> int:
        """Abort every client socket of one daemon (reconnect drills).
        Returns the number of connections cut."""
        channels = list(self._channels.get(daemon_name, ()))
        for channel in channels:
            channel.kick()
        return len(channels)

    async def settle(self, timeout: float = 30.0) -> None:
        """Wait until every hosted daemon agrees on one installed view
        containing all configured daemons this host knows about."""
        from repro.spread.membership import STATE_OP

        def converged() -> bool:
            alive = [d for d in self.daemons.values() if d.alive]
            if not alive:
                return False
            views = {d.view for d in alive}
            if len(views) != 1:
                return False
            members = set(alive[0].view_members)
            return all(
                d.engine.state == STATE_OP for d in alive
            ) and members >= set(self.hosted)

        await wait_for_condition(converged, timeout)


async def wait_for_condition(
    predicate, timeout: float, interval: float = 0.005
) -> None:
    """Poll ``predicate`` until true (asyncio's run_until equivalent)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise TimeoutError(f"condition not met within {timeout}s")
        await asyncio.sleep(interval)


def loopback_available() -> bool:
    """Whether this platform lets a process bind ``127.0.0.1``.

    The one "no sockets here" test for every socket-using CLI and test:
    decided up front by one bind, never by catching ``OSError`` around a
    whole run — the builtin ``TimeoutError`` is an ``OSError`` too, so
    such a guard reports a hang as a skip.
    """
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
    except OSError:
        return False
    return True
