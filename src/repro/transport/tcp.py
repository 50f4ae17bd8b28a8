"""The asyncio TCP backend of the ``Transport`` seam.

One :class:`TcpTransport` per hosted daemon.  Outbound, it keeps one
:class:`_PeerChannel` per destination daemon — a background task owning
a TCP connection that identifies itself with a
:class:`~repro.transport.protocol.PeerHello` and then streams frames;
the channel reconnects with capped exponential backoff and, because the
seam is a *datagram* service (reliability lives in the daemon's
NACK/retransmit machinery above), buffered frames beyond a bound are
dropped oldest-first rather than held forever against a dead peer.
Inbound, :meth:`TcpTransport.serve` accepts peer connections, attributes
each stream to the daemon named in its ``PeerHello``, and hands decoded
payloads straight to ``node.deliver(source, payload)`` — the same entry
point the sim network calls.

Addressing goes through a :class:`TransportMap` (daemon name →
``(host, port)`` for the peer and client listeners), shared by every
host and client in a deployment.  Binding to port 0 records the
ephemeral port back into the map, which is how single-process loopback
deployments (tests, benches) wire themselves without port collisions.

Observability: the transport keeps always-on counters
(``bytes_sent/recv``, ``frames_sent/recv``, ``connects``,
``reconnects``, ``send_drops``, ``decode_errors``) plus power-of-two
frame-size histograms, sampled by
:func:`repro.obs.metrics.collect_transport`; connection-level events
are traced under the ``transport.*`` namespace.
"""

from __future__ import annotations

import asyncio
from typing import Any, Deque, Dict, Optional, Tuple

from collections import deque

from repro.errors import FrameError, TransportError
from repro.transport.auth import AuthSpec, resolve_auth
from repro.transport.protocol import PeerHello
from repro.transport.wire import REJECT_COUNTERS, FrameDecoder, encode_frame

#: Reconnect backoff bounds; retries use *decorrelated jitter* between
#: them (see :func:`decorrelated_jitter`), not a bare doubling.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Outbound datagram buffer per peer channel, in frames.
SEND_BUFFER_FRAMES = 8192

READ_CHUNK = 65536

#: The per-peer write-progress deadline in seconds: if a connected peer
#: accepts no bytes for this long the connection is aborted and rebuilt
#: rather than letting a zero-window/half-open socket wedge the channel.
SEND_DEADLINE = 5.0


def decorrelated_jitter(rng, previous: float,
                        base: float = BACKOFF_BASE,
                        cap: float = BACKOFF_CAP) -> float:
    """Next reconnect delay, decorrelated-jitter style: uniform in
    ``[base, previous * 3]``, capped.  Unlike pure exponential doubling,
    peers that lost the same daemon at the same instant spread their
    retries instead of storming back in lockstep."""
    return min(cap, rng.uniform(base, max(base, previous * 3.0)))


class TransportMap:
    """Shared name → address directory for one deployment.

    Two address spaces per daemon: the *peer* listener (daemon-to-daemon
    frames) and the *client* listener (the Spread client API).  Entries
    appear either from a deployment file
    (:meth:`~repro.transport.deploy.Deployment.transport_map`) or when a
    listener binds (ephemeral-port discovery).
    """

    def __init__(self) -> None:
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._clients: Dict[str, Tuple[str, int]] = {}

    def set_peer(self, name: str, host: str, port: int) -> None:
        self._peers[name] = (host, port)

    def set_client(self, name: str, host: str, port: int) -> None:
        self._clients[name] = (host, port)

    def peer(self, name: str) -> Optional[Tuple[str, int]]:
        return self._peers.get(name)

    def client(self, name: str) -> Optional[Tuple[str, int]]:
        return self._clients.get(name)

    def knows(self, name: str) -> bool:
        return name in self._peers


async def drain_tasks(tasks: set, writers: set, timeout: float = 2.0) -> None:
    """Wind down connection-handler tasks: close their sockets so the
    handlers exit on EOF, then wait (cancelling only stragglers —
    cancelling a parked stream handler outright makes asyncio's
    connection bookkeeping log spurious CancelledErrors)."""
    for writer in list(writers):
        try:
            writer.transport.abort()
        except Exception:
            pass
    writers.clear()
    pending = {task for task in tasks if not task.done()}
    tasks.clear()
    if not pending:
        return
    done, still = await asyncio.wait(pending, timeout=timeout)
    for task in still:
        task.cancel()
    if still:
        await asyncio.gather(*still, return_exceptions=True)


def size_bucket(size: int) -> int:
    """The power-of-two histogram bucket (its upper bound) for ``size``."""
    bucket = 16
    while bucket < size:
        bucket <<= 1
    return bucket


class TcpTransport:
    """Daemon-to-daemon datagram service over per-peer TCP connections.

    Satisfies the ``Transport`` seam (``add_node`` / ``has_node`` /
    ``send``) for exactly one local daemon.
    """

    def __init__(
        self,
        name: str,
        clock,
        addresses: TransportMap,
        auth: AuthSpec = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.addresses = addresses
        # Resolved once here (None consults REPRO_TRANSPORT_KEYFILE);
        # the send/receive hot paths never touch the environment.
        self.auth = resolve_auth(auth)
        self._node: Any = None
        self._channels: Dict[str, _PeerChannel] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._serve_tasks: set = set()
        self._serve_writers: set = set()
        self._closing = False
        self.counters: Dict[str, int] = {
            "bytes_sent": 0,
            "bytes_recv": 0,
            "frames_sent": 0,
            "frames_recv": 0,
            "connects": 0,
            "reconnects": 0,
            "connect_failures": 0,
            "send_drops": 0,
            "decode_errors": 0,
            "send_deadline_aborts": 0,
            "peer_eof_closes": 0,
            "client_stall_kicks": 0,
            "send_buffer_peak_frames": 0,
            "send_buffer_peak_bytes": 0,
        }
        for key in REJECT_COUNTERS:
            self.counters[key] = 0
        #: Frame-size histograms: power-of-two bucket -> frame count.
        self.tx_frame_sizes: Dict[int, int] = {}
        self.rx_frame_sizes: Dict[int, int] = {}

    # -- the Transport seam ------------------------------------------------

    def add_node(self, node: Any) -> None:
        """Register the local daemon (the seam's single-node degenerate
        case: a TcpTransport carries exactly one daemon)."""
        if self._node is not None and self._node is not node:
            raise TransportError(f"transport {self.name} already has a node")
        self._node = node

    def has_node(self, name: str) -> bool:
        """Reachability by configuration: self, or an address we know."""
        return name == self.name or self.addresses.knows(name)

    def send(
        self,
        source: str,
        destination: str,
        payload: Any,
        size: Optional[int] = None,
    ) -> None:
        """Queue one datagram for ``destination`` (never blocks)."""
        if self._closing:
            return
        data = encode_frame(payload, auth=self.auth)
        self.counters["frames_sent"] += 1
        self.counters["bytes_sent"] += len(data)
        bucket = size_bucket(len(data))
        self.tx_frame_sizes[bucket] = self.tx_frame_sizes.get(bucket, 0) + 1
        if destination == self.name:
            # Self-delivery loopback (the daemon never does this today,
            # but the datagram contract allows it).
            self.clock.loop.call_soon(self._deliver, source, payload)
            return
        channel = self._channels.get(destination)
        if channel is None:
            channel = self._channels[destination] = _PeerChannel(
                self, destination
            )
        channel.send(data)

    # -- inbound -----------------------------------------------------------

    async def serve(self, host: str, port: int = 0) -> Tuple[str, int]:
        """Start the peer listener; records the bound address into the
        map and returns it."""
        self._server = await asyncio.start_server(self._accept, host, port)
        bound = self._server.sockets[0].getsockname()[:2]
        self.addresses.set_peer(self.name, bound[0], bound[1])
        return bound

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        def observe(kind: int, total: int) -> None:
            self.counters["frames_recv"] += 1
            self.counters["bytes_recv"] += total
            bucket = size_bucket(total)
            self.rx_frame_sizes[bucket] = self.rx_frame_sizes.get(bucket, 0) + 1

        decoder = FrameDecoder(
            observe=observe,
            auth=self.auth,
            counters=self.counters,
        )
        peer: Optional[str] = None
        task = asyncio.current_task()
        self._serve_tasks.add(task)
        self._serve_writers.add(writer)
        try:
            while True:
                data = await reader.read(READ_CHUNK)
                if not data:
                    break
                for payload in decoder.feed(data):
                    if peer is None:
                        if not isinstance(payload, PeerHello):
                            raise FrameError(
                                "peer stream did not start with PeerHello"
                            )
                        peer = payload.sender
                        tracer = self.clock.tracer
                        if tracer.enabled:
                            tracer.record(
                                "transport.peer_accept",
                                me=self.name,
                                peer=peer,
                            )
                        continue
                    self._deliver(peer, payload)
        except FrameError:
            self.counters["decode_errors"] += 1
        except (ConnectionError, OSError):
            pass
        finally:
            self._serve_tasks.discard(task)
            self._serve_writers.discard(writer)
            writer.close()

    def _deliver(self, source: str, payload: Any) -> None:
        node = self._node
        if node is not None:
            node.deliver(source, payload)

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Stop the listener and tear down every peer channel.

        Every wait is bounded: a peer that holds its end of a
        connection open (alive, blackholed, or wedged) must not be able
        to hang our shutdown — ``Server.wait_closed`` otherwise waits
        for *remote* ends to detach."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), 2.0)
            except asyncio.TimeoutError:
                pass
        for channel in self._channels.values():
            await channel.close()
        self._channels.clear()
        await drain_tasks(self._serve_tasks, self._serve_writers)


class _PeerChannel:
    """One outbound connection to a peer daemon, with reconnect.

    Hardened against WAN failure modes the netem crucible manufactures:
    reconnect delays use decorrelated jitter (no thundering herd after a
    daemon restart), writes must make progress within the transport's
    :data:`SEND_DEADLINE` (a stalled/zero-window peer gets aborted and
    rebuilt instead of wedging the channel), and a read-side watchdog
    notices remote EOF/reset even while the write loop is parked with
    nothing to send — the half-open case a pure writer can never see.
    """

    def __init__(self, transport: TcpTransport, peer: str) -> None:
        self.transport = transport
        self.peer = peer
        self._queue: Deque[bytes] = deque()
        self._queue_bytes = 0
        self._wake = asyncio.Event()
        self._closed = False
        self._conn_broken = False
        self._rng = transport.clock.rng.child(f"backoff/{peer}")
        self._task = transport.clock.loop.create_task(
            self._run(), name=f"peer:{transport.name}->{peer}"
        )

    def send(self, data: bytes) -> None:
        if self._closed:
            return
        counters = self.transport.counters
        if len(self._queue) >= SEND_BUFFER_FRAMES:
            dropped = self._queue.popleft()
            self._queue_bytes -= len(dropped)
            counters["send_drops"] += 1
        self._queue.append(data)
        self._queue_bytes += len(data)
        if len(self._queue) > counters["send_buffer_peak_frames"]:
            counters["send_buffer_peak_frames"] = len(self._queue)
        if self._queue_bytes > counters["send_buffer_peak_bytes"]:
            counters["send_buffer_peak_bytes"] = self._queue_bytes
        self._wake.set()

    async def _watch_eof(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Detect remote close while the write loop is parked: peers
        never send us bytes on an outbound channel, so any read result
        — EOF, reset, or unexpected data — means the connection is
        done.  Abort it and wake the writer so reconnect starts now,
        not at the next send attempt."""
        try:
            await reader.read(READ_CHUNK)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass
        if self._closed:
            return
        self._conn_broken = True
        self.transport.counters["peer_eof_closes"] += 1
        try:
            writer.transport.abort()
        except Exception:
            pass
        self._wake.set()

    async def _run(self) -> None:
        transport = self.transport
        counters = transport.counters
        backoff = BACKOFF_BASE
        connected_before = False
        while not self._closed:
            address = transport.addresses.peer(self.peer)
            if address is None:
                # Peer not registered (yet): wait and re-resolve.
                await asyncio.sleep(backoff)
                backoff = decorrelated_jitter(self._rng, backoff)
                continue
            try:
                reader, writer = await asyncio.open_connection(*address)
            except OSError:
                counters["connect_failures"] += 1
                await asyncio.sleep(backoff)
                backoff = decorrelated_jitter(self._rng, backoff)
                continue
            if connected_before:
                counters["reconnects"] += 1
            connected_before = True
            counters["connects"] += 1
            backoff = BACKOFF_BASE
            self._conn_broken = False
            tracer = transport.clock.tracer
            if tracer.enabled:
                tracer.record(
                    "transport.peer_connect",
                    me=transport.name,
                    peer=self.peer,
                )
            watchdog = transport.clock.loop.create_task(
                self._watch_eof(reader, writer),
                name=f"peer-eof:{transport.name}->{self.peer}",
            )
            try:
                writer.write(
                    encode_frame(PeerHello(transport.name), auth=transport.auth)
                )
                while not self._closed:
                    queue = self._queue
                    while queue:
                        data = queue.popleft()
                        self._queue_bytes -= len(data)
                        writer.write(data)
                    try:
                        await asyncio.wait_for(
                            writer.drain(), SEND_DEADLINE
                        )
                    except asyncio.TimeoutError:
                        counters["send_deadline_aborts"] += 1
                        if tracer.enabled:
                            tracer.record(
                                "transport.send_stall",
                                me=transport.name,
                                peer=self.peer,
                                buffered=self._queue_bytes,
                            )
                        try:
                            writer.transport.abort()
                        except Exception:
                            pass
                        raise ConnectionResetError("send deadline expired")
                    if self._closed:
                        # wait_for on 3.11 swallows our cancellation
                        # when the drain future finishes in the same
                        # loop iteration (returns the result instead of
                        # re-raising).  close() sets _closed before it
                        # cancels, so re-check here — otherwise we would
                        # clear close()'s wake below and park on
                        # _wake.wait() forever, past its bounded wait.
                        break
                    if self._conn_broken:
                        raise ConnectionResetError("peer closed connection")
                    if not queue:
                        self._wake.clear()
                        await self._wake.wait()
                        if self._conn_broken:
                            raise ConnectionResetError(
                                "peer closed connection"
                            )
            except (ConnectionError, OSError):
                if tracer.enabled:
                    tracer.record(
                        "transport.peer_drop",
                        me=transport.name,
                        peer=self.peer,
                    )
                continue
            finally:
                watchdog.cancel()
                try:
                    writer.close()
                except Exception:
                    pass
                # Reap the watchdog without shielding ourselves from our
                # own cancellation: wait() never re-raises the watchdog's
                # error, while a pending cancel of *this* task is
                # delivered at the await and propagates — a cancelled
                # channel must die here, not survive into the reconnect
                # backoff sleep past close()'s bounded wait.
                await asyncio.wait({watchdog})
                if watchdog.done() and not watchdog.cancelled():
                    watchdog.exception()

    async def close(self) -> None:
        self._closed = True
        self._wake.set()
        self._task.cancel()
        # Bounded wait (asyncio.wait never re-raises and never blocks
        # past its timeout): cancellation can race connection teardown
        # in ways that leave the task parked; a wedged channel must not
        # wedge transport shutdown with it.
        await asyncio.wait({self._task}, timeout=2.0)
        if self._task.done() and not self._task.cancelled():
            self._task.exception()  # retrieved: no "never retrieved" noise
