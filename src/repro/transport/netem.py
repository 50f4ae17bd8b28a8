"""``repro.transport.netem`` — WAN-shaped fault injection for real sockets.

The chaos crucible proves the protocol stack under the *simulated*
adversary (:mod:`repro.net`); this module is the same idea one layer
down, against the asyncio TCP backend: an in-process TCP proxy that
sits on each peer or client link and shapes the byte stream the way a
hostile wide-area network would.  Between real hosts, ``tc netem``
does the same job.

Per link and per direction (``fwd`` = toward the target, ``back`` =
toward the dialer), a mutable :class:`LinkShape` provides:

* **latency + jitter** — one-way added delay; jitter never reorders
  (delivery times are monotone per direction, like a real queue);
* **rate** — a bandwidth cap in bytes/second (serialization delay
  against a rolling link-busy cursor, i.e. a token-less token bucket);
* **loss** — per-chunk probability of a *retransmission penalty*: TCP
  hides real packet loss from the application as added latency, so loss
  here is modelled honestly as an RTO-shaped delay spike, not a hole in
  the stream (a hole in a TCP stream is corruption, which is separate);
* **corrupt / truncate** — byte flips and mid-frame truncation aimed at
  :class:`~repro.transport.wire.FrameDecoder`; both are
  connection-fatal by design (tag, CRC or desync), so they exercise the
  decode-reject + reconnect path;
* **stall** — hold bytes without closing the socket (the half-open
  manufacturing knob: the connection looks alive, nothing moves);
* **blackhole** — silently discard bytes while both sockets stay open
  (a true partition: no RST, no FIN, only silence).

One-shot **reset** actions abort every live connection of a link.

Everything randomized draws from :class:`~repro.sim.rng
.DeterministicRng` children keyed by ``(seed, link, direction)``, and
fault *schedules* (:class:`NetemSchedule`, mirroring
:class:`~repro.net.fault.FaultSchedule`) are derived entirely from a
seed, so a failing schedule replays action-for-action.  Chunk
boundaries are an OS artifact, so byte-level determinism is only
promised for the unshapen case: a link with default shapes and no
schedule is **pass-through byte-identical** and injects zero faults
(pinned by ``tests/transport/test_netem.py``).

Observability: per-link counters (``bytes_fwd/back``, ``conns``,
``faults`` by kind) sampled by
:func:`repro.obs.metrics.collect_netem`; every applied action and
connection event is traced under the ``netem.*`` namespace.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FaultError, TransportError
from repro.sim.rng import DeterministicRng

#: Proxy read quantum.  Smaller than the transport's READ_CHUNK so rate
#: caps and per-chunk fault draws get a reasonable granularity.
PROXY_CHUNK = 16384

DIRECTIONS = ("fwd", "back")

#: Shape fields a schedule's ``shape`` action may set.
SHAPE_FIELDS = (
    "latency",
    "jitter",
    "rate",
    "loss",
    "loss_penalty",
    "corrupt",
    "truncate",
)

#: All-links wildcard in schedules and the CLI.
ALL_LINKS = "*"

#: Shape fields that are probabilities (must land in [0, 1]).
_PROBABILITY_FIELDS = ("loss", "corrupt", "truncate")


def check_shape_fields(fields: Dict[str, Any]) -> None:
    """Reject unknown or out-of-range shape fields (FaultError) — the
    validate-before-arm contract: a typo'd or impossible schedule must
    die loudly before any socket is perturbed."""
    unknown = sorted(set(fields) - set(SHAPE_FIELDS))
    if unknown:
        raise FaultError(
            f"unknown shape field(s) {unknown}; valid: {list(SHAPE_FIELDS)}"
        )
    for name, value in fields.items():
        if value is None:
            if name == "rate":
                continue  # None = uncapped
            raise FaultError(f"shape field {name} may not be None")
        if value < 0:
            raise FaultError(f"shape field {name} is negative: {value}")
        if name in _PROBABILITY_FIELDS and value > 1.0:
            raise FaultError(
                f"shape field {name} is a probability, got {value}"
            )


@dataclass
class LinkShape:
    """Mutable shaping state for one direction of one link.

    All probabilities are per forwarded chunk (``PROXY_CHUNK`` quantum);
    latency/jitter/penalties are seconds; ``rate`` is bytes/second
    (``None`` = uncapped).  ``stalled`` holds bytes (delivered on
    resume); ``blackholed`` discards them silently.
    """

    latency: float = 0.0
    jitter: float = 0.0
    rate: Optional[float] = None
    loss: float = 0.0
    loss_penalty: float = 0.25
    corrupt: float = 0.0
    truncate: float = 0.0
    stalled: bool = False
    blackholed: bool = False

    def is_passthrough(self) -> bool:
        """True when this shape cannot perturb the stream at all."""
        return (
            self.latency == 0.0
            and self.jitter == 0.0
            and self.rate is None
            and self.loss == 0.0
            and self.corrupt == 0.0
            and self.truncate == 0.0
            and not self.stalled
            and not self.blackholed
        )


class _Pipe:
    """One direction of one proxied connection."""

    def __init__(
        self,
        link: "NetemLink",
        direction: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        rng: DeterministicRng,
    ) -> None:
        self.link = link
        self.direction = direction
        self.reader = reader
        self.writer = writer
        self.rng = rng
        #: Monotone delivery cursor: jitter may never reorder bytes.
        self._deliver_at = 0.0
        #: Rolling link-busy cursor for the rate cap.
        self._busy_until = 0.0

    async def run(self) -> None:
        link = self.link
        loop = link._loop
        counters = link.counters
        byte_key = f"bytes_{self.direction}"
        try:
            while True:
                data = await self.reader.read(PROXY_CHUNK)
                if not data:
                    return
                shape = link.shape[self.direction]
                if shape.is_passthrough():
                    # The acceptance path: unshapen bytes move verbatim
                    # with no draws, no sleeps, no copies.
                    counters[byte_key] += len(data)
                    self.writer.write(data)
                    await self.writer.drain()
                    continue
                data = self._mangle(bytes(data), shape)
                while link.shape[self.direction].stalled:
                    # Half-open manufacturing: hold bytes, keep sockets.
                    await link._stall_changed.wait()
                if link.shape[self.direction].blackholed:
                    counters["blackholed_bytes"] += len(data)
                    continue
                delay = self._delay_for(len(data), shape, loop.time())
                if delay > 0:
                    await asyncio.sleep(delay)
                if data:
                    counters[byte_key] += len(data)
                    self.writer.write(data)
                    await self.writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

    def _mangle(self, data: bytes, shape: LinkShape) -> bytes:
        counters = self.link.counters
        if shape.truncate and self.rng.random() < shape.truncate:
            keep = self.rng.randint(0, max(0, len(data) - 1))
            data = data[:keep]
            counters["faults_truncate"] += 1
            self.link._trace("netem.truncate", kept=keep)
        if data and shape.corrupt and self.rng.random() < shape.corrupt:
            index = self.rng.randint(0, len(data) - 1)
            flip = 1 + self.rng.randint(0, 254)
            mutated = bytearray(data)
            mutated[index] ^= flip
            data = bytes(mutated)
            counters["faults_corrupt"] += 1
            self.link._trace("netem.corrupt", offset=index)
        return data

    def _delay_for(self, size: int, shape: LinkShape, now: float) -> float:
        delay = shape.latency
        if shape.jitter:
            delay += self.rng.uniform(0.0, shape.jitter)
        if shape.loss and self.rng.random() < shape.loss:
            # TCP turns packet loss into retransmission latency; model
            # it as an RTO-shaped spike on this chunk.
            delay += shape.loss_penalty
            self.link.counters["faults_loss"] += 1
        start = now
        if shape.rate:
            start = max(now, self._busy_until)
            self._busy_until = start + size / shape.rate
        deliver_at = max(start + delay, self._deliver_at)
        self._deliver_at = deliver_at
        return max(0.0, deliver_at - now)


class NetemLink:
    """One shaped TCP proxy: a local listener forwarding to a target.

    ``target`` is ``(host, port)`` or a zero-argument callable returning
    it — resolved per connection, so a link can be created before the
    real endpoint has bound its ephemeral port.
    """

    def __init__(
        self,
        name: str,
        target: Union[Tuple[str, int], Callable[[], Tuple[str, int]]],
        rng: Optional[DeterministicRng] = None,
        tracer=None,
    ) -> None:
        self.name = name
        self.target = target
        self.rng = rng if rng is not None else DeterministicRng(0, label=name)
        self.tracer = tracer
        self.shape: Dict[str, LinkShape] = {
            "fwd": LinkShape(),
            "back": LinkShape(),
        }
        self.counters: Dict[str, int] = {
            "conns": 0,
            "conns_active": 0,
            "conn_resets": 0,
            "bytes_fwd": 0,
            "bytes_back": 0,
            "blackholed_bytes": 0,
            "faults_loss": 0,
            "faults_corrupt": 0,
            "faults_truncate": 0,
            "connect_failures": 0,
        }
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_seq = 0
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._stall_changed: Optional[asyncio.Event] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind the listener; returns (and remembers) the bound address."""
        self._loop = asyncio.get_running_loop()
        self._stall_changed = asyncio.Event()
        self._server = await asyncio.start_server(self._accept, host, port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    def _resolve_target(self) -> Tuple[str, int]:
        target = self.target() if callable(self.target) else self.target
        if target is None:
            raise TransportError(f"netem link {self.name}: no target address")
        return target

    def _trace(self, kind: str, **fields: Any) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record(kind, link=self.name, **fields)

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_seq += 1
        conn_id = self._conn_seq
        try:
            await self._proxy_one(conn_id, reader, writer)
        except asyncio.CancelledError:
            # close() cancels handler tasks; finishing cleanly keeps
            # asyncio.streams' connection_made callback from logging the
            # CancelledError as an "Exception in callback" at teardown.
            pass
        finally:
            self._conn_tasks.discard(task)

    async def _proxy_one(
        self,
        conn_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                *self._resolve_target()
            )
        except (OSError, TransportError):
            self.counters["connect_failures"] += 1
            writer.close()
            return
        self.counters["conns"] += 1
        self.counters["conns_active"] += 1
        self._trace("netem.accept", conn=conn_id)
        self._conn_writers.add(writer)
        self._conn_writers.add(upstream_writer)
        fwd = _Pipe(
            self, "fwd", reader, upstream_writer,
            self.rng.child(f"conn{conn_id}/fwd"),
        )
        back = _Pipe(
            self, "back", upstream_reader, writer,
            self.rng.child(f"conn{conn_id}/back"),
        )
        pumps = [
            asyncio.ensure_future(fwd.run()),
            asyncio.ensure_future(back.run()),
        ]
        try:
            # Either side ending (EOF, reset, abort) tears down both:
            # the proxy forwards connection lifecycle, not only bytes.
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            self.counters["conns_active"] -= 1
            self._conn_writers.discard(writer)
            self._conn_writers.discard(upstream_writer)
            for side in (writer, upstream_writer):
                try:
                    side.close()
                except Exception:
                    pass
            self._trace("netem.conn_closed", conn=conn_id)

    # -- fault application -------------------------------------------------

    def apply_shape(self, direction: str, **fields: Any) -> None:
        """Merge shaping fields into one or both directions."""
        check_shape_fields(fields)
        for side in self._sides(direction):
            self.shape[side] = replace(self.shape[side], **fields)
        self._trace("netem.shape", direction=direction, **fields)

    def clear(self, direction: str = "both") -> None:
        """Reset shaping to clean pass-through (stalls/blackholes too)."""
        for side in self._sides(direction):
            self.shape[side] = LinkShape()
        self._wake_stalled()
        self._trace("netem.clear", direction=direction)

    def stall(self, direction: str = "both") -> None:
        for side in self._sides(direction):
            self.shape[side].stalled = True
        self._trace("netem.stall", direction=direction)

    def resume(self, direction: str = "both") -> None:
        for side in self._sides(direction):
            self.shape[side].stalled = False
        self._wake_stalled()
        self._trace("netem.resume", direction=direction)

    def blackhole(self, direction: str = "both") -> None:
        for side in self._sides(direction):
            self.shape[side].blackholed = True
        self._trace("netem.blackhole", direction=direction)

    def heal(self, direction: str = "both") -> None:
        for side in self._sides(direction):
            self.shape[side].blackholed = False
        self._trace("netem.heal", direction=direction)

    def reset_connections(self) -> int:
        """Abort every live proxied connection (both sockets, RST-style).
        Returns the number of sockets aborted."""
        writers = list(self._conn_writers)
        for writer in writers:
            try:
                writer.transport.abort()
            except Exception:
                pass
        if writers:
            self.counters["conn_resets"] += 1
        self._trace("netem.reset", sockets=len(writers))
        return len(writers)

    def _sides(self, direction: str) -> Tuple[str, ...]:
        if direction == "both":
            return DIRECTIONS
        if direction not in DIRECTIONS:
            raise FaultError(
                f"unknown direction {direction!r}; want fwd/back/both"
            )
        return (direction,)

    def _wake_stalled(self) -> None:
        if self._stall_changed is not None:
            self._stall_changed.set()
            self._stall_changed.clear()
            # Re-arm: pipes loop on the live shape, the event is only a
            # wake-up; a Event-per-transition keeps them from spinning.
            self._stall_changed = asyncio.Event()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), 2.0)
            except asyncio.TimeoutError:
                pass
            self._server = None
        self.reset_connections()
        pending = {task for task in self._conn_tasks if not task.done()}
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._conn_tasks.clear()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetemAction:
    """One scripted netem fault: what, which links, which direction, when."""

    at: float
    kind: str  # shape | clear | stall | resume | blackhole | heal | reset
    links: Tuple[str, ...] = (ALL_LINKS,)
    direction: str = "both"
    fields: Tuple[Tuple[str, Any], ...] = ()

    def describe(self) -> str:
        where = ",".join(self.links)
        extras = ""
        if self.fields:
            extras = " " + " ".join(f"{k}={v}" for k, v in self.fields)
        side = "" if self.direction == "both" else f" [{self.direction}]"
        return f"t={self.at}: {self.kind} {where}{side}{extras}"


#: Action kinds a netem schedule may contain.
NETEM_KINDS = frozenset(
    {"shape", "clear", "stall", "resume", "blackhole", "heal", "reset"}
)


@dataclass
class NetemSchedule:
    """An ordered collection of netem actions (the wire-level sibling of
    :class:`~repro.net.fault.FaultSchedule`)."""

    actions: List[NetemAction] = field(default_factory=list)
    #: The clock time the action times are anchored to (the chaos
    #: window start, for a generated schedule).
    origin: float = 0.0

    def rebased(self, origin: float) -> "NetemSchedule":
        """The same fault sequence, every offset from the origin kept,
        anchored at ``origin`` — how a schedule recorded against one
        wall clock is replayed on another."""
        shift = origin - self.origin
        return NetemSchedule(
            actions=[replace(a, at=a.at + shift) for a in self.actions],
            origin=origin,
        )

    def _add(
        self,
        at: float,
        kind: str,
        links: Sequence[str],
        direction: str = "both",
        **fields: Any,
    ) -> "NetemSchedule":
        self.actions.append(
            NetemAction(
                at=at,
                kind=kind,
                links=tuple(links) if links else (ALL_LINKS,),
                direction=direction,
                fields=tuple(sorted(fields.items())),
            )
        )
        return self

    def shape(
        self, at: float, links: Sequence[str] = (ALL_LINKS,),
        direction: str = "both", **fields: Any,
    ) -> "NetemSchedule":
        """Merge shaping fields (latency/jitter/rate/loss/corrupt/...)."""
        return self._add(at, "shape", links, direction, **fields)

    def clear(
        self, at: float, links: Sequence[str] = (ALL_LINKS,)
    ) -> "NetemSchedule":
        return self._add(at, "clear", links)

    def stall(
        self, at: float, links: Sequence[str] = (ALL_LINKS,),
        direction: str = "both",
    ) -> "NetemSchedule":
        return self._add(at, "stall", links, direction)

    def resume(
        self, at: float, links: Sequence[str] = (ALL_LINKS,),
        direction: str = "both",
    ) -> "NetemSchedule":
        return self._add(at, "resume", links, direction)

    def blackhole(
        self, at: float, links: Sequence[str] = (ALL_LINKS,),
        direction: str = "both",
    ) -> "NetemSchedule":
        return self._add(at, "blackhole", links, direction)

    def heal(
        self, at: float, links: Sequence[str] = (ALL_LINKS,),
        direction: str = "both",
    ) -> "NetemSchedule":
        return self._add(at, "heal", links, direction)

    def reset(
        self, at: float, links: Sequence[str] = (ALL_LINKS,)
    ) -> "NetemSchedule":
        return self._add(at, "reset", links)

    def describe(self) -> List[str]:
        return [
            action.describe()
            for action in sorted(self.actions, key=lambda a: (a.at, a.kind))
        ]


class NetemWorld:
    """A named collection of :class:`NetemLink`\\ s plus schedule arming.

    The world owns the links of one deployment (every peer-pair and
    client link of a transport-crucible run), validates schedules
    before arming anything (:class:`~repro.errors.FaultError` — same
    contract as :class:`~repro.net.fault.FaultInjector`), and applies
    timed actions on a clock.
    """

    def __init__(self, seed: int = 0, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.rng = DeterministicRng(seed, label="netem")
        self.links: Dict[str, NetemLink] = {}
        self.fired: List[NetemAction] = []

    async def open_link(
        self,
        name: str,
        target: Union[Tuple[str, int], Callable[[], Tuple[str, int]]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> Tuple[str, int]:
        """Create, start and register one link; returns its address."""
        if name in self.links:
            raise FaultError(f"netem link {name!r} already exists")
        link = NetemLink(
            name, target, rng=self.rng.child(f"link/{name}"),
            tracer=self.tracer,
        )
        address = await link.start(host, port)
        self.links[name] = link
        return address

    def _select(self, names: Sequence[str]) -> List[NetemLink]:
        if ALL_LINKS in names:
            return list(self.links.values())
        return [self.links[name] for name in names]

    def validate(self, schedule: NetemSchedule) -> None:
        for action in schedule.actions:
            if action.kind not in NETEM_KINDS:
                raise FaultError(
                    f"unknown netem action kind {action.kind!r};"
                    f" valid kinds: {sorted(NETEM_KINDS)}"
                )
            if action.direction not in DIRECTIONS + ("both",):
                raise FaultError(
                    f"unknown direction {action.direction!r} in {action}"
                )
            unknown_links = [
                name for name in action.links
                if name != ALL_LINKS and name not in self.links
            ]
            if unknown_links:
                raise FaultError(
                    f"netem action targets unknown link(s) {unknown_links};"
                    f" known: {sorted(self.links)}"
                )
            if action.kind == "shape":
                check_shape_fields(dict(action.fields))

    def arm(self, schedule: NetemSchedule, clock) -> None:
        """Validate, then schedule every action via ``clock.call_at``
        (a :class:`~repro.transport.rtclock.RealtimeClock`: past
        deadlines fire ASAP, so relative schedules arm cleanly)."""
        self.validate(schedule)
        for action in schedule.actions:
            clock.call_at(
                action.at, self._runner(action), label=f"netem:{action.kind}"
            )

    def apply(self, action: NetemAction) -> None:
        """Apply one action immediately (the arm path calls this)."""
        self.fired.append(action)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(
                "netem.fire",
                fault=action.kind,
                at=action.at,
                links=list(action.links),
                direction=action.direction,
            )
        for link in self._select(action.links):
            if action.kind == "shape":
                link.apply_shape(action.direction, **dict(action.fields))
            elif action.kind == "clear":
                link.clear()
            elif action.kind == "stall":
                link.stall(action.direction)
            elif action.kind == "resume":
                link.resume(action.direction)
            elif action.kind == "blackhole":
                link.blackhole(action.direction)
            elif action.kind == "heal":
                link.heal(action.direction)
            elif action.kind == "reset":
                link.reset_connections()

    def _runner(self, action: NetemAction) -> Callable[[], None]:
        def run() -> None:
            self.apply(action)

        return run

    def counters_total(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for link in self.links.values():
            for key, value in link.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def faults_injected(self) -> int:
        """Total message-level faults all links injected (the empty-
        schedule acceptance check asserts this stays zero)."""
        totals = self.counters_total()
        return (
            totals.get("faults_loss", 0)
            + totals.get("faults_corrupt", 0)
            + totals.get("faults_truncate", 0)
            + totals.get("conn_resets", 0)
            + totals.get("blackholed_bytes", 0)
        )

    async def close(self) -> None:
        for link in self.links.values():
            await link.close()
        self.links.clear()
