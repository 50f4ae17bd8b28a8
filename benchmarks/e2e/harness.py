"""Shared pieces of the end-to-end benchmark: statistics, rate windows,
seeded payloads, the delivery ledger (the correctness gate), and the
loopback TCP deployment every ``*_tcp`` workload runs on.

Completion and "all keyed" predicates are O(1) counters fed by
``on_event`` callbacks; nothing here scans a client queue.
"""

from __future__ import annotations

import asyncio
import os
import random
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cliques.directory import KeyDirectory
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.secure.events import SecureMembershipEvent
from repro.secure.session import SecureClient
from repro.sim.rng import stable_seed
from repro.spread.config import SpreadConfig
from repro.spread.events import MembershipEvent
from repro.spread.flush import FlushClient
from repro.transport.auth import FrameAuth, generate_keyfile
from repro.transport.client import TcpSpreadClient
from repro.transport.host import DaemonHost
from repro.transport.wire import REJECT_COUNTERS

from . import trace

#: Rate windows per timed phase; a rate metric is the median window.
WINDOWS = 10
#: Share of the traced run's windows measured *before* the wrappers go
#: in; their rate over the traced windows' rate is the tracing overhead.
UNTRACED_WINDOWS = 3
#: Churn cycles discarded before the first timed cycle.
WARMUP_CYCLES = 3
#: An operation not complete this long after it started has failed.
DELIVERY_TIMEOUT_S = 10.0
REKEY_TIMEOUT_S = 30.0

GROUP = "g"
DAEMONS = ("d0", "d1", "d2")
#: ``python -m repro.transport.daemon`` defaults (real-time timers).
HELLO_INTERVAL = 0.25
FAIL_TIMEOUT = 1.5

OUT_DIR = Path(__file__).resolve().parent / "out"

clock = time.perf_counter


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


class PhaseWindows:
    """The timed phase cut into ``WINDOWS`` equal windows.

    Each window holds the amount of work finished in it and the operation
    times observed in it.  A rate metric is the median window's rate (on
    the shared box single windows swing by a quarter while the median
    window holds), a latency metric the median over all samples.
    """

    def __init__(self, start: float, seconds: float) -> None:
        self.start = start
        self.width = seconds / WINDOWS
        self.amounts = [0.0] * WINDOWS
        self.samples: List[Dict[str, List[float]]] = [{} for _ in range(WINDOWS)]

    def _index(self, now: float) -> int:
        return int((now - self.start) / self.width)

    def add(self, now: float, amount: float) -> None:
        index = self._index(now)
        if 0 <= index < WINDOWS:
            self.amounts[index] += amount

    def add_interval(self, begin: float, end: float, amount: float) -> None:
        """Spread ``amount`` over the windows ``[begin, end)`` overlaps —
        for operations long enough that whole counts per window would
        quantise the rate (a churn cycle is a tenth of a window)."""
        span = end - begin
        for index in range(WINDOWS):
            low = self.start + index * self.width
            overlap = min(end, low + self.width) - max(begin, low)
            if overlap > 0:
                self.amounts[index] += amount * overlap / span

    def sample(self, now: float, name: str, value_ms: float) -> None:
        index = self._index(now)
        if 0 <= index < WINDOWS:
            self.samples[index].setdefault(name, []).append(value_ms)

    def rates(self) -> List[float]:
        return [amount / self.width for amount in self.amounts]

    def rate(self, windows: Sequence[int]) -> float:
        return median([self.amounts[i] / self.width for i in windows])

    def values(self, name: str, windows: Sequence[int]) -> List[float]:
        return [v for i in windows for v in self.samples[i].get(name, ())]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- run context -------------------------------------------------------------------


class Context:
    """What one workload run carries around: arguments, the recorder of
    the traced run (``None`` until the wrappers go in), failure notes."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.started = clock()
        self.rec: Optional[trace.Recorder] = None
        self.eids: Dict[str, int] = {}
        self.violations: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.traced_cpu = 0.0  # CPU seconds of the traced part of the phase

    def rng(self, purpose: str) -> random.Random:
        return random.Random(stable_seed(self.seed, self.workload, purpose))

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.violations) < 20:
            self.violations.append(note)

    def start_tracing(self) -> None:
        """Install the wrappers (traced runs only, once)."""
        rec = trace.install()
        for name in ("gen.turn", "op.send", "op.deliver", "op.rekey"):
            self.eids[name] = rec.register(trace.HARNESS, name)
        rec.active = True
        self.rec = rec
        self.traced_cpu = -time.process_time()

    def stop_tracing(self) -> None:
        """End of the timed phase: stop recording, keep the totals."""
        if self.rec is not None and self.rec.active:
            self.rec.active = False
            self.traced_cpu += time.process_time()

    def trace_due(self, phase_start: float) -> bool:
        return (
            self.traced and self.rec is None
            and clock() >= phase_start + self.seconds * UNTRACED_WINDOWS / WINDOWS
        )


class Span:
    """``with Span(ctx, "op.send", op_id):`` — a harness root span in the
    traced run, nothing at all otherwise."""

    __slots__ = ("rec", "eid", "op", "started")

    def __init__(self, ctx: Context, name: str, op: int = 0) -> None:
        self.rec = ctx.rec
        if self.rec is not None:
            self.eid = ctx.eids[name]
            self.op = op

    def __enter__(self) -> "Span":
        rec = self.rec
        if rec is not None:
            self.started = rec.enter()
            if self.op:
                rec.op = self.op
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.rec is not None:
            self.rec.exit(self.eid, self.started, self.op)


# -- payloads and the delivery ledger --------------------------------------------

HEADER = 8  # bytes: 2 of sender index, 6 of per-sender sequence number
SEQ_MASK = (1 << 48) - 1


class Payloads:
    """Seeded message bodies: a message is its 8-byte id plus one body of
    a small pool, so what arrives can be compared with what was sent
    without keeping every message."""

    def __init__(self, rng: random.Random, size: int, pool: int) -> None:
        self.size = size
        self.bodies = [rng.randbytes(size - HEADER) for _ in range(pool)]

    def make(self, sender: int, seq: int) -> bytes:
        body = self.bodies[(sender + seq) % len(self.bodies)]
        return sender.to_bytes(2, "big") + seq.to_bytes(6, "big") + body

    @staticmethod
    def message_id(payload: bytes) -> int:
        """``sender << 48 | seq`` from the payload's header."""
        return int.from_bytes(payload[:HEADER], "big")

    def intact(self, payload: bytes) -> bool:
        """The payload is what ``make`` built for the id in its header."""
        mid = self.message_id(payload)
        body = self.bodies[((mid >> 48) + (mid & SEQ_MASK)) % len(self.bodies)]
        # endswith: one memcmp, no copy (a memoryview comparison walks
        # the half-megabyte bulk payloads byte by byte).
        return len(payload) == self.size and payload.endswith(body)


class Ledger:
    """Every member receives every message exactly once, in one agreed
    order, with the plaintext that was sent.

    AGREED delivery is FIFO per sender, so a per-(member, sender) "next
    sequence number" catches loss, duplication and reordering in O(1);
    a rolling digest over (sender, seq) per member catches members that
    disagree on the interleaving of senders.
    """

    def __init__(self, ctx: Context, members: int, senders: int,
                 payloads: Payloads) -> None:
        self.ctx = ctx
        self.members = members
        self.payloads = payloads
        self.next_seq = [0] * senders                    # per sender, to send
        self.expect = [[0] * senders for _ in range(members)]
        self.digest = [0] * members
        self.sent_at: Dict[int, float] = {}              # message id -> start
        self.remaining: Dict[int, int] = {}
        self.completed = 0
        self.delivered = 0
        self.progress = 0                                # never reset
        self.delivered_total = 0                         # never reset
        self.windows: Optional[PhaseWindows] = None
        self.amount_per_delivery = 1.0
        self.wake: Optional[asyncio.Event] = None

    @property
    def outstanding(self) -> int:
        return len(self.sent_at)

    def next_message(self, sender: int, started: float):
        """Register the sender's next message; returns ``(op id, payload)``."""
        seq = self.next_seq[sender]
        self.next_seq[sender] = seq + 1
        mid = (sender << 48) | seq
        self.sent_at[mid] = started
        self.remaining[mid] = self.members
        self.ctx.attempted += 1
        return mid + 1, self.payloads.make(sender, seq)

    def unsend(self, sender: int) -> None:
        """The library refused the send: the sequence number is reused."""
        seq = self.next_seq[sender] = self.next_seq[sender] - 1
        mid = (sender << 48) | seq
        del self.sent_at[mid]
        del self.remaining[mid]
        self.ctx.attempted -= 1

    def delivered_to(self, member: int, payload: bytes) -> None:
        now = clock()
        mid = Payloads.message_id(payload)
        with Span(self.ctx, "op.deliver", mid + 1):
            self._account(member, payload, mid, now)

    def _account(self, member: int, payload: bytes, mid: int, now: float) -> None:
        sender, seq = mid >> 48, mid & SEQ_MASK
        expect = self.expect[member]
        if sender >= len(expect):
            self.ctx.fail(f"member {member}: message from unknown sender {sender}")
            return
        if seq != expect[sender]:
            self.ctx.fail(
                f"member {member}: got seq {seq} from sender {sender},"
                f" expected {expect[sender]}"
            )
        expect[sender] = seq + 1
        self.digest[member] = (
            self.digest[member] * 1000003 + mid + 1
        ) & 0xFFFFFFFFFFFFFFFF
        if not self.payloads.intact(payload):
            self.ctx.fail(f"member {member}: wrong plaintext for {sender}/{seq}")
        left = self.remaining.get(mid)
        if left is None:
            self.ctx.fail(f"member {member}: unexpected message {sender}/{seq}")
            return
        self.delivered += 1
        self.delivered_total += 1
        if self.windows is not None:
            self.windows.add(now, self.amount_per_delivery)
            self.windows.sample(now, "delivery", 1000.0 * (now - self.sent_at[mid]))
        if left == 1:
            del self.remaining[mid]
            del self.sent_at[mid]
            self.completed += 1
            self.progress += 1
            if self.wake is not None:
                self.wake.set()
        else:
            self.remaining[mid] = left - 1

    def reset_measurements(self) -> None:
        self.completed = 0
        self.delivered = 0

    def close(self) -> None:
        """End-of-run checks: nothing undelivered, one agreed order."""
        if self.sent_at:
            self.ctx.fail(
                f"{len(self.sent_at)} messages not delivered to every member"
                f" within {DELIVERY_TIMEOUT_S:.0f} s",
                count=len(self.sent_at),
            )
        if len(set(self.digest)) != 1:
            self.ctx.fail("members disagree on the delivery order digest")


async def closed_loop(
    ctx: Context,
    ledger: Ledger,
    send_next: Callable[[], None],
    limit: int,
    done: Callable[[], bool],
    after_sends: Callable[[], Any],
    drain_queues: Callable[[], None],
    traceable: bool = False,
) -> None:
    """Keep ``limit`` messages outstanding until ``done()``.  ``send_next``
    sends one message through the ledger; ``after_sends`` is awaited
    after each burst (socket backpressure); ``drain_queues`` empties the
    clients' event queues.  The traced run installs its wrappers from
    here once the untraced windows of the phase are over."""
    wake = ledger.wake = asyncio.Event()
    stalled = False

    async def watchdog() -> None:
        # One timer per phase instead of a timeout per wait.
        nonlocal stalled
        seen = -1
        while seen != ledger.progress:
            seen = ledger.progress
            await asyncio.sleep(DELIVERY_TIMEOUT_S)
        stalled = True
        wake.set()

    watcher = asyncio.ensure_future(watchdog())
    while not stalled:  # a stall ends the phase; the ledger reports it
        if traceable and ctx.trace_due(ledger.windows.start):
            ctx.start_tracing()
        # Cleared before sending: a completion during ``after_sends``
        # (a suspended socket drain) must not be lost.
        wake.clear()
        with Span(ctx, "gen.turn"):
            if done():
                break
            while ledger.outstanding < limit:
                send_next()
            drain_queues()
        await after_sends()
        if ledger.outstanding >= limit:
            await wake.wait()
    watcher.cancel()
    ctx.stop_tracing()
    await drain_outstanding(ledger, drain_queues)


async def drain_outstanding(ledger: Ledger, drain_queues: Callable[[], None]) -> None:
    deadline = clock() + DELIVERY_TIMEOUT_S
    while ledger.outstanding and clock() < deadline:
        await asyncio.sleep(0.002)
        drain_queues()
    drain_queues()


# -- secure-view tracking -----------------------------------------------------------


class ViewTracker:
    """Counts ``SecureMembershipEvent``s per (view, attempt).  A rekey is
    complete when every member of the view has reported it — with the
    same member set and the same key fingerprint, or it is a violation."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self._views: Dict[Any, list] = {}
        #: member set of the latest completely reported view, and when.
        self.complete_members: frozenset = frozenset()
        self.complete_at = 0.0
        self.completions = 0
        self.on_complete: Optional[Callable[[], None]] = None

    def callback(self, event: Any) -> None:
        if not isinstance(event, SecureMembershipEvent):
            return
        members = frozenset(str(m) for m in event.members)
        key = (event.view_id, event.attempt)
        entry = self._views.get(key)
        if entry is None:
            entry = self._views[key] = [0, members, event.key_fingerprint]
        elif entry[1] != members or entry[2] != event.key_fingerprint:
            self.ctx.fail(f"members disagree on secure view {key}")
        entry[0] += 1
        if entry[0] == len(members):
            del self._views[key]
            self.complete_members = members
            self.complete_at = clock()
            self.completions += 1
            if self.on_complete is not None:
                self.on_complete()


def check_epoch(ctx: Context, members: Sequence[SecureClient]) -> None:
    """After a rekey every member holds a key under one epoch label."""
    labels = {m.sessions[GROUP].epoch_label for m in members}
    if len(labels) != 1 or not all(m.has_key(GROUP) for m in members):
        ctx.fail(f"epoch labels differ after rekey: {sorted(labels)}")


def new_secure_client(ctx: Context, flush: FlushClient, name: str,
                      params: DHParams, directory: KeyDirectory,
                      **extra: Any) -> SecureClient:
    """A member whose key material derives from the run's seed."""
    source = DeterministicSource(stable_seed(ctx.seed, name))
    secure = SecureClient(
        flush=flush,
        params=params,
        long_term=DHKeyPair.generate(params, source),
        directory=directory,
        random_source=source,
        **extra,
    )
    secure.publish_key()
    return secure


# -- the loopback TCP deployment ----------------------------------------------------


class TcpStack:
    """Three daemons on one loop (``DaemonHost``), frame auth on, the
    daemon CLI's default timers; plus the clients dialled into it."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.host: Optional[DaemonHost] = None
        self.auth: Optional[FrameAuth] = None
        self.clients: List[TcpSpreadClient] = []
        self.params = DHParams.paper_512()
        self.directory = KeyDirectory()
        self._workdir: Optional[str] = None
        self._closed_counters: Dict[str, int] = {}

    async def start(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        keyfile = os.path.join(self._workdir, "deploy.key")
        generate_keyfile(keyfile)
        self.auth = FrameAuth.from_keyfile(keyfile)
        config = SpreadConfig(
            daemons=DAEMONS,
            hello_interval=HELLO_INTERVAL,
            fail_timeout=FAIL_TIMEOUT,
            gather_timeout=FAIL_TIMEOUT * 2,
            sync_timeout=FAIL_TIMEOUT * 4,
        )
        self.host = DaemonHost(config, DAEMONS, seed=self.ctx.seed, auth=self.auth)
        await self.host.start()
        await self.host.settle()

    async def connect(self, name: str, daemon: int) -> TcpSpreadClient:
        address = self.host.addresses.client(DAEMONS[daemon % len(DAEMONS)])
        client = TcpSpreadClient(
            address, name, clock=self.host.clock, auth=self.auth
        )
        await client.connect()
        self.clients.append(client)
        return client

    async def secure_member(self, name: str, daemon: int) -> SecureClient:
        client = await self.connect(name, daemon)
        return new_secure_client(
            self.ctx, FlushClient(client, auto_flush=False), name,
            self.params, self.directory,
        )

    async def close_client(self, client: TcpSpreadClient) -> None:
        """Close one client, keeping its wire counters for the totals."""
        await client.close()
        self.clients.remove(client)
        for key, value in client.counters.items():
            self._closed_counters[key] = self._closed_counters.get(key, 0) + value

    async def stop(self) -> None:
        for client in list(self.clients):
            await self.close_client(client)
        if self.host is not None:
            await self.host.stop()
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def counters(self) -> Dict[str, float]:
        """Wire and daemon counters, summed over the deployment."""
        frames = bytes_ = rejects = 0
        client_totals = dict(self._closed_counters)
        for client in self.clients:
            for key, value in client.counters.items():
                client_totals[key] = client_totals.get(key, 0) + value
        # client -> daemon and daemon -> client frames, from the client end
        frames += client_totals.get("frames_sent", 0) + client_totals.get("frames_recv", 0)
        bytes_ += client_totals.get("bytes_sent", 0) + client_totals.get("bytes_recv", 0)
        rejects += sum(client_totals.get(key, 0) for key in REJECT_COUNTERS)
        for transport in self.host.transports.values():
            counters = transport.counters
            frames += counters["frames_sent"]
            bytes_ += counters["bytes_sent"]
            rejects += sum(counters[key] for key in REJECT_COUNTERS)
            rejects += counters["decode_errors"] + counters["send_drops"]
        out: Dict[str, float] = {
            "frames": frames, "bytes": bytes_, "rejects": rejects,
        }
        for field in ("packed_datagrams", "packed_messages", "delivery_runs",
                      "delivered_in_runs", "retransmissions"):
            out[field] = sum(
                getattr(daemon, field) for daemon in self.host.daemons.values()
            )
        return out


class Waiter:
    """An awaitable O(1) condition: callbacks call ``poke()``; the waiter
    re-tests its predicate only then."""

    def __init__(self) -> None:
        self._event = asyncio.Event()

    def poke(self) -> None:
        self._event.set()

    async def until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        deadline = clock() + timeout
        while not predicate():
            remaining = deadline - clock()
            if remaining <= 0:
                return False
            self._event.clear()
            try:
                await asyncio.wait_for(self._event.wait(), remaining)
            except asyncio.TimeoutError:
                return predicate()
        return True


async def join_plain_group(clients: Sequence[TcpSpreadClient]) -> None:
    """Join every client to the group; wait until each has seen the full
    membership."""
    expected = len(clients)
    seen = [0] * expected
    waiter = Waiter()

    def watch(index: int) -> Callable[[Any], None]:
        def on_event(event: Any) -> None:
            if isinstance(event, MembershipEvent):
                seen[index] = len(event.members)
                waiter.poke()
        return on_event

    for index, client in enumerate(clients):
        client.on_event(watch(index))
        client.join(GROUP)
    if not await waiter.until(lambda: all(n == expected for n in seen), 30.0):
        raise TimeoutError("plain group membership did not settle")


async def join_secure_group(stack: TcpStack, count: int):
    """``count`` secure members round-robin over the daemons (from a
    seeded offset), joined one at a time; returns ``(members, tracker,
    waiter)`` once all hold the same key."""
    ctx = stack.ctx
    tracker, waiter = ViewTracker(ctx), Waiter()
    tracker.on_complete = waiter.poke
    offset = ctx.rng("placement").randrange(len(DAEMONS))
    members: List[SecureClient] = []
    for index in range(count):
        secure = await stack.secure_member(f"m{index}", offset + index)
        secure.on_event(tracker.callback)
        secure.join(GROUP)
        members.append(secure)
        expected = frozenset(m.me for m in members)
        if not await waiter.until(
            lambda: tracker.complete_members == expected, REKEY_TIMEOUT_S
        ):
            raise TimeoutError(f"secure group did not key at {index + 1} members")
        check_epoch(ctx, members)
    return members, tracker, waiter


def drain_secure(members: Sequence[SecureClient]) -> None:
    """Empty every queue of the secure stack (memory stays flat)."""
    for secure in members:
        secure.queue.clear()
        secure.flush.queue.clear()
        secure.flush.client.queue.clear()


def data_callback(ledger: Ledger, member: int, kind: type) -> Callable[[Any], None]:
    """An ``on_event`` callback feeding ``kind`` events (``DataEvent`` or
    ``SecureDataEvent``) of one member to the ledger."""
    def on_event(event: Any) -> None:
        if isinstance(event, kind):
            ledger.delivered_to(member, event.payload)
    return on_event
