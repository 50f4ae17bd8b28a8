"""The five workloads.

Each runs in a fresh interpreter, on one thread: the daemons, the
clients and the load generator of a ``*_tcp`` workload share one asyncio
loop, so the numbers are CPU cost per operation and layer self times can
add up to the busy time.  Each function sets its stack up, warms it,
stamps ``setup_s`` at the first timed operation, measures for
``ctx.seconds`` and returns a :class:`Result`.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cliques.directory import KeyDirectory
from repro.crypto.cipher_cache import default_cache as cipher_cache
from repro.crypto.dh import DHParams
from repro.errors import NoGroupKeyError, SendBlockedError
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.secure.events import SecureDataEvent
from repro.secure.session import CryptoCostModel, SecureClient
from repro.sim.kernel import Kernel
from repro.sim.rng import stable_seed
from repro.spread.client import SpreadClient
from repro.spread.config import SpreadConfig
from repro.spread.daemon import SpreadDaemon
from repro.spread.events import DataEvent
from repro.spread.flush import FlushClient
from repro.spread.membership import STATE_OP
from repro.types import ServiceType

from .harness import (
    DAEMONS,
    GROUP,
    REKEY_TIMEOUT_S,
    UNTRACED_WINDOWS,
    WARMUP_CYCLES,
    WINDOWS,
    Context,
    Ledger,
    Payloads,
    PhaseWindows,
    Span,
    TcpStack,
    ViewTracker,
    Waiter,
    check_epoch,
    clock,
    closed_loop,
    data_callback,
    drain_outstanding,
    drain_secure,
    join_plain_group,
    join_secure_group,
    median,
    new_secure_client,
    peak_rss_mb,
    percentile,
)
from .metrics import MODULES

SEALED_BYTES = 256
SEALED_OUTSTANDING = 32
SEALED_WARMUP = 400           # messages (about a second of load)
PLAIN_BYTES = 200
PLAIN_OUTSTANDING = 64
PLAIN_WARMUP = 1500
BULK_BYTES = 512 * 1024
BULK_OUTSTANDING = 3
BULK_WARMUP = 45
CHURN_SEND_RATE = 60.0        # sealed sends per second, open loop
CHURN_GAP_S = 0.4             # idle time between churn cycles
CHURN_RETRY_S = 0.001         # a refused send is retried this often
SIM_MEMBERS = 16
SIM_MEMBERS_SMOKE = 8
SIM_EXP_COST = 0.0025         # the paper's Pentium II, 512-bit modulus
SIM_EXACT_CYCLES = 5          # timed cycles the exact per-cycle counts cover


@dataclass
class Result:
    """What a workload measured.  ``ops`` counts the timed phase's
    operations; ``traced_ops`` those of its traced part."""

    setup_s: float
    rss_ready_mb: float   # ru_maxrss at the first timed operation
    ops: float
    lifetime_ops: float   # since the clients connected (warm-up included)
    ops_per_s: float
    op_p50_ms: float
    cpu_busy_share: float
    traced_ops: float
    traced_ops_per_s: float
    untraced_ops_per_s: float
    window_rates: List[float]
    mean_ops_per_s: float
    named: Dict[str, float] = field(default_factory=dict)
    tails: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)


class Headline:
    """The phase's figures: median-window rate, all-sample medians.  In
    the traced run only the windows that ran with the wrappers in count."""

    def __init__(self, ctx: Context, windows: PhaseWindows, op_sample: str) -> None:
        self.windows = windows
        self.measured = range(UNTRACED_WINDOWS if ctx.traced else 0, WINDOWS)
        self.op_sample = op_sample

    def p50(self, sample: str) -> float:
        return median(self.windows.values(sample, self.measured))

    def tail(self, sample: str, q: float) -> float:
        return percentile(self.windows.values(sample, self.measured), q)

    def count(self, sample: str) -> int:
        return len(self.windows.values(sample, self.measured))

    def fields(self) -> Dict[str, Any]:
        windows, measured = self.windows, self.measured
        traced = range(UNTRACED_WINDOWS, WINDOWS)
        return {
            "ops_per_s": windows.rate(measured),
            "op_p50_ms": self.p50(self.op_sample),
            "mean_ops_per_s": (
                sum(windows.amounts[i] for i in measured)
                / (windows.width * len(measured))
            ),
            "traced_ops": sum(windows.amounts[i] for i in traced),
            "traced_ops_per_s": windows.rate(traced),
            "untraced_ops_per_s": windows.rate(range(UNTRACED_WINDOWS)),
            "window_rates": windows.rates(),
        }


def _wire_counts(before: Dict[str, float], after: Dict[str, float],
                 ops: float) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    return {
        "transport.wire.frames_per_op": delta["frames"] / ops,
        "transport.wire.bytes_per_op": delta["bytes"] / ops,
        "transport.wire.rejects": after["rejects"],
        "spread.daemon.pack_ratio": (
            delta["packed_messages"] / delta["packed_datagrams"]
            if delta["packed_datagrams"] else 1.0
        ),
        "spread.daemon.mean_run_length": (
            delta["delivered_in_runs"] / delta["delivery_runs"]
            if delta["delivery_runs"] else 1.0
        ),
        "spread.ordering.retransmits_per_kop": 1000.0 * delta["retransmissions"] / ops,
    }


def _cipher_hit_ratio() -> float:
    stats = cipher_cache().stats()
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


# -- the three closed-loop floods -----------------------------------------------------


async def _flood(
    ctx: Context,
    stack: TcpStack,
    ledger: Ledger,
    send_from: Callable[[int, bytes], None],
    senders: Sequence[int],
    limit: int,
    drain: Callable[[], None],
    amount_per_delivery: float,
    rate_name: str,
    warmup_messages: int,
) -> Result:
    """Warm up, then keep ``limit`` messages outstanding for the timed
    phase.  ``send_from(sender, payload)`` makes one library send."""
    turn = itertools.cycle(senders)
    dirty: set = set()

    def send_next() -> None:
        sender = next(turn)
        op, payload = ledger.next_message(sender, clock())
        with Span(ctx, "op.send", op):
            send_from(sender, payload)
        dirty.add(sender)

    async def after_sends() -> None:
        # Socket backpressure: await the write buffers of whoever sent.
        for sender in dirty:
            await stack.clients[sender].flush_writes()
        dirty.clear()

    # Warm-up is a fixed number of messages, not of seconds, so that what
    # the stack holds at the first timed operation does not depend on how
    # fast it is.
    await closed_loop(ctx, ledger, send_next, limit,
                      lambda: ledger.progress >= warmup_messages,
                      after_sends, drain)
    ledger.reset_measurements()
    before = stack.counters()
    start = clock()
    setup_s = start - ctx.started
    rss_ready = peak_rss_mb()
    windows = ledger.windows = PhaseWindows(start, ctx.seconds)
    ledger.amount_per_delivery = amount_per_delivery
    end = start + ctx.seconds
    cpu = -time.process_time()
    await closed_loop(ctx, ledger, send_next, limit, lambda: clock() >= end,
                      after_sends, drain, traceable=True)
    cpu += time.process_time()
    wall = clock() - start
    ledger.close()
    after = stack.counters()
    if after["rejects"]:
        ctx.fail(f"transport.wire.rejects = {after['rejects']}")
    ops = ledger.delivered * amount_per_delivery
    headline = Headline(ctx, windows, "delivery")
    fields = headline.fields()
    counts = _wire_counts(before, after, ops)
    counts["crypto.cipher_cache.hit_ratio"] = _cipher_hit_ratio()
    return Result(
        setup_s=setup_s,
        rss_ready_mb=rss_ready,
        ops=ops,
        lifetime_ops=ledger.delivered_total * amount_per_delivery,
        cpu_busy_share=cpu / wall,
        named={rate_name: fields["ops_per_s"],
               "delivery_p50_ms": fields["op_p50_ms"]},
        tails={"delivery_p99_ms": headline.tail("delivery", 0.99)},
        counts=counts,
        samples={"deliveries": ledger.delivered, "messages": ledger.completed},
        **fields,
    )


async def sealed_flood_tcp(ctx: Context) -> Result:
    stack = TcpStack(ctx)
    await stack.start()
    try:
        members, _, _ = await join_secure_group(stack, 4)
        ledger = Ledger(ctx, 4, 4, Payloads(ctx.rng("payload"), SEALED_BYTES, 64))
        for index, secure in enumerate(members):
            secure.on_event(data_callback(ledger, index, SecureDataEvent))
        senders = list(range(4))
        ctx.rng("senders").shuffle(senders)
        return await _flood(
            ctx, stack, ledger,
            lambda sender, payload: members[sender].send(GROUP, payload),
            senders, SEALED_OUTSTANDING, lambda: drain_secure(members),
            1.0, "sealed_delivered_per_s", SEALED_WARMUP,
        )
    finally:
        await stack.stop()


async def _plain_flood(ctx: Context, size: int, pool: int, limit: int,
                       amount: float, rate_name: str, warmup: int) -> Result:
    stack = TcpStack(ctx)
    await stack.start()
    try:
        rng = ctx.rng("placement")
        offset = rng.randrange(len(DAEMONS))
        clients = [
            await stack.connect(f"p{i}", offset + i) for i in range(len(DAEMONS))
        ]
        await join_plain_group(clients)
        ledger = Ledger(ctx, 3, 3, Payloads(ctx.rng("payload"), size, pool))
        for index, client in enumerate(clients):
            client.on_event(data_callback(ledger, index, DataEvent))
        senders = list(range(3))
        rng.shuffle(senders)

        def drain() -> None:
            for client in clients:
                client.queue.clear()

        return await _flood(
            ctx, stack, ledger,
            lambda sender, payload: clients[sender].multicast(
                ServiceType.AGREED, GROUP, payload
            ),
            senders, limit, drain, amount, rate_name, warmup,
        )
    finally:
        await stack.stop()


async def plain_flood_tcp(ctx: Context) -> Result:
    return await _plain_flood(
        ctx, PLAIN_BYTES, 64, PLAIN_OUTSTANDING, 1.0, "delivered_msgs_per_s",
        PLAIN_WARMUP,
    )


async def bulk_tcp(ctx: Context) -> Result:
    return await _plain_flood(
        ctx, BULK_BYTES, 4, BULK_OUTSTANDING, BULK_BYTES / 1e6,
        "delivered_mb_per_s", BULK_WARMUP,
    )


# -- churn over TCP: open-loop traffic while a member joins and leaves ---------------


class _ChurnTcp:
    """Four resident members, one churner, and an open-loop generator of
    sealed sends, all on the deployment's loop."""

    def __init__(self, ctx: Context, stack: TcpStack,
                 residents: List[SecureClient], tracker: ViewTracker,
                 waiter: Waiter) -> None:
        self.ctx = ctx
        self.stack = stack
        self.residents = residents
        self.resident_set = frozenset(m.me for m in residents)
        self.tracker = tracker
        self.waiter = waiter
        rng = ctx.rng("traffic")
        self.payloads = Payloads(ctx.rng("payload"), SEALED_BYTES, 64)
        self.ledger = Ledger(ctx, 4, 4, self.payloads)
        for index, secure in enumerate(residents):
            secure.on_event(data_callback(self.ledger, index, SecureDataEvent))
        self.senders = list(range(4))
        rng.shuffle(self.senders)
        self.first_daemon = rng.randrange(len(DAEMONS))
        self.counters = [m.counter for m in residents]  # every member ever
        self.stop = asyncio.Event()
        #: ``None`` while warming up: cycles and sends are not recorded.
        self.windows: Optional[PhaseWindows] = None
        self.cycle_exps: List[int] = []
        self.lateness: List[float] = []
        self.no_key_ms: List[float] = []
        self.refused = 0
        self.sent = 0

    def drain(self) -> None:
        drain_secure(self.residents)

    def _check_churner_plaintext(self, event: Any) -> None:
        if isinstance(event, SecureDataEvent) and not self.payloads.intact(
            event.payload
        ):
            self.ctx.fail("churner: wrong plaintext")

    async def _rekeyed(self, members: frozenset, what: str) -> bool:
        if await self.waiter.until(
            lambda: self.tracker.complete_members == members, REKEY_TIMEOUT_S
        ):
            return True
        self.ctx.fail(f"{what} rekey did not converge in {REKEY_TIMEOUT_S:.0f} s")
        self.stop.set()
        return False

    async def cycle(self, index: int) -> None:
        """Connect to the next daemon, join, wait until all five are
        keyed, leave, wait until the four are re-keyed, close."""
        ctx, tracker = self.ctx, self.tracker
        began = clock()
        secure = await self.stack.secure_member(
            f"c{index}", self.first_daemon + index
        )
        secure.on_event(tracker.callback)
        secure.on_event(self._check_churner_plaintext)
        self.counters.append(secure.counter)
        exps = -sum(c.total for c in self.counters)
        ctx.attempted += 2
        started = clock()
        with Span(ctx, "op.rekey", index + 1):
            secure.join(GROUP)
        if not await self._rekeyed(self.resident_set | {secure.me}, "join"):
            return
        joined = 1000.0 * (tracker.complete_at - started)
        check_epoch(ctx, self.residents + [secure])
        started = clock()
        with Span(ctx, "op.rekey", index + 1):
            secure.leave(GROUP)
        if not await self._rekeyed(self.resident_set, "leave"):
            return
        left = 1000.0 * (tracker.complete_at - started)
        check_epoch(ctx, self.residents)
        exps += sum(c.total for c in self.counters)
        await self.stack.close_client(secure.flush.client)
        windows = self.windows
        if windows is not None:
            now = clock()
            windows.sample(now, "join", joined)
            windows.sample(now, "leave", left)
            windows.sample(now, "cycle", joined + left)
            windows.add_interval(began, now + CHURN_GAP_S, 1.0)
            self.cycle_exps.append(exps)

    async def churn(self) -> None:
        for index in itertools.count():
            if self.stop.is_set():
                return
            await self.cycle(index)
            try:
                await asyncio.wait_for(self.stop.wait(), CHURN_GAP_S)
            except asyncio.TimeoutError:
                pass

    async def generate(self, start: float, seconds: float,
                       traceable: bool = False) -> None:
        """Open loop: message k is due at ``start + k / rate`` whatever
        the system does.  A refused send is retried every millisecond;
        its latency still counts from the due time."""
        ctx, ledger = self.ctx, self.ledger
        end = start + seconds
        free_at = start  # when the previous message was accepted
        for k in itertools.count():
            due = start + k / CHURN_SEND_RATE
            if due >= end or self.stop.is_set():
                return
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            if traceable and ctx.trace_due(start):
                ctx.start_tracing()
            with Span(ctx, "gen.turn"):
                if free_at <= due:  # not queued behind a refused send
                    self.lateness.append(clock() - due)
                self.drain()
            sender = self.senders[k % len(self.senders)]
            refused_at = 0.0
            while True:
                op, payload = ledger.next_message(sender, due)
                try:
                    with Span(ctx, "op.send", op):
                        self.residents[sender].send(GROUP, payload)
                    break
                except (NoGroupKeyError, SendBlockedError):
                    ledger.unsend(sender)
                    if not refused_at:
                        refused_at = clock()
                        self.refused += 1
                    await asyncio.sleep(CHURN_RETRY_S)
            free_at = clock()
            self.sent += 1
            if refused_at:
                self.no_key_ms.append(1000.0 * (free_at - refused_at))


async def churn_tcp(ctx: Context) -> Result:
    stack = TcpStack(ctx)
    await stack.start()
    try:
        residents, tracker, waiter = await join_secure_group(stack, 4)
        run = _ChurnTcp(ctx, stack, residents, tracker, waiter)
        ledger = run.ledger
        churner = asyncio.ensure_future(run.churn())
        # Warm-up: the first cycles and their traffic are discarded.
        warm = asyncio.ensure_future(run.generate(clock(), 3600.0))
        warm_cycles = tracker.completions + 2 * WARMUP_CYCLES
        while tracker.completions < warm_cycles and not run.stop.is_set():
            await asyncio.sleep(0.01)
        warm.cancel()
        await asyncio.gather(warm, return_exceptions=True)
        await drain_outstanding(ledger, run.drain)
        ledger.reset_measurements()
        run.lateness.clear()
        run.no_key_ms.clear()
        run.refused = run.sent = 0

        before = stack.counters()
        start = clock()
        setup_s = start - ctx.started
        rss_ready = peak_rss_mb()
        windows = run.windows = ledger.windows = PhaseWindows(start, ctx.seconds)
        ledger.amount_per_delivery = 0.0  # the operation here is the cycle
        cpu = -time.process_time()
        await run.generate(start, ctx.seconds, traceable=True)
        cpu += time.process_time()
        wall = clock() - start
        ctx.stop_tracing()
        run.windows = None
        run.stop.set()
        await churner
        await drain_outstanding(ledger, run.drain)
        ledger.close()
        after = stack.counters()
        if after["rejects"]:
            ctx.fail(f"transport.wire.rejects = {after['rejects']}")
        cycles = len(run.cycle_exps)
        if not cycles:
            ctx.fail("no churn cycle completed in the timed phase")

        headline = Headline(ctx, windows, "cycle")
        counts = _wire_counts(before, after, max(1, cycles))
        counts.update({
            "crypto.cipher_cache.hit_ratio": _cipher_hit_ratio(),
            "keyagree.exps_per_cycle": median(run.cycle_exps),
            "secure.session.send_refused_share": (
                run.refused / run.sent if run.sent else 0.0
            ),
            "secure.session.no_key_ms_p50": median(run.no_key_ms),
            "generator.lateness_p99_ms": 1000.0 * percentile(run.lateness, 0.99),
        })
        return Result(
            setup_s=setup_s,
            rss_ready_mb=rss_ready,
            ops=cycles,
            lifetime_ops=cycles,
            cpu_busy_share=cpu / wall,
            named={
                "delivery_p50_ms": headline.p50("delivery"),
                "rekey_join_p50_ms": headline.p50("join"),
                "rekey_leave_p50_ms": headline.p50("leave"),
            },
            tails={
                "delivery_p99_ms": headline.tail("delivery", 0.99),
                "rekey_join_p95_ms": headline.tail("join", 0.95),
                "rekey_leave_p95_ms": headline.tail("leave", 0.95),
            },
            counts=counts,
            samples={"cycles": cycles, "deliveries": ledger.delivered,
                     "messages": run.sent, "refused_sends": run.refused},
            **headline.fields(),
        )
    finally:
        await stack.stop()


# -- churn on the simulator: the paper's experiment ------------------------------------


class SimGroup:
    """The paper's deployment for one key-agreement module: three
    simulated daemons on 100BaseT, member 0 on d0, member 1 on d1, the
    rest on d2, 2.5 ms of virtual time charged per exponentiation."""

    def __init__(self, ctx: Context, module: str, size: int) -> None:
        self.ctx = ctx
        self.module = module
        self.kernel = Kernel(seed=stable_seed(ctx.seed, "sim", module))
        self.network = Network(
            self.kernel, default_link=LinkModel.ethernet_100base_t()
        )
        config = SpreadConfig(daemons=DAEMONS)
        self.daemons = {}
        for name in DAEMONS:
            daemon = SpreadDaemon(self.kernel, name, self.network, config)
            daemon.start()
            self.daemons[name] = daemon
        self.kernel.run_until(self._daemons_settled, timeout=30.0)
        self.params = DHParams.paper_512()
        self.directory = KeyDirectory()
        self.cost_model = CryptoCostModel(exp_cost=SIM_EXP_COST)
        self.tracker = ViewTracker(ctx)
        self.members: List[SecureClient] = []
        self.counters = []
        self._names = itertools.count()
        for _ in range(size):
            self.join()

    def _daemons_settled(self) -> bool:
        daemons = list(self.daemons.values())
        return len({d.view for d in daemons}) == 1 and all(
            d.engine.state == STATE_OP for d in daemons
        )

    def _await_view(self, what: str) -> bool:
        expected = frozenset(m.me for m in self.members)
        try:
            self.kernel.run_until(
                lambda: self.tracker.complete_members == expected,
                timeout=REKEY_TIMEOUT_S,
            )
        except Exception as exc:  # DeadlockError: the rekey never converged
            self.ctx.fail(f"{self.module}: {what} rekey did not converge ({exc})")
            return False
        check_epoch(self.ctx, self.members)
        return True

    def join(self) -> bool:
        index = next(self._names)
        daemon = DAEMONS[min(index, 2)]  # m0 -> d0, m1 -> d1, the rest -> d2
        raw = SpreadClient(self.kernel, f"m{index}", self.daemons[daemon])
        raw.connect()
        secure = new_secure_client(
            self.ctx, FlushClient(raw, auto_flush=False),
            f"{self.module}-m{index}", self.params, self.directory,
            cost_model=self.cost_model,
        )
        secure.on_event(self.tracker.callback)
        self.counters.append(secure.counter)
        self.members.append(secure)
        with Span(self.ctx, "op.rekey", index + 1):
            secure.join(GROUP, module=self.module)
            return self._await_view("join")

    def leave_newest(self) -> bool:
        leaver = self.members.pop()
        with Span(self.ctx, "op.rekey", len(self.counters)):
            leaver.leave(GROUP)
            ok = self._await_view("leave")
        leaver.disconnect()
        self.kernel.run(until=self.kernel.now + 0.01)
        return ok

    def _totals(self) -> Dict[str, float]:
        return {
            "exps": sum(c.total for c in self.counters),
            "datagrams": self.network.datagrams_sent,
            "bytes": self.network.bytes_sent,
            "events": self.kernel.events_processed,
            "virtual_ms": 1000.0 * self.kernel.now,
        }

    def cycle(self) -> Dict[str, float]:
        """The newest member leaves, a new one joins; returns the wall
        time and the exact counts of the cycle."""
        self.ctx.attempted += 2
        for secure in self.members:   # keep memory flat
            secure.queue.clear()
            secure.flush.queue.clear()
            secure.flush.client.queue.clear()
        before = self._totals()
        began = clock()
        self.leave_newest()
        self.join()
        ended = clock()
        after = self._totals()
        out = {key: after[key] - before[key] for key in after}
        out["began"], out["ended"] = began, ended
        out["wall_ms"] = 1000.0 * (ended - began)
        return out


def churn_sim(ctx: Context) -> Result:
    size = SIM_MEMBERS_SMOKE if ctx.smoke else SIM_MEMBERS
    groups = {module: SimGroup(ctx, module, size) for module in MODULES}
    for _ in range(WARMUP_CYCLES):
        for group in groups.values():
            group.cycle()
    start = clock()
    setup_s = start - ctx.started
    rss_ready = peak_rss_mb()
    windows = PhaseWindows(start, ctx.seconds)
    cycles: Dict[str, List[Dict[str, float]]] = {m: [] for m in MODULES}
    cpu = -time.process_time()
    end = start + ctx.seconds
    # One round = one cycle under each module, so a disturbance of the
    # box falls on all three alike.
    while clock() < end:
        if ctx.trace_due(start):
            ctx.start_tracing()
        total = 0.0
        for module, group in groups.items():
            cycle = group.cycle()
            cycles[module].append(cycle)
            windows.add_interval(cycle["began"], cycle["ended"], 1.0)
            windows.sample(cycle["ended"], f"cycle.{module}", cycle["wall_ms"])
            total += cycle["wall_ms"]
        windows.sample(clock(), "cycle", total / len(MODULES))
    cpu += time.process_time()
    wall = clock() - start
    ctx.stop_tracing()

    headline = Headline(ctx, windows, "cycle")
    named, tails, counts = {}, {}, {}
    for module, rows in cycles.items():
        named[f"cycle_ms_p50.{module}"] = headline.p50(f"cycle.{module}")
        tails[f"cycle_ms_p95.{module}"] = headline.tail(f"cycle.{module}", 0.95)
        for key, metric in (
            ("exps", "keyagree.exps_per_cycle"),
            ("datagrams", "net.network.datagrams_per_cycle"),
            ("bytes", "net.network.bytes_per_cycle"),
            ("events", "sim.kernel.events_per_cycle"),
            ("virtual_ms", "sim.virtual_ms_per_cycle"),
        ):
            # The first cycles only: every run has them, however many
            # more it fits in, so the same seed gives the same figure.
            exact = rows[:SIM_EXACT_CYCLES]
            counts[f"{metric}.{module}"] = sum(r[key] for r in exact) / len(exact)
        if len({row["exps"] for row in rows}) != 1:
            ctx.fail(
                f"{module}: exponentiations per cycle vary:"
                f" {sorted({row['exps'] for row in rows})}"
            )
    ops = sum(len(rows) for rows in cycles.values())
    return Result(
        setup_s=setup_s,
        rss_ready_mb=rss_ready,
        ops=ops,
        lifetime_ops=ops,
        cpu_busy_share=cpu / wall,
        named=named,
        tails=tails,
        counts=counts,
        samples={"cycles": ops, "rounds": headline.count("cycle")},
        **headline.fields(),
    )


WORKLOADS: Dict[str, Callable[[Context], Any]] = {
    "sealed_flood_tcp": sealed_flood_tcp,
    "plain_flood_tcp": plain_flood_tcp,
    "bulk_tcp": bulk_tcp,
    "churn_tcp": churn_tcp,
    "churn_sim": churn_sim,
}
