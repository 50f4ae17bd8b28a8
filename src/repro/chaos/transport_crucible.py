"""The transport crucible: the chaos harness over real sockets.

:mod:`repro.chaos.harness` proves the secure-Spread stack against the
*simulated* adversary; this module is the same drill against the
asyncio TCP backend: real daemons (:class:`~repro.transport.host
.DaemonHost`), real clients (:class:`~repro.transport.client
.TcpSpreadClient`) and real sockets, with every inter-daemon and
client link routed through a :class:`~repro.transport.netem.NetemLink`
so a seeded :class:`~repro.transport.netem.NetemSchedule` can shape,
stall, blackhole, corrupt and reset the wires mid-protocol.

One run is: bring up N daemons (one host each, so every peer pair gets
its own shaped link), establish a secure group through shaped client
links, arm a WAN schedule derived from the seed, keep application
traffic flowing through the storm, then let the schedule self-repair,
wait for wall-clock quiescence, probe, and hand the shared
:class:`~repro.obs.bus.TraceBus` to the *same*
:class:`~repro.chaos.invariants.InvariantChecker` the sim crucible
uses — view synchrony, key agreement, secrecy and convergence hold (or
not) over real sockets exactly as over the sim network.

Determinism is schedule-level, not byte-level: wall-clock timing and
kernel chunking vary run to run, but the schedule (every fault, its
time, its targets) derives purely from the seed, so a failing seed
replays the same fault sequence and is expected to reach the same
invariant verdict (``tests/chaos/test_transport_crucible.py`` pins
this).

CLI::

    PYTHONPATH=src python -m repro.chaos.transport_crucible \
        --seeds 3 --module cliques --quick --dump-dir /tmp/tcru
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.invariants import EndState, InvariantChecker, InvariantReport
from repro.cliques.directory import KeyDirectory
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.errors import ReproError
from repro.obs import MetricsRegistry, TraceBus, collect_session, collect_transport
from repro.obs.metrics import collect_netem
from repro.secure.events import SecureDataEvent, SecureMembershipEvent
from repro.secure.session import SecureClient
from repro.sim.rng import DeterministicRng, stable_seed
from repro.spread.config import SpreadConfig
from repro.spread.flush import FlushClient
from repro.transport.client import TcpSpreadClient
from repro.transport.host import DaemonHost, wait_for_condition
from repro.transport.netem import ALL_LINKS, NetemSchedule, NetemWorld

MODULES = ("cliques", "ckd", "tgdh")

GROUP = "crucible"

#: Real-time daemon timers (the daemon CLI's defaults): tight enough
#: that blackhole windows trip failure detection, loose enough that a
#: loaded CI worker does not.
HELLO_INTERVAL = 0.25
FAIL_TIMEOUT = 1.5

CHAOS_LEAD_IN = 0.3
QUIESCE_TIMEOUT = 45.0
PROBE_TIMEOUT = 20.0

#: Disruptions a WAN window may contain (see generate_wan_schedule).
WAN_WINDOW_KINDS = ("asym", "reset", "stall", "blackhole", "corrupt", "quiet")


class _SecureMember:
    """One SecureClient riding a TcpSpreadClient."""

    def __init__(self, name: str, client: TcpSpreadClient, secure: SecureClient):
        self.name = name
        self.client = client
        self.secure = secure

    def view_of(self, group: str) -> set:
        events = [
            e for e in self.secure.queue
            if isinstance(e, SecureMembershipEvent) and str(e.group) == group
        ]
        return {str(m) for m in events[-1].members} if events else set()


def peer_link_name(dialer: str, target: str) -> str:
    """The netem link carrying ``dialer``'s outbound peer connection."""
    return f"peer:{dialer}>{target}"


def client_link_name(member: str) -> str:
    return f"client:{member}"


@dataclass
class TransportChaosResult:
    """Verdict and evidence for one seeded transport-crucible run."""

    seed: int
    module: str
    ok: bool
    violations: List[str]
    stats: Dict[str, int]
    schedule: List[str]
    netem: Dict[str, int]
    transport: Dict[str, int]
    traffic_sent: int
    traffic_blocked: int
    wall_time: float
    report: InvariantReport = field(repr=False, default=None)
    schedule_obj: NetemSchedule = field(repr=False, default=None)

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "module": self.module,
            "ok": self.ok,
            "violations": self.violations,
            "stats": self.stats,
            "schedule": self.schedule,
            "netem": self.netem,
            "transport": self.transport,
            "traffic_sent": self.traffic_sent,
            "traffic_blocked": self.traffic_blocked,
            "wall_time_s": round(self.wall_time, 3),
        }


class TransportCrucible:
    """A live multi-daemon deployment with every wire netem-shaped.

    Each daemon runs in its own :class:`DaemonHost` with its own
    :class:`~repro.transport.tcp.TransportMap`, so the address a daemon
    dials for a peer can differ per dialer — which is how every ordered
    pair ``a → b`` gets its own independently-shapeable proxy.  All
    hosts share one asyncio loop and one :class:`TraceBus` (the first
    host's clock becomes the bus's time base), so the collected trace
    is totally ordered across the whole deployment.
    """

    def __init__(
        self,
        seed: int,
        module: str,
        member_count: int = 3,
        daemon_count: int = 3,
        trace_cap: Optional[int] = None,
    ) -> None:
        if module not in MODULES:
            raise ValueError(f"unknown key agreement module {module!r}")
        self.seed = seed
        self.module = module
        self.member_count = member_count
        self.daemon_names = tuple(f"d{i}" for i in range(daemon_count))
        self.tracer = TraceBus(
            enabled=True,
            keep=lambda kind: kind != "kernel.event",
            max_events=trace_cap,
        )
        self.registry = MetricsRegistry()
        self.tracer.attach_metrics(self.registry)
        self.rng = DeterministicRng(
            stable_seed("tcrucible", seed, module), label="tcrucible"
        )
        self.config = SpreadConfig(
            daemons=self.daemon_names,
            hello_interval=HELLO_INTERVAL,
            fail_timeout=FAIL_TIMEOUT,
            gather_timeout=FAIL_TIMEOUT * 2,
            sync_timeout=FAIL_TIMEOUT * 4,
        )
        self.hosts: Dict[str, DaemonHost] = {}
        self.netem = NetemWorld(
            seed=stable_seed("tcrucible-netem", seed, module),
            tracer=self.tracer,
        )
        self.members: Dict[str, _SecureMember] = {}
        self.params = DHParams.tiny_test()
        self.directory = KeyDirectory()
        self.traffic_sent = 0
        self.traffic_blocked = 0
        self._traffic_task: Optional[asyncio.Task] = None

    @property
    def clock(self):
        return self.hosts[self.daemon_names[0]].clock

    def _all_daemons(self):
        return [
            host.daemons[name]
            for name, host in self.hosts.items()
        ]

    # -- deployment --------------------------------------------------------

    async def start(self) -> None:
        """Bind one host per daemon, wire every peer pair through its
        own netem link, and wait for the daemons to converge."""
        for index, name in enumerate(self.daemon_names):
            host = DaemonHost(
                self.config,
                hosted=(name,),
                tracer=self.tracer,
                seed=stable_seed("tcrucible-host", self.seed, name),
            )
            await host.start()
            self.hosts[name] = host
        # Peer links after the listeners exist; the proxy address lands
        # in the *dialer's* map only, so a → b and b → a are distinct
        # shapeable wires.  Targets stay lazy callables regardless —
        # that is also the contract _PeerChannel relies on for late
        # registration.
        for dialer in self.daemon_names:
            for target in self.daemon_names:
                if dialer == target:
                    continue
                address = await self.netem.open_link(
                    peer_link_name(dialer, target),
                    self._peer_target(target),
                )
                self.hosts[dialer].addresses.set_peer(target, *address)
        await self.settle()

    def _peer_target(self, target: str):
        host = self.hosts[target]
        return lambda: host.addresses.peer(target)

    def _client_target(self, daemon: str):
        host = self.hosts[daemon]
        return lambda: host.addresses.client(daemon)

    async def settle(self, timeout: float = 30.0) -> None:
        """All daemons alive, one shared OP view over every daemon."""
        from repro.spread.membership import STATE_OP

        def converged() -> bool:
            daemons = [d for d in self._all_daemons() if d.alive]
            if len(daemons) != len(self.daemon_names):
                return False
            views = {d.view for d in daemons}
            if len(views) != 1:
                return False
            if any(d.engine.state != STATE_OP for d in daemons):
                return False
            return set(daemons[0].view_members) >= set(self.daemon_names)

        await wait_for_condition(converged, timeout)

    # -- the secure group --------------------------------------------------

    def placement(self, index: int) -> str:
        return self.daemon_names[index % len(self.daemon_names)]

    async def add_member(self, name: str, daemon: str) -> _SecureMember:
        """One SecureClient over a TcpSpreadClient, dialing the daemon
        through a dedicated netem link, heartbeat liveness armed."""
        address = await self.netem.open_link(
            client_link_name(name), self._client_target(daemon)
        )
        client = TcpSpreadClient(
            address,
            name,
            clock=self.clock,
            backoff_base=0.05,
            backoff_cap=1.0,
            connect_timeout=1.0,
            heartbeat_group=f"hb-{name}",
            heartbeat_interval=HELLO_INTERVAL,
            liveness_timeout=FAIL_TIMEOUT * 2,
        )
        await client.connect()
        source = DeterministicSource(stable_seed("tcrucible-key", self.seed, name))
        secure = SecureClient(
            flush=FlushClient(client, auto_flush=False),
            params=self.params,
            long_term=DHKeyPair.generate(self.params, source),
            directory=self.directory,
            random_source=source,
        )
        secure.publish_key()
        secure.join(GROUP, module=self.module)
        member = _SecureMember(name, client, secure)
        self.members[name] = member
        return member

    async def establish_group(self, timeout: float = 60.0) -> List[str]:
        """Bring up the initial secure group (pre-chaos, clean wires)."""
        names = []
        for index in range(self.member_count):
            name = f"m{index}"
            await self.add_member(name, self.placement(index))
            names.append(name)
            expected = {
                str(m.client.pid) for m in self.members.values()
            }

            def keyed() -> bool:
                return all(
                    m.view_of(GROUP) == expected and m.secure.has_key(GROUP)
                    for m in self.members.values()
                )

            await wait_for_condition(keyed, timeout)
        return names

    # -- background traffic ------------------------------------------------

    def start_traffic(self, period: float = 0.15) -> None:
        """Application sends through the whole storm, rotating over
        members; sends the secure layer refuses (no key yet, flush in
        progress, connection down) are counted and skipped."""

        async def pump() -> None:
            counter = 0
            while True:
                await asyncio.sleep(period)
                current = sorted(self.members)
                if not current:
                    continue
                sender = current[counter % len(current)]
                counter += 1
                payload = f"app:{sender}:{counter}".encode()
                try:
                    self.members[sender].secure.send(GROUP, payload)
                    self.traffic_sent += 1
                except ReproError:
                    self.traffic_blocked += 1

        self._traffic_task = asyncio.get_running_loop().create_task(
            pump(), name="tcrucible.traffic"
        )

    async def stop_traffic(self) -> None:
        task = self._traffic_task
        self._traffic_task = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # -- convergence and probing -------------------------------------------

    async def wait_quiescence(
        self, timeout: float = QUIESCE_TIMEOUT
    ) -> Optional[str]:
        """Live daemons back in one OP view, every member keyed and not
        flushing; None on success, a description on timeout."""
        from repro.spread.membership import STATE_OP

        def converged() -> bool:
            daemons = [d for d in self._all_daemons() if d.alive]
            if not daemons:
                return False
            views = {d.view for d in daemons}
            if len(views) != 1 or any(
                d.engine.state != STATE_OP for d in daemons
            ):
                return False
            return all(
                m.secure.has_key(GROUP)
                and not m.secure.flush.flushing(GROUP)
                and m.client.connected
                for m in self.members.values()
            )

        try:
            await wait_for_condition(converged, timeout)
            return None
        except TimeoutError:
            views = {
                d.name: str(d.view) for d in self._all_daemons() if d.alive
            }
            keyed = {
                n: m.secure.has_key(GROUP) for n, m in self.members.items()
            }
            return (
                f"no quiescence within {timeout}s wall:"
                f" views={views} keyed={keyed}"
            )

    def _probe_counts(self) -> Dict[str, int]:
        counts = {}
        for name, member in self.members.items():
            seen = {
                bytes(e.payload)
                for e in member.secure.queue
                if isinstance(e, SecureDataEvent)
                and bytes(e.payload).startswith(b"probe:")
            }
            counts[name] = len(seen)
        return counts

    async def run_probes(self, timeout: float = PROBE_TIMEOUT) -> Optional[str]:
        """Every member multicasts a fresh probe over the healed wires;
        every member must receive all of them.  Probes are resent until
        they land: a single send can race a trailing watchdog rekey (the
        seal epoch retires before delivery and every receiver rejects
        it), and an application retrying over a healed network is exactly
        the recovery this checks.  Receivers count *distinct* payloads,
        so duplicates are harmless."""
        expected = len(self.members)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        next_send = loop.time()
        while True:
            counts = self._probe_counts()
            if all(count >= expected for count in counts.values()):
                return None
            if loop.time() >= deadline:
                return f"probe deliveries incomplete: {counts}"
            if loop.time() >= next_send:
                for name, member in sorted(self.members.items()):
                    try:
                        member.secure.send(GROUP, f"probe:{name}".encode())
                    except ReproError:
                        pass  # mid-reconnect or reflushing: next round
                next_send = loop.time() + 1.0
            await asyncio.sleep(0.05)

    async def drain_deliveries(
        self, timeout: float = PROBE_TIMEOUT
    ) -> Optional[str]:
        """Wait until every live daemon has delivered the same reliable
        set — the view-synchrony condition itself, polled from the shared
        trace.  Probe retries leave stragglers in flight; snapshotting
        mid-agreement would catch one daemon a few total-order slots
        ahead of another and misread the skew as a lost message."""

        def per_daemon() -> Dict[str, set]:
            sets: Dict[str, set] = {
                d.name: set() for d in self._all_daemons() if d.alive
            }
            for event in self.tracer.events:
                if event.kind != "daemon.deliver":
                    continue
                bucket = sets.get(event["me"])
                if bucket is not None:
                    bucket.add(
                        (event["view"], event["sender"], event["seq"])
                    )
            return sets

        def drained() -> bool:
            sets = list(per_daemon().values())
            return bool(sets) and all(s == sets[0] for s in sets[1:])

        try:
            await wait_for_condition(drained, timeout, interval=0.05)
            return None
        except TimeoutError:
            counts = {
                name: len(s) for name, s in sorted(per_daemon().items())
            }
            return f"reliable deliveries never converged: {counts}"

    # -- verdict -----------------------------------------------------------

    def end_state(self, failure: Optional[str]) -> EndState:
        views = {
            d.name: str(d.view) for d in self._all_daemons() if d.alive
        }
        keyed = {
            n: m.secure.has_key(GROUP) for n, m in self.members.items()
        }
        fingerprints = {}
        for name, member in self.members.items():
            session = member.secure.sessions.get(GROUP)
            if session is not None and session.has_key:
                fingerprints[name] = session._session_keys.fingerprint()
        return EndState(
            daemon_views=views,
            member_keyed=keyed,
            member_fingerprints=fingerprints,
            probes_expected=len(self.members),
            probes_received=self._probe_counts(),
            converged=failure is None,
            detail=failure or "",
        )

    def transport_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for host in self.hosts.values():
            for transport in host.transports.values():
                for key, value in transport.counters.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def collect_metrics(self) -> MetricsRegistry:
        registry = self.registry
        for name, member in self.members.items():
            session = member.secure.sessions.get(GROUP)
            if session is not None:
                collect_session(registry, name, GROUP, session)
            collect_transport(registry, member.client)
        for host in self.hosts.values():
            for transport in host.transports.values():
                collect_transport(registry, transport)
        collect_netem(registry, self.netem)
        return registry

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        await self.stop_traffic()
        for member in self.members.values():
            try:
                await member.client.close()
            except Exception:
                pass
        for host in self.hosts.values():
            await host.stop()
        await self.netem.close()


# ---------------------------------------------------------------------------
# schedule generation
# ---------------------------------------------------------------------------


def generate_wan_schedule(
    rng: DeterministicRng,
    start: float,
    end: float,
    daemons: Tuple[str, ...],
    members: Tuple[str, ...] = (),
    windows: int = 4,
) -> NetemSchedule:
    """Derive a randomized, self-repairing WAN fault schedule.

    The window opens with a base WAN shape on every link (latency +
    jitter + mild loss) and closes with a full clear plus a connection
    reset — anything still broken after ``end`` is the *stack's* fault,
    not the schedule's.  In between, 0..``windows`` disruptions:

    * ``asym``    — one-direction latency spike on a subset of peer wires
    * ``reset``   — RST every connection of a subset of links
    * ``stall``   — stalled-but-open sockets (half-open manufacture)
    * ``blackhole`` — a silent partition across a random daemon cut,
      healed and reset inside the window
    * ``corrupt`` — byte flips aimed at the frame decoder
    * ``quiet``   — a clean gap under the base WAN shape only
    """
    schedule = NetemSchedule()
    base = {
        "latency": round(rng.uniform(0.002, 0.015), 4),
        "jitter": round(rng.uniform(0.0, 0.01), 4),
        "loss": round(rng.uniform(0.0, 0.03), 4),
        "loss_penalty": 0.2,
    }
    peer_links = [
        peer_link_name(a, b) for a in daemons for b in daemons if a != b
    ]
    client_links = [client_link_name(m) for m in members]
    schedule.shape(start, (ALL_LINKS,), **base)
    span = end - start - 0.4
    cursor = start + 0.2
    for __ in range(windows):
        if cursor >= start + 0.2 + span:
            break
        duration = rng.uniform(0.4, min(1.0, max(0.41, span / windows)))
        duration = min(duration, start + 0.2 + span - cursor)
        kind = rng.choice(WAN_WINDOW_KINDS)
        shuffled = list(peer_links)
        rng.shuffle(shuffled)
        if kind == "asym":
            victims = shuffled[: rng.randint(1, max(1, len(shuffled) // 2))]
            schedule.shape(
                cursor, victims, direction="fwd",
                latency=round(rng.uniform(0.04, 0.1), 4),
            )
            schedule.shape(
                cursor + duration, victims, direction="fwd",
                latency=base["latency"],
            )
        elif kind == "reset":
            victims = shuffled[: rng.randint(1, len(shuffled))]
            if client_links and rng.random() < 0.5:
                victims.append(rng.choice(client_links))
            schedule.reset(cursor, victims)
        elif kind == "stall":
            victims = shuffled[: rng.randint(1, 2)]
            if client_links and rng.random() < 0.5:
                victims.append(rng.choice(client_links))
            schedule.stall(cursor, victims)
            schedule.resume(cursor + duration, victims)
        elif kind == "blackhole":
            names = list(daemons)
            rng.shuffle(names)
            cut = rng.randint(1, len(names) - 1)
            side_a, side_b = set(names[:cut]), set(names[cut:])
            severed = [
                peer_link_name(a, b)
                for a in daemons
                for b in daemons
                if a != b
                and (
                    (a in side_a and b in side_b)
                    or (a in side_b and b in side_a)
                )
            ]
            schedule.blackhole(cursor, severed)
            schedule.heal(cursor + duration, severed)
            # Blackholed bytes are gone (the proxy ACKed them), so the
            # frame streams across the cut are poisoned: reset them at
            # heal time and let reconnection rebuild clean streams.
            schedule.reset(cursor + duration, severed)
        elif kind == "corrupt":
            victims = shuffled[: rng.randint(1, 2)]
            schedule.shape(
                cursor, victims, corrupt=round(rng.uniform(0.01, 0.05), 4)
            )
            schedule.shape(cursor + duration, victims, corrupt=0.0)
        # "quiet": the base WAN shape only.
        cursor += duration + rng.uniform(0.1, 0.4)
    schedule.clear(end)
    schedule.reset(end)
    return schedule


# ---------------------------------------------------------------------------
# one run, end to end
# ---------------------------------------------------------------------------


async def _run_async(
    seed: int,
    module: str,
    quick: bool,
    schedule: Optional[NetemSchedule],
    trace_cap: Optional[int],
    dump_dir: Optional[str],
) -> TransportChaosResult:
    started = time.perf_counter()
    crucible = TransportCrucible(seed, module, trace_cap=trace_cap)
    try:
        await crucible.start()
        members = await crucible.establish_group()
        chaos_span = 2.5 if quick else 6.0
        start = crucible.clock.now + CHAOS_LEAD_IN
        end = start + chaos_span
        if schedule is None:
            schedule = generate_wan_schedule(
                crucible.rng.child("wan-schedule"),
                start,
                end,
                daemons=crucible.daemon_names,
                members=tuple(members),
                windows=2 if quick else 4,
            )
        crucible.netem.arm(schedule, crucible.clock)
        crucible.start_traffic()
        await asyncio.sleep(end - crucible.clock.now + 0.05)
        await crucible.stop_traffic()
        failure = await crucible.wait_quiescence()
        if failure is None:
            failure = await crucible.run_probes()
        if failure is None:
            failure = await crucible.drain_deliveries()
        end_state = crucible.end_state(failure)
        report = InvariantChecker(crucible.tracer.events).run(end_state)
        result = TransportChaosResult(
            seed=seed,
            module=module,
            ok=report.ok,
            violations=[str(v) for v in report.violations],
            stats=report.stats,
            schedule=schedule.describe(),
            netem=crucible.netem.counters_total(),
            transport=crucible.transport_totals(),
            traffic_sent=crucible.traffic_sent,
            traffic_blocked=crucible.traffic_blocked,
            wall_time=time.perf_counter() - started,
            report=report,
            schedule_obj=schedule,
        )
        if dump_dir is not None:
            from repro.obs.dump import DUMP_SCHEMA, dump_run

            registry = crucible.collect_metrics()
            dump_run(
                str(Path(dump_dir) / f"seed{seed}-{module}"),
                crucible.tracer.events,
                metrics=registry,
                meta={
                    "schema": DUMP_SCHEMA,
                    "crucible": "transport",
                    "seed": seed,
                    "module": module,
                    "ok": result.ok,
                    "violations": result.violations,
                    "netem": result.netem,
                    "wall_time_s": round(result.wall_time, 3),
                },
            )
        return result
    finally:
        await crucible.close()


def run_transport_chaos(
    seed: int,
    module: str,
    quick: bool = False,
    schedule: Optional[NetemSchedule] = None,
    trace_cap: Optional[int] = None,
    dump_dir: Optional[str] = None,
) -> TransportChaosResult:
    """Execute one seeded transport-chaos run and return its verdict.

    With ``schedule`` given, the generated one is replaced (the replay
    path); every other seeded stream is unchanged, so the run around
    the schedule repeats the same fault sequence.
    """
    return asyncio.run(
        _run_async(seed, module, quick, schedule, trace_cap, dump_dir)
    )


SOAK_TRACE_CAP = 250_000


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="transport crucible: seeded WAN-shaped chaos over the"
        " real TCP backend, with the sim crucible's invariants",
    )
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds to run")
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument(
        "--module", default="all",
        choices=MODULES + ("all",),
        help="key agreement module (or all three per seed)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="short chaos window (the CI smoke shape)")
    parser.add_argument("--replay", type=int, default=None,
                        help="re-run one seed and print its schedule")
    parser.add_argument("--dump-dir", default=None,
                        help="write per-run obs dumps under this directory")
    args = parser.parse_args(argv)

    modules = MODULES if args.module == "all" else (args.module,)
    if args.replay is not None:
        seeds = [args.replay]
    else:
        seeds = [args.seed_base + i for i in range(args.seeds)]
    failures = 0
    for seed in seeds:
        for module in modules:
            try:
                result = run_transport_chaos(
                    seed,
                    module,
                    quick=args.quick,
                    trace_cap=SOAK_TRACE_CAP,
                    dump_dir=args.dump_dir,
                )
            except OSError as exc:
                print(f"transport crucible skipped: sockets unavailable ({exc})")
                return 0
            verdict = "ok" if result.ok else "FAIL"
            print(
                f"seed={seed} module={module}: {verdict}"
                f"  wall={result.wall_time:.1f}s"
                f"  traffic={result.traffic_sent}/{result.traffic_blocked} blocked"
                f"  netem_faults={result.netem.get('faults_loss', 0)}L"
                f"/{result.netem.get('faults_corrupt', 0)}C"
                f"/{result.netem.get('conn_resets', 0)}R"
            )
            if args.replay is not None or not result.ok:
                for line in result.schedule:
                    print(f"    {line}")
            for violation in result.violations:
                print(f"    VIOLATION: {violation}", file=sys.stderr)
            if not result.ok:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
