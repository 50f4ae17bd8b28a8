"""The crucible's TCP backend: the chaos drill over real sockets.

:class:`TransportCrucible` supplies to the one driver
(:class:`repro.chaos.harness.Crucible`) what differs from the simulator:
real daemons (:class:`~repro.transport.host.DaemonHost`), real clients
(:class:`~repro.transport.client.TcpSpreadClient`) and real sockets,
with every inter-daemon and client link routed through a
:class:`~repro.transport.netem.NetemLink` so a seeded
:class:`~repro.transport.netem.NetemSchedule` can shape, stall,
blackhole, corrupt and reset the wires mid-protocol; and wall-clock
time, as ``run`` / ``run_until`` over an asyncio loop the backend owns.
The run sequence, traffic, quiescence predicate, probes, end state and
invariant check are the driver's — view synchrony, key agreement,
secrecy and convergence hold (or not) over real sockets exactly as over
the sim network.

Determinism is schedule-level, not byte-level: wall-clock timing and
kernel chunking vary run to run, but the schedule (every fault, its
offset from the window start, its targets) derives purely from the
seed, and a supplied schedule is re-based onto the new run's window, so
a failing seed replays the same fault sequence and is expected to reach
the same invariant verdict (``tests/chaos/test_transport_crucible.py``
pins this).

Run it with ``python -m repro.chaos.crucible --backend tcp``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Tuple

from repro.chaos.harness import GROUP, Crucible
from repro.cliques.directory import KeyDirectory
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.errors import DeadlockError, ReproError
from repro.obs.metrics import (
    MetricsRegistry,
    collect_netem,
    collect_session,
    collect_transport,
)
from repro.secure.session import SecureClient
from repro.sim.rng import DeterministicRng, stable_seed
from repro.spread.daemon import SpreadDaemon
from repro.spread.flush import FlushClient
from repro.spread.membership import STATE_OP
from repro.testbed import SecureTestbed
from repro.transport.client import TcpSpreadClient
from repro.transport.deploy import realtime_config
from repro.transport.host import DaemonHost, wait_for_condition
from repro.transport.netem import ALL_LINKS, NetemSchedule, NetemWorld

#: Real-time daemon timers (a deployment file's defaults): tight enough
#: that blackhole windows trip failure detection, loose enough that a
#: loaded CI worker does not.
HELLO_INTERVAL = 0.25
FAIL_TIMEOUT = 1.5

#: Disruptions a WAN window may contain (see generate_wan_schedule).
WAN_WINDOW_KINDS = ("asym", "reset", "stall", "blackhole", "corrupt", "quiet")


def peer_link_name(dialer: str, target: str) -> str:
    """The netem link carrying ``dialer``'s outbound peer connection."""
    return f"peer:{dialer}>{target}"


def client_link_name(member: str) -> str:
    return f"client:{member}"


class TransportCrucible(Crucible):
    """A live three-daemon deployment with every wire netem-shaped.

    Each daemon runs in its own :class:`DaemonHost` with its own
    :class:`~repro.transport.tcp.TransportMap`, so the address a daemon
    dials for a peer can differ per dialer — which is how every ordered
    pair ``a → b`` gets its own independently-shapeable proxy.  All
    hosts share one asyncio loop, owned here and only ever run from
    ``run`` / ``run_until``, and one :class:`~repro.obs.bus.TraceBus`
    (the first host's clock is the bus's time base and the driver's
    ``kernel``), so the collected trace is totally ordered across the
    whole deployment.
    """

    backend = "tcp"
    SPAN = (6.0, 2.5)
    QUIESCE_TIMEOUT = 45.0
    PROBE_TIMEOUT = 20.0
    #: The whole round is re-sent every second until it lands (see
    #: send_probes).
    PROBE_ROUND = 1.0
    DAEMONS = ("d0", "d1", "d2")

    # The testbed's group helpers, written against ``members`` and
    # ``run_until`` alone, serve this deployment unchanged.
    placement = SecureTestbed.placement
    secure_view_of = SecureTestbed.secure_view_of
    wait_secure_view = SecureTestbed.wait_secure_view

    def __init__(
        self, seed: int, module: str, trace_cap: Optional[int] = None
    ) -> None:
        super().__init__(seed, module, trace_cap)
        self.registry = MetricsRegistry()
        self.tracer.attach_metrics(self.registry)
        self.rng = DeterministicRng(
            stable_seed("tcrucible", seed, module), label="tcrucible"
        )
        self.config = realtime_config(
            self.DAEMONS, HELLO_INTERVAL, FAIL_TIMEOUT
        )
        self.hosts: Dict[str, DaemonHost] = {}
        self.daemons: Dict[str, SpreadDaemon] = {}
        self.members: Dict[str, SecureClient] = {}
        self.netem = NetemWorld(
            seed=stable_seed("tcrucible-netem", seed, module),
            tracer=self.tracer,
        )
        self.params = DHParams.tiny_test()
        self.directory = KeyDirectory()
        self.loop = asyncio.new_event_loop()
        try:
            self.loop.run_until_complete(self._start())
            self.run_until(self._settled, 30.0)
        except BaseException:
            self.close()
            raise

    # -- time --------------------------------------------------------------

    @property
    def kernel(self):
        return self.hosts[self.DAEMONS[0]].clock

    def run(self, duration: float) -> None:
        self.loop.run_until_complete(asyncio.sleep(duration))

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 60.0,
        interval: float = 0.005,
    ) -> None:
        """Like the sim kernel's: a condition that never holds is a
        :class:`DeadlockError`, never the builtin ``TimeoutError`` (an
        ``OSError``, which callers reserve for "no sockets here")."""
        try:
            self.loop.run_until_complete(
                wait_for_condition(predicate, timeout, interval)
            )
        except TimeoutError as exc:
            raise DeadlockError(str(exc)) from exc

    # -- deployment --------------------------------------------------------

    async def _start(self) -> None:
        """Bind one host per daemon and wire every peer pair through its
        own netem link."""
        for name in self.DAEMONS:
            host = DaemonHost(
                self.config,
                hosted=(name,),
                tracer=self.tracer,
                seed=stable_seed("tcrucible-host", self.seed, name),
            )
            await host.start()
            self.hosts[name] = host
            self.daemons[name] = host.daemons[name]
        # Peer links after the listeners exist; the proxy address lands
        # in the *dialer's* map only, so a → b and b → a are distinct
        # shapeable wires.  Targets stay lazy callables regardless —
        # that is also the contract _PeerChannel relies on for late
        # registration.
        for dialer in self.DAEMONS:
            for target in self.DAEMONS:
                if dialer == target:
                    continue
                address = await self.netem.open_link(
                    peer_link_name(dialer, target),
                    self._target(target, "peer"),
                )
                self.hosts[dialer].addresses.set_peer(target, *address)

    def _target(self, daemon: str, role: str):
        addresses = self.hosts[daemon].addresses
        return lambda: getattr(addresses, role)(daemon)

    def _settled(self) -> bool:
        """All daemons alive, one shared OP view over every daemon."""
        daemons = list(self.daemons.values())
        return (
            all(d.alive and d.engine.state == STATE_OP for d in daemons)
            and len({d.view for d in daemons}) == 1
            and set(daemons[0].view_members) >= set(self.DAEMONS)
        )

    def add_member(
        self, name: str, daemon: str, group: str = GROUP, module: str = "cliques"
    ) -> SecureClient:
        """One SecureClient over a TcpSpreadClient, dialing the daemon
        through a dedicated netem link, heartbeat liveness armed."""
        address = self.loop.run_until_complete(
            self.netem.open_link(
                client_link_name(name), self._target(daemon, "client")
            )
        )
        client = TcpSpreadClient(
            address,
            name,
            clock=self.kernel,
            backoff_base=0.05,
            backoff_cap=1.0,
            connect_timeout=1.0,
            heartbeat_group=f"hb-{name}",
            heartbeat_interval=HELLO_INTERVAL,
            liveness_timeout=FAIL_TIMEOUT * 2,
        )
        self.loop.run_until_complete(client.connect())
        source = DeterministicSource(stable_seed("tcrucible-key", self.seed, name))
        member = self.members[name] = SecureClient(
            flush=FlushClient(client, auto_flush=False),
            params=self.params,
            long_term=DHKeyPair.generate(self.params, source),
            directory=self.directory,
            random_source=source,
        )
        member.publish_key()
        member.join(group, module=module)
        return member

    # -- the fault schedule ------------------------------------------------

    def arm(
        self, schedule: Optional[NetemSchedule], start: float, end: float, windows: int
    ) -> NetemSchedule:
        """Arm ``schedule`` (None: derive one from the seed) on the
        window starting at ``start``.  A supplied schedule was anchored
        to another run's clock, whose group establishment took a
        different wall time, so it is re-based onto this window first."""
        if schedule is None:
            schedule = generate_wan_schedule(
                self.rng.child("wan-schedule"),
                start,
                end,
                daemons=self.DAEMONS,
                members=tuple(sorted(self.members)),
                windows=windows,
            )
        else:
            schedule = schedule.rebased(start)
        self.netem.arm(schedule, self.kernel)
        return schedule

    # -- the two policy overrides ------------------------------------------

    def send_probes(self, tag: bytes, deadline: float) -> Optional[str]:
        """Fire the whole round and let the driver re-send it: a single
        send can race a trailing watchdog rekey (the seal epoch retires
        before delivery and every receiver rejects it), and an
        application retrying over a healed network is exactly the
        recovery this checks."""
        for name, member in sorted(self.members.items()):
            try:
                member.send(GROUP, tag + name.encode())
            except ReproError:
                pass  # mid-reconnect or reflushing: next round
        return None

    def drain_deliveries(self, timeout: Optional[float] = None) -> Optional[str]:
        """Wait for an instant at which every live daemon has delivered
        the same reliable set — the view-synchrony condition itself,
        polled from the shared trace — and the group is quiescent.
        Probe retries leave stragglers in flight; snapshotting
        mid-agreement would catch one daemon a few total-order slots
        ahead of another and misread the skew as a lost message.  And
        the end-of-window reset makes every client reconnect, with a
        re-key following some 15 ms later: quiescence can be sampled and
        the probes can land before it starts, so quiescence is required
        again here, at the instant of the snapshot."""
        timeout = self.PROBE_TIMEOUT if timeout is None else timeout

        def per_daemon() -> Dict[str, set]:
            sets: Dict[str, set] = {
                name: set() for name, d in self.daemons.items() if d.alive
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
            if not self.quiescent():
                return False
            sets = list(per_daemon().values())
            return bool(sets) and all(s == sets[0] for s in sets[1:])

        try:
            # The predicate scans the whole trace: poll it sparingly.
            self.run_until(drained, timeout, interval=0.05)
            return None
        except DeadlockError:
            counts = {
                name: len(s) for name, s in sorted(per_daemon().items())
            }
            return (
                f"no settled end state within {timeout}s:"
                f" quiescent={self.quiescent()} deliveries={counts}"
            )

    # -- evidence ----------------------------------------------------------

    def evidence(self) -> Dict[str, Any]:
        transport: Dict[str, int] = {}
        for host in self.hosts.values():
            for endpoint in host.transports.values():
                for key, value in endpoint.counters.items():
                    transport[key] = transport.get(key, 0) + value
        return {"netem": self.netem.counters_total(), "transport": transport}

    def collect_metrics(self) -> MetricsRegistry:
        registry = self.registry
        for name, member in self.members.items():
            session = member.sessions.get(GROUP)
            if session is not None:
                collect_session(registry, name, GROUP, session)
            collect_transport(registry, member.flush.client)
        for host in self.hosts.values():
            for transport in host.transports.values():
                collect_transport(registry, transport)
        collect_netem(registry, self.netem)
        return registry

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self.loop.is_closed():
            return

        async def shutdown() -> None:
            for member in self.members.values():
                try:
                    await member.flush.client.close()
                except Exception:
                    pass
            for host in self.hosts.values():
                await host.stop()
            await self.netem.close()
            # What asyncio.run would do for a loop it owned.
            leftover = asyncio.all_tasks() - {asyncio.current_task()}
            for task in leftover:
                task.cancel()
            await asyncio.gather(*leftover, return_exceptions=True)

        try:
            self.loop.run_until_complete(shutdown())
        finally:
            self.loop.close()


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
    schedule = NetemSchedule(origin=start)
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
