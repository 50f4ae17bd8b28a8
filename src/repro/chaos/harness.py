"""The crucible driver and its simulator backend.

One chaos run is: bring up the paper's deployment (daemons, one secure
group spread over them), arm a randomized fault schedule derived from a
seed, keep application traffic flowing through the whole storm, then
repair everything, wait for quiescence, probe, and hand the recorded
trace to the :class:`~repro.chaos.invariants.InvariantChecker`.

:class:`Crucible` owns that sequence once.  A backend supplies only what
really differs: the deployment, the fault schedule (its type, generator
and ``arm``) and **time** — ``run(duration)`` / ``run_until(predicate,
timeout)`` over a ``kernel`` with ``now`` / ``call_later`` / ``call_at``.
:class:`ChaosHarness` here is the simulator backend
(:class:`~repro.testbed.SecureTestbed` + :class:`~repro.net.fault
.FaultInjector`, virtual time); :class:`repro.chaos.transport_crucible
.TransportCrucible` is the TCP one (real sockets through netem proxies,
wall-clock time).  This module imports neither ``asyncio`` nor
``repro.transport``: the sim crucible runs where sockets do not exist.

On the simulator everything — fault times, partition shapes, churn,
payloads, link adversary draws — derives from
:class:`~repro.sim.rng.DeterministicRng` streams keyed by the seed, so a
failing run replays to a byte-identical trace
(:func:`~repro.chaos.invariants.trace_fingerprint`) and the shrinker can
re-execute candidate schedules faithfully.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos.invariants import (
    EndState,
    InvariantChecker,
    InvariantReport,
)
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry, collect_testbed
from repro.errors import DeadlockError, ReproError
from repro.net.fault import FaultInjector, FaultSchedule
from repro.net.link import LinkModel
from repro.secure.events import SecureDataEvent
from repro.sim.rng import DeterministicRng, stable_seed
from repro.spread.membership import STATE_OP
from repro.testbed import SecureTestbed

#: Key agreement modules every soak covers.
MODULES = ("cliques", "ckd", "tgdh")

GROUP = "crucible"

#: Seconds between group establishment and the chaos window.
CHAOS_LEAD_IN = 0.3


@dataclass
class ChaosResult:
    """Verdict and evidence for one seeded chaos run, on either backend.

    ``elapsed`` is in the backend's time (virtual seconds on the
    simulator, wall-clock on TCP).  ``fingerprint`` and ``churn`` are
    evidence only the simulator produces, ``netem`` / ``transport`` only
    the TCP backend; the other backend leaves them empty.
    """

    backend: str
    seed: int
    module: str
    ok: bool
    violations: List[str]
    stats: Dict[str, int]
    schedule: List[str]
    elapsed: float
    traffic_sent: int
    traffic_blocked: int
    fingerprint: str = ""
    churn: List[str] = field(default_factory=list)
    netem: Dict[str, int] = field(default_factory=dict)
    transport: Dict[str, int] = field(default_factory=dict)
    report: InvariantReport = field(repr=False, default=None)
    schedule_obj: Any = field(repr=False, default=None)

    def to_json(self) -> Dict[str, Any]:
        """The run as recorded in a BENCH document: the verdict plus the
        evidence this backend produces."""
        keys = ("seed", "module", "ok", "violations", "stats", "schedule")
        if self.backend == "sim":
            keys += ("fingerprint", "churn")
            clock = "virtual_time"
        else:
            keys += ("netem", "transport", "traffic_sent", "traffic_blocked")
            clock = "wall_time_s"
        document = {key: getattr(self, key) for key in keys}
        document[clock] = round(self.elapsed, 6)
        return document


class Crucible:
    """The one chaos driver: establish group → arm schedule → traffic →
    repair → quiescence → probes → :class:`EndState` →
    :class:`InvariantChecker` → :class:`ChaosResult` → dump.

    Every step is written once against what a backend provides:

    * ``kernel`` (``now``, ``call_later``), ``run(duration)`` and
      ``run_until(predicate, timeout)`` raising
      :class:`~repro.errors.DeadlockError` on timeout;
    * ``daemons`` (name → :class:`~repro.spread.daemon.SpreadDaemon`) and
      ``members`` (name → :class:`~repro.secure.session.SecureClient`),
      with ``add_member`` / ``placement`` / ``wait_secure_view`` as on
      :class:`~repro.testbed.SecureTestbed`;
    * ``arm``, ``evidence``, ``collect_metrics`` and the class constants
      below.

    Two steps differ by policy, not mechanism, and stay backend
    overrides: how a probe round is sent (``send_probes`` /
    ``PROBE_ROUND``) and whether in-flight deliveries must drain before
    the snapshot (``drain_deliveries``).
    """

    backend: str
    #: Chaos window length, seconds: (full, quick).
    SPAN: tuple
    QUIESCE_TIMEOUT: float
    PROBE_TIMEOUT: float
    #: How long one probe round may take before the next is sent.
    PROBE_ROUND: float
    MEMBERS = 3

    def __init__(self, seed: int, module: str, trace_cap: Optional[int]) -> None:
        if module not in MODULES:
            raise ValueError(f"unknown key agreement module {module!r}")
        self.seed = seed
        self.module = module
        # ``trace_cap`` bounds retention (ring buffer) for long soaks;
        # the replay fingerprint stays exact because the tracer folds it
        # in incrementally, but the invariant checker only sees retained
        # events — so replay/shrink runs must stay uncapped.
        self.tracer = TraceBus(
            enabled=True,
            keep=lambda kind: kind != "kernel.event",
            max_events=trace_cap,
        )
        self.traffic_sent = 0
        self.traffic_blocked = 0

    @classmethod
    def run_seed(
        cls,
        seed: int,
        module: str,
        quick: bool = False,
        schedule: Any = None,
        trace_cap: Optional[int] = None,
        dump_dir: Optional[str] = None,
    ) -> ChaosResult:
        """Build the deployment, execute one run, tear it down."""
        crucible = cls(seed, module, trace_cap=trace_cap)
        try:
            return crucible.execute(quick, schedule, dump_dir)
        finally:
            crucible.close()

    def close(self) -> None:
        """Release what the deployment holds (nothing, on the simulator)."""

    # -- setup -----------------------------------------------------------------

    def establish_group(self) -> List[str]:
        """Bring up the initial secure group (pre-chaos, clean network)."""
        names = []
        for index in range(self.MEMBERS):
            name = f"m{index}"
            self.add_member(name, self.placement(index), GROUP, self.module)
            names.append(name)
            self.wait_secure_view(names, GROUP, timeout=self.QUIESCE_TIMEOUT)
        return names

    # -- background traffic ------------------------------------------------------

    def start_traffic(self, until: float, period: float = 0.15) -> None:
        """Application sends until the chaos window closes at ``until``,
        rotating over members; sends that cannot go out (no key yet,
        flush in progress, daemon gone) are counted and skipped —
        exactly how a robust application behaves over secure Spread."""
        counter = {"n": 0}

        def tick() -> None:
            if self.kernel.now > until:
                return
            current = sorted(self.members)
            if current:
                sender = current[counter["n"] % len(current)]
                counter["n"] += 1
                payload = f"app:{sender}:{counter['n']}".encode()
                try:
                    self.members[sender].send(GROUP, payload)
                    self.traffic_sent += 1
                except ReproError:
                    self.traffic_blocked += 1
            self.kernel.call_later(period, tick, label="chaos.traffic")

        self.kernel.call_later(period, tick, label="chaos.traffic")

    # -- convergence and probing ---------------------------------------------------

    def quiescent(self) -> bool:
        """Live daemons share one OP view and every member is
        connected, keyed and not flushing."""
        alive = [d for d in self.daemons.values() if d.alive]
        views = {d.view for d in alive}
        if len(views) != 1 or any(d.engine.state != STATE_OP for d in alive):
            return False
        return all(
            m.has_key(GROUP)
            and not m.flush.flushing(GROUP)
            and m.flush.client.connected
            for m in self.members.values()
        )

    def wait_quiescence(self, timeout: Optional[float] = None) -> Optional[str]:
        """Run until :meth:`quiescent`; returns None on success, a
        failure description on timeout."""
        timeout = self.QUIESCE_TIMEOUT if timeout is None else timeout
        try:
            self.run_until(self.quiescent, timeout=timeout)
            return None
        except DeadlockError:
            alive = {n: str(d.view) for n, d in self.daemons.items() if d.alive}
            keyed = {n: m.has_key(GROUP) for n, m in self.members.items()}
            return f"no quiescence within {timeout}s: views={alive} keyed={keyed}"

    def probe_counts(self, tag: bytes = b"probe:") -> Dict[str, int]:
        """Per member, how many distinct payloads starting with ``tag``
        the application layer received."""
        counts = {}
        for name, member in self.members.items():
            seen = {
                bytes(e.payload)
                for e in member.queue
                if isinstance(e, SecureDataEvent)
                and bytes(e.payload).startswith(tag)
            }
            counts[name] = len(seen)
        return counts

    def run_probes(
        self, tag: bytes = b"probe:", timeout: Optional[float] = None
    ) -> Optional[str]:
        """Every member multicasts a fresh probe ``tag + name``; all
        members (sender included) must receive all of them over the
        repaired network.  Receivers count *distinct* payloads, so a
        backend that re-sends the round is harmless."""
        timeout = self.PROBE_TIMEOUT if timeout is None else timeout
        expected = len(self.members)
        deadline = self.kernel.now + timeout

        def landed() -> bool:
            return all(
                count >= expected for count in self.probe_counts(tag).values()
            )

        while True:
            failure = self.send_probes(tag, deadline)
            if failure is not None:
                return failure
            try:
                self.run_until(landed, timeout=self.PROBE_ROUND)
                return None
            except DeadlockError:
                if self.kernel.now >= deadline:
                    return f"probe deliveries incomplete: {self.probe_counts(tag)}"

    def drain_deliveries(self, timeout: Optional[float] = None) -> Optional[str]:
        """Wait for in-flight reliable deliveries before the snapshot.
        Nothing to wait for on the simulator: its kernel is stopped
        while the end state is read."""
        return None

    # -- verdict -------------------------------------------------------------------

    def end_state(self, failure: Optional[str], tag: bytes = b"probe:") -> EndState:
        views = {n: str(d.view) for n, d in self.daemons.items() if d.alive}
        keyed = {n: m.has_key(GROUP) for n, m in self.members.items()}
        fingerprints = {
            n: m.sessions[GROUP].key_fingerprint
            for n, m in self.members.items() if keyed[n]
        }
        return EndState(
            daemon_views=views,
            member_keyed=keyed,
            member_fingerprints=fingerprints,
            probes_expected=len(self.members),
            probes_received=self.probe_counts(tag),
            converged=failure is None,
            detail=failure or "",
        )

    def dump(self, directory: str, meta: Dict[str, Any]) -> str:
        """Write the observability dump (trace, metrics, spans) for
        ``repro.obs.inspect``."""
        from repro.obs.dump import DUMP_SCHEMA, dump_run

        tracer = self.tracer
        registry = self.collect_metrics()
        for layer, count in sorted(tracer.events_by_layer().items()):
            registry.counter("trace.retained_events", layer=layer).inc(count)
        registry.counter("trace.dropped_events").inc(tracer.dropped_events)
        return dump_run(
            directory,
            tracer.events,
            metrics=registry,
            meta={
                "schema": DUMP_SCHEMA,
                "backend": self.backend,
                **meta,
                "trace_retained": len(tracer),
                "trace_recorded": tracer.recorded_total,
                "trace_dropped": tracer.dropped_events,
            },
        )

    # -- one run, end to end -------------------------------------------------------

    def execute(
        self,
        quick: bool = False,
        schedule: Any = None,
        dump_dir: Optional[str] = None,
    ) -> ChaosResult:
        """One seeded chaos run on this deployment.

        With ``schedule`` given, the generated one is replaced — the
        replay/shrink path — while every other random stream still
        derives from the seed, so the run around the schedule is
        unchanged.  ``dump_dir`` writes an observability dump under
        ``dump_dir/seed{seed}-{module}/``.
        """
        self.establish_group()
        start = self.kernel.now + CHAOS_LEAD_IN
        end = start + self.SPAN[quick]
        schedule = self.arm(schedule, start, end, windows=2 if quick else 4)
        self.start_traffic(until=end)
        self.run(end - self.kernel.now + 0.05)
        failure = (
            self.wait_quiescence()
            or self.run_probes()
            or self.drain_deliveries()
        )
        report = InvariantChecker(self.tracer.events).run(self.end_state(failure))
        result = ChaosResult(
            backend=self.backend,
            seed=self.seed,
            module=self.module,
            ok=report.ok,
            violations=[str(v) for v in report.violations],
            stats=report.stats,
            schedule=schedule.describe(),
            elapsed=self.kernel.now,
            traffic_sent=self.traffic_sent,
            traffic_blocked=self.traffic_blocked,
            report=report,
            schedule_obj=schedule,
            **self.evidence(),
        )
        if dump_dir is not None:
            self.dump(
                os.path.join(dump_dir, f"seed{self.seed}-{self.module}"),
                result.to_json(),
            )
        return result


# ---------------------------------------------------------------------------
# the simulator backend
# ---------------------------------------------------------------------------


@dataclass
class ChurnOp:
    """One scripted client-membership change during the chaos window."""

    at: float
    op: str  # "join" | "leave"
    member: str
    daemon: str = "d2"


class ChaosHarness(Crucible, SecureTestbed):
    """The simulator backend: a :class:`~repro.testbed.SecureTestbed`
    under a :class:`~repro.net.fault.FaultInjector`, with scripted
    client churn, on virtual time.

    Daemons ``d0``..``d2`` host the members (the paper's placement); the
    spare ``d3`` carries no members, so crash faults can exercise daemon
    fail-stop without severing any client (client/daemon IPC does not
    survive a daemon crash).

    ``link`` swaps the substrate (the packing A/B test runs on a
    jitter-free deterministic link); ``config_overrides`` forwards
    SpreadConfig fields, e.g. ``{"packing": False}``.
    """

    backend = "sim"
    SPAN = (8.0, 4.0)
    QUIESCE_TIMEOUT = 90.0
    PROBE_TIMEOUT = 30.0
    #: One round: every member's probe is sent exactly once (see
    #: send_probes), then the whole timeout is the wait.
    PROBE_ROUND = PROBE_TIMEOUT

    #: The churn plan armed with the schedule; None derives it from the
    #: seed (``run_chaos(churn=...)`` replaces it).
    churn: Optional[List[ChurnOp]] = None

    def __init__(
        self,
        seed: int,
        module: str,
        trace_cap: Optional[int] = None,
        link: Optional[LinkModel] = None,
        config_overrides: Optional[Dict[str, Any]] = None,
    ) -> None:
        Crucible.__init__(self, seed, module, trace_cap)
        kernel_seed = stable_seed("chaos", seed, module)
        SecureTestbed.__init__(
            self,
            daemon_count=4,
            link=link,
            seed=kernel_seed,
            config_overrides=config_overrides,
            tracer=self.tracer,
        )
        self.injector = FaultInjector(self.kernel, self.network, self.daemons)
        self.rng = DeterministicRng(kernel_seed, label="chaos")

    def arm(
        self, schedule: Optional[FaultSchedule], start: float, end: float, windows: int
    ) -> FaultSchedule:
        """Arm ``schedule`` (None: derive one from the seed) and the
        churn plan.  A supplied schedule is armed at its own absolute
        times: the virtual clock reaches ``start`` at the same instant
        in every run of a seed."""
        if schedule is None:
            schedule = generate_schedule(
                self.rng.child("schedule"),
                start,
                end,
                daemons=sorted(self.daemons),
                spare="d3",
                windows=windows,
            )
        if self.churn is None:
            self.churn = generate_churn(self.rng.child("churn"), start, end)
        self.injector.arm(schedule)
        for op in self.churn:
            self.kernel.call_at(
                op.at, self._churn_runner(op), label=f"chaos.churn.{op.op}"
            )
        return schedule

    def _churn_runner(self, op: ChurnOp):
        def run() -> None:
            try:
                if op.op == "join" and op.member not in self.members:
                    self.add_member(op.member, op.daemon, GROUP, self.module)
                elif op.op == "leave" and op.member in self.members:
                    member = self.members.pop(op.member)
                    member.leave(GROUP)
                    member.disconnect()
            except ReproError:
                pass  # churn against a faulted daemon: the op is simply lost

        return run

    def send_probes(self, tag: bytes, deadline: float) -> Optional[str]:
        """Each member's probe goes out exactly once: a send refused by
        a trailing re-key (still flushing when quiescence was sampled)
        is retried for that member alone after 0.25 s virtual."""
        for name in sorted(self.members):
            while True:
                try:
                    self.members[name].send(GROUP, tag + name.encode())
                    break
                except ReproError as exc:
                    if self.kernel.now >= deadline:
                        return f"probe send from {name} failed: {exc}"
                    self.run(0.25)
        return None

    def evidence(self) -> Dict[str, Any]:
        return {
            # The tracer's incremental fingerprint: identical to
            # trace_fingerprint(events) when uncapped, and still exact
            # when a trace_cap has rotated early events out of retention.
            "fingerprint": self.tracer.fingerprint(),
            "churn": [
                f"t={op.at:.3f}: {op.op} {op.member}@{op.daemon}"
                for op in self.churn
            ],
        }

    def collect_metrics(self) -> MetricsRegistry:
        return collect_testbed(MetricsRegistry(), self)


# ---------------------------------------------------------------------------
# schedule and churn generation
# ---------------------------------------------------------------------------

#: Structural disruptions a chaos window may contain.
WINDOW_KINDS = ("partition", "sever", "stall", "crash", "quiet")


def generate_schedule(
    rng: DeterministicRng,
    start: float,
    end: float,
    daemons: List[str],
    spare: Optional[str] = "d3",
    windows: int = 4,
) -> FaultSchedule:
    """Derive a randomized, self-repairing fault schedule.

    The window ``[start, end]`` opens with an adversarial link model
    (loss, duplication, corruption, reordering, spikes) and closes with
    a full repair: every structural fault injected inside the window is
    reverted inside the window, and at ``end`` the schedule resumes all
    daemons, restores severs, heals partitions and reinstates the clean
    link — anything still broken after ``end`` is the system's fault,
    not the schedule's.
    """
    schedule = FaultSchedule()
    schedule.set_link(start, LinkModel.chaotic())
    span = end - start - 0.4
    cursor = start + 0.2
    for __ in range(windows):
        if cursor >= start + 0.2 + span:
            break
        duration = rng.uniform(0.3, min(0.9, max(0.31, span / windows)))
        duration = min(duration, start + 0.2 + span - cursor)
        kind = rng.choice(WINDOW_KINDS)
        names = list(daemons)
        rng.shuffle(names)
        if kind == "partition":
            cut = rng.randint(1, len(names) - 1)
            schedule.partition(cursor, [names[:cut], names[cut:]])
            schedule.heal(cursor + duration)
        elif kind == "sever":
            cut = rng.randint(1, len(names) - 1)
            schedule.sever(cursor, names[:cut], names[cut:])
            schedule.restore(cursor + duration)
        elif kind == "stall":
            victims = names[: rng.randint(1, 2)]
            schedule.stall(cursor, *victims)
            schedule.resume(cursor + duration, *victims)
        elif kind == "crash" and spare is not None:
            schedule.crash(cursor, spare)
            schedule.recover(cursor + duration, spare)
        # "quiet" (or crash with no spare): a clean gap under the
        # adversarial link only.
        cursor += duration + rng.uniform(0.1, 0.4)
    # Belt-and-braces repair: resume/restore/heal are no-ops when
    # nothing is stalled/severed/partitioned.
    schedule.resume(end, *daemons)
    schedule.restore(end)
    schedule.heal(end)
    schedule.set_link(end, LinkModel.ethernet_100base_t())
    return schedule


def generate_churn(
    rng: DeterministicRng, start: float, end: float
) -> List[ChurnOp]:
    """0-2 scripted client churn ops inside the chaos window: a fourth
    member may join mid-storm (on the members' bulk daemon) and may
    leave again before repair."""
    plan: List[ChurnOp] = []
    if end - start < 2.0 or rng.random() < 0.25:
        return plan
    join_at = rng.uniform(start + 0.5, end - 1.2)
    plan.append(ChurnOp(at=join_at, op="join", member="m3", daemon="d2"))
    if rng.random() < 0.5:
        leave_at = rng.uniform(join_at + 0.6, end - 0.2)
        plan.append(ChurnOp(at=leave_at, op="leave", member="m3", daemon="d2"))
    return plan


def run_chaos(
    seed: int,
    module: str,
    quick: bool = False,
    schedule: Optional[FaultSchedule] = None,
    churn: Optional[List[ChurnOp]] = None,
    trace_cap: Optional[int] = None,
    dump_dir: Optional[str] = None,
) -> ChaosResult:
    """One seeded run on the simulator: :meth:`Crucible.run_seed` plus
    the sim-only ``churn`` plan (replaced like ``schedule`` when given).
    ``trace_cap`` bounds trace retention (soak mode)."""
    harness = ChaosHarness(seed, module, trace_cap=trace_cap)
    harness.churn = churn
    return harness.execute(quick, schedule, dump_dir)
