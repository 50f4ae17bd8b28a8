"""The chaos harness: a full secure-Spread deployment under fire.

One chaos run is: build the paper's deployment (daemons across a LAN,
one secure group spread over them), derive a randomized fault schedule
and client churn plan from a seed, keep application traffic flowing
through the whole storm, then repair everything, wait for quiescence,
probe, and hand the recorded trace to the
:class:`~repro.chaos.invariants.InvariantChecker`.

Everything — fault times, partition shapes, churn, payloads, link
adversary draws — derives from :class:`~repro.sim.rng.DeterministicRng`
streams keyed by the seed, so a failing run replays to a byte-identical
trace (:func:`~repro.chaos.invariants.trace_fingerprint`) and the
shrinker can re-execute candidate schedules faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos.invariants import (
    EndState,
    InvariantChecker,
    InvariantReport,
)
from repro.obs.bus import TraceBus
from repro.errors import DeadlockError, ReproError
from repro.net.fault import FaultInjector, FaultSchedule
from repro.net.link import LinkModel
from repro.secure.events import SecureDataEvent
from repro.sim.rng import DeterministicRng, stable_seed
from repro.testbed import SecureTestbed

#: Key agreement modules every soak covers.
MODULES = ("cliques", "ckd", "tgdh")

GROUP = "crucible"

#: Offsets (seconds) relative to the post-setup clock.
CHAOS_LEAD_IN = 0.3
QUIESCE_TIMEOUT = 90.0
PROBE_TIMEOUT = 30.0


@dataclass
class ChurnOp:
    """One scripted client-membership change during the chaos window."""

    at: float
    op: str  # "join" | "leave"
    member: str
    daemon: str = "d2"


@dataclass
class ChaosResult:
    """Verdict and evidence for one seeded chaos run."""

    seed: int
    module: str
    ok: bool
    violations: List[str]
    stats: Dict[str, int]
    fingerprint: str
    schedule: List[str]
    churn: List[str]
    virtual_time: float
    report: InvariantReport = field(repr=False, default=None)
    schedule_obj: FaultSchedule = field(repr=False, default=None)

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "module": self.module,
            "ok": self.ok,
            "violations": self.violations,
            "stats": self.stats,
            "fingerprint": self.fingerprint,
            "schedule": self.schedule,
            "churn": self.churn,
            "virtual_time": round(self.virtual_time, 6),
        }


class ChaosHarness(SecureTestbed):
    """A :class:`~repro.testbed.SecureTestbed` with the chaos
    apparatus attached: full tracing, a spare (crashable) daemon, a
    fault injector over every daemon, guarded background traffic, and
    scripted client churn.

    Daemons ``d0``..``d2`` host the members (the paper's placement); the
    spare ``d3`` carries no members, so crash faults can exercise daemon
    fail-stop without severing any client (client/daemon IPC does not
    survive a daemon crash).

    ``link`` swaps the substrate (the packing A/B test runs on a
    jitter-free deterministic link); ``config_overrides`` forwards
    SpreadConfig fields, e.g. ``{"packing": True}``.
    """

    def __init__(
        self,
        seed: int,
        module: str,
        member_count: int = 3,
        daemon_count: int = 4,
        trace_cap: Optional[int] = None,
        link: Optional[LinkModel] = None,
        config_overrides: Optional[Dict[str, Any]] = None,
    ) -> None:
        if module not in MODULES:
            raise ValueError(f"unknown key agreement module {module!r}")
        self.seed = seed
        self.module = module
        kernel_seed = stable_seed("chaos", seed, module)
        # ``trace_cap`` bounds retention (ring buffer) for long soaks;
        # the replay fingerprint stays exact because the tracer folds it
        # in incrementally, but the invariant checker only sees retained
        # events — so replay/shrink runs must stay uncapped.
        super().__init__(
            daemon_count=daemon_count,
            link=link,
            seed=kernel_seed,
            config_overrides=config_overrides,
            tracer=TraceBus(
                enabled=True,
                keep=lambda kind: kind != "kernel.event",
                max_events=trace_cap,
            ),
        )
        self.injector = FaultInjector(self.kernel, self.network, self.daemons)
        self.rng = DeterministicRng(kernel_seed, label="chaos")
        self.member_count = member_count
        self.traffic_sent = 0
        self.traffic_blocked = 0
        self._traffic_on = False

    # -- setup -----------------------------------------------------------------

    def establish_group(self) -> List[str]:
        """Bring up the initial secure group (pre-chaos, clean network)."""
        names = []
        for index in range(self.member_count):
            name = f"m{index}"
            self.add_member(name, self.placement(index), GROUP, self.module)
            names.append(name)
            self.wait_secure_view(names, GROUP)
        return names

    # -- background traffic ------------------------------------------------------

    def start_traffic(self, until: float, period: float = 0.15) -> None:
        """Application sends through the whole chaos window, rotating
        over members; sends that cannot go out (no key yet, flush in
        progress, daemon gone) are counted and skipped — exactly how a
        robust application behaves over secure Spread."""
        self._traffic_on = True
        counter = {"n": 0}

        def tick() -> None:
            if not self._traffic_on or self.kernel.now > until:
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

    def stop_traffic(self) -> None:
        self._traffic_on = False

    # -- churn --------------------------------------------------------------------

    def arm_churn(self, plan: List[ChurnOp]) -> None:
        for op in plan:
            self.kernel.call_at(
                op.at, self._churn_runner(op), label=f"chaos.churn.{op.op}"
            )

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

    # -- convergence and probing ---------------------------------------------------

    def wait_quiescence(self, timeout: float = QUIESCE_TIMEOUT) -> Optional[str]:
        """Run until live daemons share one OP view and every member is
        keyed; returns None on success, a failure description on timeout."""
        from repro.spread.membership import STATE_OP

        def converged() -> bool:
            alive = [d for d in self.daemons.values() if d.alive]
            views = {d.view for d in alive}
            if len(views) != 1 or any(d.engine.state != STATE_OP for d in alive):
                return False
            return all(
                m.has_key(GROUP) and not m.flush.flushing(GROUP)
                for m in self.members.values()
            )

        try:
            self.run_until(converged, timeout=timeout)
            return None
        except DeadlockError:
            alive = {n: str(d.view) for n, d in self.daemons.items() if d.alive}
            keyed = {n: m.has_key(GROUP) for n, m in self.members.items()}
            return (
                f"no quiescence within {timeout}s virtual:"
                f" views={alive} keyed={keyed}"
            )

    def _probe_counts(self) -> Dict[str, int]:
        counts = {}
        for name, member in self.members.items():
            seen = {
                bytes(e.payload)
                for e in member.queue
                if isinstance(e, SecureDataEvent)
                and bytes(e.payload).startswith(b"probe:")
            }
            counts[name] = len(seen)
        return counts

    def run_probes(self, timeout: float = PROBE_TIMEOUT) -> Optional[str]:
        """Every member multicasts a fresh probe; all members (sender
        included) must receive all of them over the repaired network."""
        expected = len(self.members)
        unsent = sorted(self.members)
        deadline = self.kernel.now + timeout
        while unsent:
            name = unsent[0]
            try:
                self.members[name].send(GROUP, f"probe:{name}".encode())
                unsent.pop(0)
            except ReproError as exc:
                # A trailing re-key can still be flushing when quiescence
                # is first sampled; give it a moment and retry.
                if self.kernel.now >= deadline:
                    return f"probe send from {name} failed: {exc}"
                self.run(0.25)
        try:
            self.run_until(
                lambda: all(
                    count >= expected for count in self._probe_counts().values()
                ),
                timeout=timeout,
            )
            return None
        except DeadlockError:
            return f"probe deliveries incomplete: {self._probe_counts()}"

    # -- verdict -------------------------------------------------------------------

    def end_state(self, failure: Optional[str]) -> EndState:
        views = {n: str(d.view) for n, d in self.daemons.items() if d.alive}
        keyed = {n: m.has_key(GROUP) for n, m in self.members.items()}
        fingerprints = {}
        for name, member in self.members.items():
            session = member.sessions.get(GROUP)
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


# ---------------------------------------------------------------------------
# one run, end to end
# ---------------------------------------------------------------------------


def run_chaos(
    seed: int,
    module: str,
    quick: bool = False,
    schedule: Optional[FaultSchedule] = None,
    churn: Optional[List[ChurnOp]] = None,
    trace_cap: Optional[int] = None,
    dump_dir: Optional[str] = None,
) -> ChaosResult:
    """Execute one seeded chaos run and return its verdict.

    With ``schedule`` (and optionally ``churn``) given, the generated
    ones are replaced — the replay/shrink path — while every other
    random stream still derives from the seed, so the run around the
    schedule is unchanged.

    ``trace_cap`` bounds trace retention (soak mode); ``dump_dir``
    writes an observability run dump (trace, metrics, spans) under
    ``dump_dir/seed{seed}-{module}/`` for ``repro.obs.inspect``.
    """
    harness = ChaosHarness(seed, module, trace_cap=trace_cap)
    harness.establish_group()
    chaos_span = 4.0 if quick else 8.0
    start = harness.kernel.now + CHAOS_LEAD_IN
    end = start + chaos_span
    if schedule is None:
        schedule = generate_schedule(
            harness.rng.child("schedule"),
            start,
            end,
            daemons=sorted(harness.daemons),
            spare="d3",
            windows=2 if quick else 4,
        )
    if churn is None:
        churn = generate_churn(harness.rng.child("churn"), start, end)
    harness.injector.arm(schedule)
    harness.arm_churn(churn)
    harness.start_traffic(until=end)
    harness.run(end - harness.kernel.now + 0.05)
    harness.stop_traffic()
    failure = harness.wait_quiescence()
    if failure is None:
        failure = harness.run_probes()
    end_state = harness.end_state(failure)
    report = InvariantChecker(harness.tracer.events).run(end_state)
    result = ChaosResult(
        seed=seed,
        module=module,
        ok=report.ok,
        violations=[str(v) for v in report.violations],
        stats=report.stats,
        # The tracer's incremental fingerprint: identical to
        # trace_fingerprint(events) when uncapped, and still exact when
        # a trace_cap has rotated early events out of retention.
        fingerprint=harness.tracer.fingerprint(),
        schedule=schedule.describe(),
        churn=[f"t={op.at:.3f}: {op.op} {op.member}@{op.daemon}" for op in churn],
        virtual_time=harness.kernel.now,
        report=report,
        schedule_obj=schedule,
    )
    if dump_dir is not None:
        dump_chaos_run(dump_dir, harness, result)
    return result


def dump_chaos_run(dump_dir: str, harness: ChaosHarness, result: ChaosResult) -> str:
    """Write the observability dump for one finished chaos run."""
    import os

    from repro.obs.dump import DUMP_SCHEMA, dump_run
    from repro.obs.metrics import MetricsRegistry, collect_testbed

    registry = collect_testbed(MetricsRegistry(), harness)
    for layer, count in sorted(harness.tracer.events_by_layer().items()):
        registry.counter("trace.retained_events", layer=layer).inc(count)
    registry.counter("trace.dropped_events").inc(harness.tracer.dropped_events)
    directory = os.path.join(
        dump_dir, f"seed{result.seed}-{result.module}"
    )
    return dump_run(
        directory,
        harness.tracer.events,
        metrics=registry,
        meta={
            "schema": DUMP_SCHEMA,
            "seed": result.seed,
            "module": result.module,
            "ok": result.ok,
            "violations": result.violations,
            "virtual_time": round(result.virtual_time, 6),
            "fingerprint": result.fingerprint,
            "trace_retained": len(harness.tracer),
            "trace_recorded": harness.tracer.recorded_total,
            "trace_dropped": harness.tracer.dropped_events,
        },
    )
