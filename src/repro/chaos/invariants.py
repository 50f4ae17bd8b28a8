"""Trace-driven invariant checking for chaos runs.

The simulator's :class:`~repro.sim.trace.Tracer` gives one totally
ordered record of everything that happened.  The checker replays that
record and verifies the properties the paper's integrated system
promises to keep under arbitrary asynchrony and failures:

* **View synchrony** (§3): two daemons that both install view *V* and
  then both install the *same successor* view delivered exactly the
  same set of reliable messages in *V*.  Daemons that part ways (a
  partition splits them into different successor views) may legitimately
  deliver different suffixes, and daemons that crashed inside the view
  are exempt — EVS promises nothing to a process that fails mid-view.
* **Key agreement** (§4): every member that confirms a key for the
  same ``(group, view, attempt)`` epoch confirms the *same* key
  fingerprint over the *same* member set.
* **Secrecy boundaries** (§5): every plaintext the application layer
  received was (a) unsealed under exactly the epoch it was sealed in
  and (b) byte-identical to something a member actually sent in that
  epoch.  A corrupted or replayed ciphertext must die at the MAC with a
  ``secure.reject`` trace, never surface as application data.
* **Post-quiescence convergence**: once all faults are repaired and the
  network quiesces, live daemons share one view, every member holds a
  confirmed key with a group-wide identical fingerprint, and fresh
  probe traffic reaches everyone.

The checker consumes only trace events plus a small end-state snapshot;
it never reaches into live objects, so a recorded trace can be audited
offline, replayed, and diffed run against run via
:func:`trace_fingerprint`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.sim.trace import (  # re-exported for backward compatibility
    FINGERPRINT_EXCLUDE,
    TraceEvent,
    canonical_event,
)

_canonical = canonical_event


def trace_fingerprint(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over the canonical serialization of a trace.

    Two runs of the same seeded scenario must produce equal
    fingerprints; a divergence pinpoints lost determinism.

    Equals :meth:`repro.sim.trace.Tracer.fingerprint` when the tracer
    retains every event; a capped (ring-buffer) tracer must use the
    incremental method instead, because early events are gone from the
    retained list.
    """
    digest = hashlib.sha256()
    for event in events:
        if event.kind in FINGERPRINT_EXCLUDE:
            continue
        digest.update(canonical_event(event).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def delivery_fingerprint(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over each daemon's ordered reliable-delivery sequence.

    Two runs are *delivery-equivalent* when every daemon delivered the
    same reliable messages in the same per-daemon order — the guarantee
    the ordered multicast service actually makes.  Unlike
    :func:`trace_fingerprint` this is insensitive to how deliveries from
    different daemons interleave in the global trace (a pure artifact of
    kernel scheduling), so it is the right equality for A/B comparisons
    that change network event timing without changing semantics — the
    packing on/off gate in ``tests/chaos/test_packing_equivalence.py``.
    """
    per_daemon: Dict[str, "hashlib._Hash"] = {}
    for event in events:
        if event.kind != "daemon.deliver":
            continue
        digest = per_daemon.get(event["me"])
        if digest is None:
            digest = per_daemon[event["me"]] = hashlib.sha256()
        digest.update(
            f"{event['view']}|{event['sender']}|{event['seq']}"
            f"|{event['msg_kind']}\n".encode()
        )
    outer = hashlib.sha256()
    for daemon in sorted(per_daemon):
        outer.update(daemon.encode())
        outer.update(b"=")
        outer.update(per_daemon[daemon].hexdigest().encode())
        outer.update(b"\n")
    return outer.hexdigest()


@dataclass(frozen=True)
class InvariantViolation:
    """One broken promise, with enough detail to start debugging."""

    invariant: str  # view_synchrony | key_agreement | secrecy | convergence
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.invariant}] {self.detail}"


@dataclass
class InvariantReport:
    """Everything a chaos run's verdict is based on."""

    violations: List[InvariantViolation] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "all invariants hold"
        kinds = sorted({v.invariant for v in self.violations})
        return f"{len(self.violations)} violation(s): {', '.join(kinds)}"


@dataclass
class EndState:
    """Snapshot taken by the harness after the quiescence window.

    ``daemon_views`` maps each *live* daemon to its installed view id;
    ``member_keyed`` whether each member holds a confirmed key;
    ``member_fingerprints`` each keyed member's session-key fingerprint;
    ``probes_expected`` / ``probes_received`` the post-quiescence probe
    fan-out (every member should receive every other member's probe).
    """

    daemon_views: Dict[str, str] = field(default_factory=dict)
    member_keyed: Dict[str, bool] = field(default_factory=dict)
    member_fingerprints: Dict[str, str] = field(default_factory=dict)
    probes_expected: int = 0
    probes_received: Dict[str, int] = field(default_factory=dict)
    converged: bool = True
    detail: str = ""


# -- per-daemon delivery bookkeeping ------------------------------------------


#: Successor marker for a view still open at a quiescent trace end.
_FINAL = "<final>"


@dataclass
class _ViewRecord:
    daemon: str
    view: str
    delivered: Set[Tuple[str, int]] = field(default_factory=set)
    successor: str = ""  # view installed next ("" = incomplete, crashed)
    complete: bool = False  # closed by a successor install (not a crash)


class InvariantChecker:
    """Runs every invariant over one recorded chaos trace."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events: List[TraceEvent] = list(events)

    # -- view synchrony --------------------------------------------------------

    def _view_records(self, quiescent: bool) -> List[_ViewRecord]:
        open_records: Dict[str, _ViewRecord] = {}
        closed: List[_ViewRecord] = []
        for event in self.events:
            if event.kind == "daemon.install":
                daemon = event["me"]
                previous = open_records.pop(daemon, None)
                if previous is not None:
                    previous.successor = event["view"]
                    previous.complete = True
                    closed.append(previous)
                open_records[daemon] = _ViewRecord(daemon, event["view"])
            elif event.kind == "daemon.deliver":
                daemon = event["me"]
                record = open_records.get(daemon)
                identity = (event["sender"], event["seq"])
                if record is not None and record.view == event["view"]:
                    record.delivered.add(identity)
                else:
                    # Flush-time delivery into the already-closed view.
                    for candidate in reversed(closed):
                        if (
                            candidate.daemon == daemon
                            and candidate.view == event["view"]
                        ):
                            candidate.delivered.add(identity)
                            break
            elif event.kind == "process.crash":
                # EVS owes a crashed process nothing for its open view.
                open_records.pop(event["name"], None)
        for record in open_records.values():
            # A view still open at the end of the trace is complete only
            # if the run quiesced (no traffic left in flight).
            record.successor = _FINAL
            record.complete = quiescent
            closed.append(record)
        return closed

    def check_view_synchrony(self, quiescent: bool = True) -> List[InvariantViolation]:
        # EVS's agreement is between daemons that transit V -> V'
        # together; key the comparison groups by that pair.
        by_transit: Dict[Tuple[str, str], List[_ViewRecord]] = {}
        for record in self._view_records(quiescent):
            if record.complete:
                by_transit.setdefault(
                    (record.view, record.successor), []
                ).append(record)
        violations: List[InvariantViolation] = []
        for (view, __), records in sorted(by_transit.items()):
            if len(records) < 2:
                continue
            reference = records[0]
            for other in records[1:]:
                if other.delivered != reference.delivered:
                    missing = reference.delivered ^ other.delivered
                    sample = sorted(missing)[:5]
                    violations.append(
                        InvariantViolation(
                            "view_synchrony",
                            f"view {view}: {reference.daemon} and"
                            f" {other.daemon} delivered different sets"
                            f" ({len(missing)} differ, e.g. {sample})",
                        )
                    )
        return violations

    # -- key agreement ---------------------------------------------------------

    def check_key_agreement(self) -> List[InvariantViolation]:
        epochs: Dict[
            Tuple[str, str, int], Dict[str, Tuple[str, FrozenSet[str]]]
        ] = {}
        for event in self.events:
            if event.kind != "secure.confirmed":
                continue
            key = (event["group"], event["view"], event["attempt"])
            epochs.setdefault(key, {})[event["me"]] = (
                event["fingerprint"],
                frozenset(event["members"]),
            )
        violations: List[InvariantViolation] = []
        for (group, view, attempt), confirms in sorted(epochs.items()):
            fingerprints = {fp for fp, __ in confirms.values()}
            if len(fingerprints) > 1:
                violations.append(
                    InvariantViolation(
                        "key_agreement",
                        f"group {group!r} view {view} attempt {attempt}:"
                        f" {len(fingerprints)} distinct key fingerprints"
                        f" across {sorted(confirms)}",
                    )
                )
            member_sets = {members for __, members in confirms.values()}
            if len(member_sets) > 1:
                violations.append(
                    InvariantViolation(
                        "key_agreement",
                        f"group {group!r} view {view} attempt {attempt}:"
                        " members disagree on the secure view composition",
                    )
                )
        return violations

    # -- secrecy ---------------------------------------------------------------

    def check_secrecy(self) -> List[InvariantViolation]:
        sent: Dict[str, Set[str]] = {}
        for event in self.events:
            if event.kind == "secure.send":
                sent.setdefault(event["epoch"], set()).add(event["digest"])
        violations: List[InvariantViolation] = []
        for event in self.events:
            if event.kind != "secure.data":
                continue
            epoch = event["epoch"]
            digest = event["digest"]
            if digest not in sent.get(epoch, set()):
                where = [e for e, digests in sent.items() if digest in digests]
                if where:
                    detail = (
                        f"{event['me']} opened epoch-{where[0]} data under"
                        f" epoch {epoch}: cross-epoch secrecy breach"
                    )
                else:
                    detail = (
                        f"{event['me']} delivered plaintext {digest} in"
                        f" epoch {epoch} that no member ever sent"
                        " (corruption reached the application)"
                    )
                violations.append(InvariantViolation("secrecy", detail))
        return violations

    # -- convergence -----------------------------------------------------------

    def check_convergence(
        self, end_state: Optional[EndState]
    ) -> List[InvariantViolation]:
        if end_state is None:
            return []
        violations: List[InvariantViolation] = []
        if not end_state.converged:
            violations.append(
                InvariantViolation(
                    "convergence",
                    end_state.detail or "run never reached quiescence",
                )
            )
            return violations
        views = set(end_state.daemon_views.values())
        if len(views) > 1:
            violations.append(
                InvariantViolation(
                    "convergence",
                    f"live daemons end in {len(views)} distinct views:"
                    f" {end_state.daemon_views}",
                )
            )
        unkeyed = sorted(
            name for name, keyed in end_state.member_keyed.items() if not keyed
        )
        if unkeyed:
            violations.append(
                InvariantViolation(
                    "convergence",
                    f"members without a confirmed key after repair: {unkeyed}",
                )
            )
        fingerprints = set(end_state.member_fingerprints.values())
        if len(fingerprints) > 1:
            violations.append(
                InvariantViolation(
                    "convergence",
                    "final group keys differ across members:"
                    f" {end_state.member_fingerprints}",
                )
            )
        short = sorted(
            name
            for name, count in end_state.probes_received.items()
            if count < end_state.probes_expected
        )
        if short:
            violations.append(
                InvariantViolation(
                    "convergence",
                    f"post-quiescence probes missing at {short}"
                    f" (expected {end_state.probes_expected} each,"
                    f" got {[end_state.probes_received[n] for n in short]})",
                )
            )
        return violations

    # -- the whole battery -----------------------------------------------------

    def _stats(self) -> Dict[str, int]:
        counted = (
            "net.corrupt",
            "net.duplicate",
            "net.drop_loss",
            "net.drop_partition",
            "net.drop_sever",
            "daemon.corrupt_drop",
            "secure.send",
            "secure.data",
            "secure.reject",
            "fragments.stale_drop",
            "fragments.duplicate",
            "fault.fire",
        )
        stats = {kind: 0 for kind in counted}
        reject_reasons: Dict[str, int] = {}
        for event in self.events:
            if event.kind in stats:
                stats[event.kind] += 1
            if event.kind == "secure.reject":
                reason = event.get("reason", "unknown")
                reject_reasons[reason] = reject_reasons.get(reason, 0) + 1
        for reason, count in sorted(reject_reasons.items()):
            stats[f"secure.reject.{reason}"] = count
        return stats

    def run(self, end_state: Optional[EndState] = None) -> InvariantReport:
        quiescent = end_state.converged if end_state is not None else True
        report = InvariantReport(stats=self._stats())
        report.violations.extend(self.check_view_synchrony(quiescent))
        report.violations.extend(self.check_key_agreement())
        report.violations.extend(self.check_secrecy())
        report.violations.extend(self.check_convergence(end_state))
        return report
