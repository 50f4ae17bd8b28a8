"""The WAN soak benchmark behind ``BENCH_wansoak.json``.

Where ``benchmarks/e2e`` measures the TCP backend on *clean* loopback
wires, this soak measures it on *hostile* ones: every wire
routed through a :class:`~repro.transport.netem.NetemLink`, shaped to a
matrix of loss × latency × asymmetry profiles, with the full secure
stack (daemons, clients, key agreement) living on top.  One cell of the
matrix is one deployment of the crucible's TCP backend
(:class:`~repro.chaos.transport_crucible.TransportCrucible`) under a
fixed deterministic shape, driven through four phases in place of the
crucible's seeded schedule — quiescence, the probe round, the probe
census, the end state and the obs dump are the crucible driver's:

1. **Sealed throughput** — one member bursts sealed payloads through
   the shaped wires; the window closes when every member has every
   payload.  Headline: delivered sealed messages per wall-clock second
   under that loss/latency profile.
2. **Rekey churn** — one member leaves and rejoins repeatedly; every
   cycle forces a full group re-key over the shaped wires.  Headline:
   the re-key latency tail (p50/p95/max) from the trace's
   ``secure.rekey_started`` → ``secure.confirmed`` spans.
3. **Reset recovery** — every proxied connection (peer and client) is
   aborted RST-style at once; the bench measures wall-clock time until
   the group is quiescent again *and* a fresh sealed probe from every
   member reaches every member.
4. **Blackhole recovery** — one daemon's peer wires go silent (sockets
   open, bytes vanish) for a hold window, then heal + reset; recovery
   is measured the same way.

Each cell ends with the full trace handed to the *same*
:class:`~repro.chaos.invariants.InvariantChecker` the chaos harness
uses: a cell is ``ok`` only when view synchrony, key agreement, secrecy
and convergence all held while the wires were hostile.

Run ``PYTHONPATH=src python -m repro.chaos.wansoak`` for the full
matrix (3 loss levels × 3 latency profiles × 3 key-agreement modules),
``--smoke --check`` for the CI ``crucible-smoke`` shape (one module, two
cells, structural gates: zero invariant violations, all sealed payloads
delivered, recovery under the bound — never wall-clock rates).  With
``--dump-dir`` every cell writes an obs dump that satisfies
``python -m repro.obs.inspect --check``.  On platforms without loopback
sockets the bench prints a skip note and exits 0; a hang or timeout
anywhere is a failure, never a skip.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.harness import GROUP, MODULES
from repro.chaos.invariants import InvariantChecker
from repro.chaos.transport_crucible import TransportCrucible, peer_link_name
from repro.errors import DeadlockError, ReproError
from repro.obs.metrics import Histogram
from repro.obs.spans import rekey_latency_table
from repro.transport.host import loopback_available

_DEFAULT_OUTPUT = Path("BENCH_wansoak.json")

#: Recovery must complete inside this wall-clock bound for a cell to
#: pass ``--check`` — generous against loaded CI workers, tight enough
#: that a reconnect storm or a wedged rekey fails the gate.
RECOVERY_BOUND_S = 25.0

#: How long a blackhole holds before healing.  Below the crucible's
#: FAIL_TIMEOUT so the daemon-level membership keeps the view (the
#: *transport* must absorb the outage); the reset matrix cell is the
#: one that exercises reconnects.
BLACKHOLE_HOLD_S = 1.0

#: loss fraction per profile (label, loss).
LOSS_PROFILES: Tuple[Tuple[str, float], ...] = (
    ("loss0", 0.0),
    ("loss2", 0.02),
    ("loss8", 0.08),
)

#: (label, forward one-way delay s, backward one-way delay s).  The
#: asymmetric profile models a WAN path whose return leg is congested.
LATENCY_PROFILES: Tuple[Tuple[str, float, float], ...] = (
    ("lan", 0.0, 0.0),
    ("sym20", 0.020, 0.020),
    ("asym60", 0.060, 0.010),
)


def _retrying(
    crucible: TransportCrucible, action: Callable[[], None], what: str
) -> None:
    """Run ``action()`` until it stops raising :class:`ReproError` —
    a shaped wire can have the client mid-reconnect at any instant, and
    an application on a flaky WAN retries exactly like this."""
    deadline = crucible.kernel.now + RECOVERY_BOUND_S
    while True:
        try:
            action()
            return
        except ReproError as exc:
            if crucible.kernel.now >= deadline:
                raise DeadlockError(
                    f"{what} refused for {RECOVERY_BOUND_S}s: {exc}"
                ) from exc
            crucible.run(0.1)


# -- phase 1: sealed throughput ----------------------------------------------


def phase_sealed(crucible: TransportCrucible, messages: int) -> Dict[str, Any]:
    name = sorted(crucible.members)[0]
    sender = crucible.members[name]
    tag = b"soak:"
    started = time.perf_counter()
    for index in range(messages):
        payload = tag + str(index).encode()
        _retrying(
            crucible, lambda: sender.send(GROUP, payload), f"send from {name}"
        )
        if index % 8 == 7:
            crucible.run(0)  # let the loop breathe mid-burst

    def all_sealed() -> bool:
        return all(
            count >= messages for count in crucible.probe_counts(tag).values()
        )

    complete = True
    try:
        crucible.run_until(all_sealed, RECOVERY_BOUND_S)
    except DeadlockError:
        complete = False
    window = time.perf_counter() - started
    delivered = sum(crucible.probe_counts(tag).values())
    return {
        "sent": messages,
        "expected_deliveries": messages * len(crucible.members),
        "deliveries": delivered,
        "window_s": round(window, 6),
        "delivered_msgs_per_s": round(delivered / window, 3) if window else 0.0,
        "all_sealed": complete,
    }


# -- phase 2: rekey churn ----------------------------------------------------


def phase_rekeys(crucible: TransportCrucible, cycles: int) -> Dict[str, Any]:
    """Leave/rejoin churn on the last member: every cycle re-keys the
    group over the shaped wires.  Latencies are measured afterwards
    from the trace (rekey_latency_table), not inline."""
    everyone = sorted(crucible.members)
    churn = everyone[-1]
    member = crucible.members[churn]
    for __ in range(cycles):
        _retrying(crucible, lambda: member.leave(GROUP), f"leave by {churn}")
        crucible.wait_secure_view(everyone[:-1], GROUP, RECOVERY_BOUND_S)
        _retrying(
            crucible,
            lambda: member.join(GROUP, module=crucible.module),
            f"rejoin by {churn}",
        )
        crucible.wait_secure_view(everyone, GROUP, RECOVERY_BOUND_S)
    return {"cycles": cycles, "churn_member": churn}


def rekey_tail(events) -> Dict[str, Any]:
    """p50/p95/max over every *completed* group re-key in the trace."""
    latencies = Histogram()
    for row in rekey_latency_table(events):
        if row["group"] == GROUP and row["latency"] is not None:
            latencies.observe(row["latency"])
    return {
        "count": latencies.count,
        "p50_ms": round(latencies.percentile(50) * 1000, 3),
        "p95_ms": round(latencies.percentile(95) * 1000, 3),
        "max_ms": round((latencies.max or 0.0) * 1000, 3),
    }


# -- phases 3+4: fault recovery ----------------------------------------------


def _recovery(crucible: TransportCrucible, tag: str) -> Dict[str, Any]:
    """Wall-clock from right now until the group is quiescent again and
    one fresh sealed probe per member reached every member."""
    started = time.perf_counter()
    failure = crucible.wait_quiescence(RECOVERY_BOUND_S) or crucible.run_probes(
        f"recover:{tag}:".encode(), RECOVERY_BOUND_S
    )
    return {
        "recovery_s": round(time.perf_counter() - started, 6),
        "recovered": failure is None,
        "detail": failure or "",
    }


def phase_reset(crucible: TransportCrucible) -> Dict[str, Any]:
    cut = 0
    for link in crucible.netem.links.values():
        cut += link.reset_connections()
    result = _recovery(crucible, "reset")
    result["sockets_cut"] = cut
    return result


def phase_blackhole(crucible: TransportCrucible) -> Dict[str, Any]:
    victim = crucible.DAEMONS[-1]
    cut_links = [
        peer_link_name(a, b)
        for a in crucible.DAEMONS
        for b in crucible.DAEMONS
        if a != b and victim in (a, b)
    ]
    for name in cut_links:
        crucible.netem.links[name].blackhole("both")
    crucible.run(BLACKHOLE_HOLD_S)
    for name in cut_links:
        link = crucible.netem.links[name]
        link.heal("both")
        # Blackholed bytes were ACKed by the proxy and are gone, so the
        # frame streams across the cut are poisoned: reset them and let
        # reconnection rebuild clean streams.
        link.reset_connections()
    result = _recovery(crucible, "blackhole")
    result["victim"] = victim
    result["links_cut"] = len(cut_links)
    return result


# -- one cell ----------------------------------------------------------------


def run_cell(
    module: str,
    loss_profile: Tuple[str, float],
    latency_profile: Tuple[str, float, float],
    seed: int,
    smoke: bool,
    dump_dir: Optional[Path],
) -> Dict[str, Any]:
    loss_label, loss = loss_profile
    latency_label, forward, backward = latency_profile
    label = f"{module}/{loss_label}/{latency_label}"
    started = time.perf_counter()
    crucible = TransportCrucible(seed, module)
    try:
        crucible.establish_group()
        # The cell's standing WAN shape, applied to every wire at once.
        # Loss is modelled as an RTO-shaped latency penalty per hit (TCP
        # surfaces loss as delay), so the shaped stream stays lossless
        # at the frame layer while the timing degrades honestly.
        for link in crucible.netem.links.values():
            for direction, latency in (("fwd", forward), ("back", backward)):
                link.apply_shape(
                    direction,
                    latency=latency,
                    jitter=latency * 0.25,
                    loss=loss,
                    loss_penalty=0.2,
                )
        phase_error: Optional[str] = None
        try:
            sealed = phase_sealed(crucible, messages=12 if smoke else 40)
            churn = phase_rekeys(crucible, cycles=1 if smoke else 3)
        except ReproError as exc:
            # A wedged phase fails the cell, never the whole bench.
            phase_error = str(exc)
            sealed = {
                "sent": 0, "expected_deliveries": 0, "deliveries": 0,
                "window_s": 0.0, "delivered_msgs_per_s": 0.0,
                "all_sealed": False,
            }
            churn = {"cycles": 0, "churn_member": ""}
        reset = phase_reset(crucible)
        blackhole = phase_blackhole(crucible)
        drain = crucible.drain_deliveries(RECOVERY_BOUND_S)
        failure = phase_error or next(
            (
                phase["detail"]
                for phase in (reset, blackhole)
                if not phase["recovered"]
            ),
            drain,
        )
        # Recovery probes double as the end-state probe census.
        end_state = crucible.end_state(failure, tag=b"recover:blackhole:")
        report = InvariantChecker(crucible.tracer.events).run(end_state)
        cell: Dict[str, Any] = {
            "cell": label,
            "module": module,
            "seed": seed,
            "loss": loss,
            "latency_fwd_ms": round(forward * 1000, 3),
            "latency_back_ms": round(backward * 1000, 3),
            "sealed": sealed,
            "rekey_ms": rekey_tail(crucible.tracer.events),
            "rekey_churn": churn,
            "recovery": {"reset": reset, "blackhole": blackhole},
            "violations": [str(v) for v in report.violations],
            "ok": report.ok,
            **crucible.evidence(),
            "wall_s": round(time.perf_counter() - started, 3),
        }
        if dump_dir is not None:
            crucible.dump(
                str(dump_dir / label.replace("/", "-")),
                {
                    "bench": "wansoak",
                    "cell": label,
                    "seed": seed,
                    "ok": cell["ok"],
                    "violations": cell["violations"],
                },
            )
        return cell
    finally:
        crucible.close()


# -- assembly ----------------------------------------------------------------


def matrix(
    smoke: bool, module: str
) -> List[Tuple[str, Tuple[str, float], Tuple[str, float, float]]]:
    """The cells to run: (module, loss profile, latency profile)."""
    if smoke:
        # Two contrasting cells on one module: clean LAN, lossy WAN.
        return [
            (module, LOSS_PROFILES[0], LATENCY_PROFILES[0]),
            (module, LOSS_PROFILES[1], LATENCY_PROFILES[1]),
        ]
    return [
        (mod, loss, latency)
        for mod in MODULES
        for loss in LOSS_PROFILES
        for latency in LATENCY_PROFILES
    ]


def run_wansoak(
    smoke: bool, module: str, seed: int, dump_dir: Optional[Path]
) -> Dict[str, Any]:
    cells = []
    for index, (mod, loss, latency) in enumerate(matrix(smoke, module)):
        cell = run_cell(mod, loss, latency, seed + index, smoke, dump_dir)
        cells.append(cell)
        print(
            f"  {cell['cell']}: ok={cell['ok']}"
            f" sealed={cell['sealed']['delivered_msgs_per_s']:.1f}/s"
            f" rekey_p95={cell['rekey_ms']['p95_ms']:.0f}ms"
            f" recover(reset)={cell['recovery']['reset']['recovery_s']:.2f}s"
            f" recover(blackhole)="
            f"{cell['recovery']['blackhole']['recovery_s']:.2f}s",
            file=sys.stderr,
        )
    worst_recovery = max(
        (
            cell["recovery"][kind]["recovery_s"]
            for cell in cells
            for kind in ("reset", "blackhole")
        ),
        default=0.0,
    )
    by_module: Dict[str, List[float]] = {}
    for cell in cells:
        by_module.setdefault(cell["module"], []).append(
            cell["rekey_ms"]["p95_ms"]
        )
    return {
        "bench": "wansoak",
        "backend": "asyncio-tcp-netem",
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recovery_bound_s": RECOVERY_BOUND_S,
        "matrix": {
            "loss": [label for label, __ in LOSS_PROFILES],
            "latency": [label for label, *__ in LATENCY_PROFILES],
            "modules": list(MODULES) if not smoke else [module],
        },
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "ok_cells": sum(1 for cell in cells if cell["ok"]),
            "violations_total": sum(len(cell["violations"]) for cell in cells),
            "worst_recovery_s": round(worst_recovery, 3),
            "rekey_p95_ms_by_module": {
                mod: round(max(values), 3)
                for mod, values in sorted(by_module.items())
            },
        },
    }


def check_document(document: Dict[str, Any]) -> List[str]:
    """Gate failures (empty = pass).  All gates are structural — bounded
    recovery, zero invariant violations, complete sealed delivery — so
    they apply to smoke and full runs alike."""
    failures: List[str] = []
    for cell in document["cells"]:
        label = cell["cell"]
        if cell["violations"]:
            failures.append(f"{label}: invariant violations {cell['violations']}")
        if not cell["sealed"]["all_sealed"]:
            failures.append(f"{label}: sealed payloads missing at some member")
        if cell["rekey_ms"]["count"] < 1:
            failures.append(f"{label}: no completed re-key in the trace")
        for kind in ("reset", "blackhole"):
            phase = cell["recovery"][kind]
            if not phase["recovered"]:
                failures.append(f"{label}: {kind} never recovered: {phase['detail']}")
            elif phase["recovery_s"] > RECOVERY_BOUND_S:
                failures.append(
                    f"{label}: {kind} recovery {phase['recovery_s']:.1f}s"
                    f" over the {RECOVERY_BOUND_S:.0f}s bound"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="WAN-shaped soak benchmark (BENCH_wansoak.json)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="two cells on one module (the CI shape)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every gate passes",
    )
    parser.add_argument(
        "--module", default="cliques", choices=MODULES,
        help="key agreement module for --smoke (full runs sweep all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; cell i runs with seed+i",
    )
    parser.add_argument(
        "--dump-dir", type=Path, default=None,
        help="write one obs dump per cell under this directory",
    )
    parser.add_argument(
        "--output", type=Path, default=_DEFAULT_OUTPUT,
        help="where to write the JSON document",
    )
    args = parser.parse_args(argv)
    if not loopback_available():
        print("wansoak bench skipped: loopback sockets unavailable")
        return 0
    document = run_wansoak(args.smoke, args.module, args.seed, args.dump_dir)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    summary = document["summary"]
    print(
        f"wansoak: {summary['ok_cells']}/{summary['cells']} cells ok,"
        f" worst recovery {summary['worst_recovery_s']:.2f}s"
        f" -> {args.output}"
    )
    if args.check:
        failures = check_document(document)
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
