"""The WAN soak benchmark behind ``BENCH_wansoak.json``.

Where ``benchmarks/e2e`` measures the TCP backend on *clean* loopback
wires, this soak measures it on *hostile* ones: every wire
routed through a :class:`~repro.transport.netem.NetemLink`, shaped to a
matrix of loss × latency × asymmetry profiles, with the full secure
stack (daemons, clients, key agreement) living on top.  One cell of the
matrix is one deployment of the :class:`~repro.chaos.transport_crucible
.TransportCrucible` under a fixed deterministic shape, driven through
four phases:

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
sockets the bench prints a skip note and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.transport_crucible import (
    GROUP,
    MODULES,
    TransportCrucible,
    client_link_name,
    peer_link_name,
)
from repro.errors import ReproError
from repro.obs.spans import rekey_latency_table
from repro.secure.events import SecureDataEvent
from repro.transport.host import wait_for_condition
from repro.transport.netem import ALL_LINKS

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


def cell_label(module: str, loss_label: str, latency_label: str) -> str:
    return f"{module}/{loss_label}/{latency_label}"


def _percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _sealed_counts(crucible: TransportCrucible, prefix: bytes) -> Dict[str, int]:
    counts = {}
    for name, member in crucible.members.items():
        seen = {
            bytes(e.payload)
            for e in member.secure.queue
            if isinstance(e, SecureDataEvent)
            and bytes(e.payload).startswith(prefix)
        }
        counts[name] = len(seen)
    return counts


async def _retrying(action, what: str, timeout: float) -> None:
    """Run ``action()`` until it stops raising :class:`ReproError` —
    a shaped wire can have the client mid-reconnect at any instant, and
    an application on a flaky WAN retries exactly like this."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        try:
            action()
            return
        except ReproError as exc:
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"{what} refused for {timeout}s: {exc}"
                ) from exc
            await asyncio.sleep(0.1)


async def _send_retrying(
    crucible: TransportCrucible, sender: str, payload: bytes, timeout: float
) -> None:
    """Send one sealed payload, retrying across reconnects/flushes."""
    await _retrying(
        lambda: crucible.members[sender].secure.send(GROUP, payload),
        f"send from {sender}",
        timeout,
    )


# -- phase 1: sealed throughput ----------------------------------------------


async def phase_sealed(
    crucible: TransportCrucible, messages: int, timeout: float
) -> Dict[str, Any]:
    sender = sorted(crucible.members)[0]
    prefix = b"soak:"
    started = time.perf_counter()
    for index in range(messages):
        await _send_retrying(
            crucible, sender, prefix + str(index).encode(), timeout
        )
        if index % 8 == 7:
            await asyncio.sleep(0)  # let the loop breathe mid-burst

    def all_sealed() -> bool:
        return all(
            count >= messages
            for count in _sealed_counts(crucible, prefix).values()
        )

    complete = True
    try:
        await wait_for_condition(all_sealed, timeout)
    except TimeoutError:
        complete = False
    window = time.perf_counter() - started
    counts = _sealed_counts(crucible, prefix)
    delivered = sum(counts.values())
    return {
        "sent": messages,
        "expected_deliveries": messages * len(crucible.members),
        "deliveries": delivered,
        "window_s": round(window, 6),
        "delivered_msgs_per_s": round(delivered / window, 3) if window else 0.0,
        "all_sealed": complete,
    }


# -- phase 2: rekey churn ----------------------------------------------------


async def phase_rekeys(
    crucible: TransportCrucible, cycles: int, timeout: float
) -> Dict[str, Any]:
    """Leave/rejoin churn on the last member: every cycle re-keys the
    group over the shaped wires.  Latencies are measured afterwards
    from the trace (rekey_latency_table), not inline."""
    churn = sorted(crucible.members)[-1]
    member = crucible.members[churn]
    stayers = [m for n, m in crucible.members.items() if n != churn]
    for __ in range(cycles):
        await _retrying(
            lambda: member.secure.leave(GROUP),
            f"leave by {churn}",
            timeout,
        )
        remaining = {
            str(m.client.pid) for m in crucible.members.values()
        } - {str(member.client.pid)}

        def shrunk() -> bool:
            return all(
                m.view_of(GROUP) == remaining and m.secure.has_key(GROUP)
                for m in stayers
            )

        await wait_for_condition(shrunk, timeout)
        await _retrying(
            lambda: member.secure.join(GROUP, module=crucible.module),
            f"rejoin by {churn}",
            timeout,
        )
        everyone = {str(m.client.pid) for m in crucible.members.values()}

        def regrown() -> bool:
            return all(
                m.view_of(GROUP) == everyone and m.secure.has_key(GROUP)
                for m in crucible.members.values()
            )

        await wait_for_condition(regrown, timeout)
    return {"cycles": cycles, "churn_member": churn}


def rekey_tail(events) -> Dict[str, Any]:
    """p50/p95/max over every *completed* group re-key in the trace."""
    latencies = [
        row["latency"]
        for row in rekey_latency_table(events)
        if row["group"] == GROUP and row["latency"] is not None
    ]
    return {
        "count": len(latencies),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
        "max_ms": round(max(latencies, default=0.0) * 1000, 3),
    }


# -- phases 3+4: fault recovery ----------------------------------------------


async def measure_recovery(
    crucible: TransportCrucible, tag: str, timeout: float
) -> Dict[str, Any]:
    """Wall-clock from right now until the group is quiescent again and
    one fresh sealed probe per member reached every member."""
    started = time.perf_counter()
    failure = await crucible.wait_quiescence(timeout)
    prefix = f"recover:{tag}:".encode()
    expected = len(crucible.members)
    if failure is None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        next_send = loop.time()
        while True:
            counts = _sealed_counts(crucible, prefix)
            if all(count >= expected for count in counts.values()):
                break
            if loop.time() >= deadline:
                failure = f"{tag} probes incomplete: {counts}"
                break
            if loop.time() >= next_send:
                for name, member in sorted(crucible.members.items()):
                    try:
                        member.secure.send(GROUP, prefix + name.encode())
                    except ReproError:
                        pass  # mid-reconnect: resent next round
                next_send = loop.time() + 1.0
            await asyncio.sleep(0.05)
    return {
        "recovery_s": round(time.perf_counter() - started, 6),
        "recovered": failure is None,
        "detail": failure or "",
    }


def _peer_links(crucible: TransportCrucible) -> List[str]:
    return [
        peer_link_name(a, b)
        for a in crucible.daemon_names
        for b in crucible.daemon_names
        if a != b
    ]


async def phase_reset(
    crucible: TransportCrucible, timeout: float
) -> Dict[str, Any]:
    cut = 0
    for link in crucible.netem.links.values():
        cut += link.reset_connections()
    result = await measure_recovery(crucible, "reset", timeout)
    result["sockets_cut"] = cut
    return result


async def phase_blackhole(
    crucible: TransportCrucible, timeout: float
) -> Dict[str, Any]:
    victim = crucible.daemon_names[-1]
    cut_links = [
        name
        for name in _peer_links(crucible)
        if name.endswith(f">{victim}") or f"peer:{victim}>" in name
    ]
    for name in cut_links:
        crucible.netem.links[name].blackhole("both")
    await asyncio.sleep(BLACKHOLE_HOLD_S)
    for name in cut_links:
        link = crucible.netem.links[name]
        link.heal("both")
        # Blackholed bytes were ACKed by the proxy and are gone, so the
        # frame streams across the cut are poisoned: reset them and let
        # reconnection rebuild clean streams.
        link.reset_connections()
    result = await measure_recovery(crucible, "blackhole", timeout)
    result["victim"] = victim
    result["links_cut"] = len(cut_links)
    return result


# -- one cell ----------------------------------------------------------------


async def run_cell(
    module: str,
    loss_label: str,
    loss: float,
    latency_label: str,
    forward: float,
    backward: float,
    seed: int,
    smoke: bool,
    timeout: float,
    dump_dir: Optional[Path],
) -> Dict[str, Any]:
    label = cell_label(module, loss_label, latency_label)
    started = time.perf_counter()
    crucible = TransportCrucible(seed, module)
    try:
        await crucible.start()
        await crucible.establish_group()
        # The cell's standing WAN shape, applied to every wire at once.
        # Loss is modelled as an RTO-shaped latency penalty per hit (TCP
        # surfaces loss as delay), so the shaped stream stays lossless
        # at the frame layer while the timing degrades honestly.
        for link in crucible.netem.links.values():
            link.apply_shape(
                "fwd",
                latency=forward,
                jitter=forward * 0.25,
                loss=loss,
                loss_penalty=0.2,
            )
            link.apply_shape(
                "back",
                latency=backward,
                jitter=backward * 0.25,
                loss=loss,
                loss_penalty=0.2,
            )
        phase_error: Optional[str] = None
        try:
            sealed = await phase_sealed(
                crucible, messages=12 if smoke else 40, timeout=timeout
            )
            churn = await phase_rekeys(
                crucible, cycles=1 if smoke else 3, timeout=timeout
            )
        except (TimeoutError, ReproError) as exc:
            # A wedged phase fails the cell, never the whole bench.
            phase_error = str(exc)
            sealed = {
                "sent": 0, "expected_deliveries": 0, "deliveries": 0,
                "window_s": 0.0, "delivered_msgs_per_s": 0.0,
                "all_sealed": False,
            }
            churn = {"cycles": 0, "churn_member": ""}
        reset = await phase_reset(crucible, timeout)
        blackhole = await phase_blackhole(crucible, timeout)
        drain = await crucible.drain_deliveries(timeout)
        failure = phase_error or next(
            (
                phase["detail"]
                for phase in (reset, blackhole)
                if not phase["recovered"]
            ),
            drain,
        )
        end_state = crucible.end_state(failure)
        # Recovery probes double as the end-state probe census.
        end_state.probes_expected = len(crucible.members)
        end_state.probes_received = _sealed_counts(crucible, b"recover:blackhole:")
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
            "netem": crucible.netem.counters_total(),
            "transport": crucible.transport_totals(),
            "wall_s": round(time.perf_counter() - started, 3),
        }
        if dump_dir is not None:
            from repro.obs.dump import DUMP_SCHEMA, dump_run

            dump_run(
                str(dump_dir / label.replace("/", "-")),
                crucible.tracer.events,
                metrics=crucible.collect_metrics(),
                meta={
                    "schema": DUMP_SCHEMA,
                    "bench": "wansoak",
                    "cell": label,
                    "seed": seed,
                    "ok": cell["ok"],
                    "violations": cell["violations"],
                },
            )
        return cell
    finally:
        await crucible.close()


# -- assembly ----------------------------------------------------------------


def matrix(smoke: bool, module: str) -> List[Tuple[str, float, str, float, float, str]]:
    """The cells to run: (loss_label, loss, lat_label, fwd, back, module)."""
    if smoke:
        # Two contrasting cells on one module: clean LAN, lossy WAN.
        return [
            ("loss0", 0.0, "lan", 0.0, 0.0, module),
            ("loss2", 0.02, "sym20", 0.020, 0.020, module),
        ]
    return [
        (loss_label, loss, lat_label, fwd, back, mod)
        for mod in MODULES
        for loss_label, loss in LOSS_PROFILES
        for lat_label, fwd, back in LATENCY_PROFILES
    ]


async def run_wansoak(
    smoke: bool, module: str, seed: int, dump_dir: Optional[Path]
) -> Dict[str, Any]:
    timeout = RECOVERY_BOUND_S
    cells = []
    for index, (loss_label, loss, lat_label, fwd, back, mod) in enumerate(
        matrix(smoke, module)
    ):
        cells.append(
            await run_cell(
                mod,
                loss_label,
                loss,
                lat_label,
                fwd,
                back,
                seed=seed + index,
                smoke=smoke,
                timeout=timeout,
                dump_dir=dump_dir,
            )
        )
        print(
            f"  {cells[-1]['cell']}: ok={cells[-1]['ok']}"
            f" sealed={cells[-1]['sealed']['delivered_msgs_per_s']:.1f}/s"
            f" rekey_p95={cells[-1]['rekey_ms']['p95_ms']:.0f}ms"
            f" recover(reset)={cells[-1]['recovery']['reset']['recovery_s']:.2f}s"
            f" recover(blackhole)="
            f"{cells[-1]['recovery']['blackhole']['recovery_s']:.2f}s",
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


def check_document(document: Dict[str, Any], smoke: bool) -> List[str]:
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
    try:
        document = asyncio.run(
            run_wansoak(args.smoke, args.module, args.seed, args.dump_dir)
        )
    except OSError as exc:
        # No loopback sockets on this platform: skip, don't fail.
        print(f"wansoak bench skipped: sockets unavailable ({exc})")
        return 0
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    summary = document["summary"]
    print(
        f"wansoak: {summary['ok_cells']}/{summary['cells']} cells ok,"
        f" worst recovery {summary['worst_recovery_s']:.2f}s"
        f" -> {args.output}"
    )
    if args.check:
        failures = check_document(document, args.smoke)
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
