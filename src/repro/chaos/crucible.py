"""The chaos crucible CLI: seeded soaks, replay, and shrinking, on
either backend.

Usage (module CLI)::

    # 25-seed soak across all three key-agreement modules (simulator)
    PYTHONHASHSEED=0 python -m repro.chaos.crucible \\
        --seeds 25 --modules cliques,ckd,tgdh --output BENCH_chaos.json

    # The same drill over real sockets and netem-shaped wires
    python -m repro.chaos.crucible --backend tcp --quick --seeds 3

    # Replay one seed: run it, then run it again on the schedule the
    # first run armed.  On the simulator the two trace fingerprints must
    # be byte-identical; on TCP (wall-clock timing varies) the same
    # fault sequence must reach the same verdict.
    PYTHONHASHSEED=0 python -m repro.chaos.crucible --replay 7 --module tgdh

    # Replay a failing seed and ddmin-shrink its fault schedule
    PYTHONHASHSEED=0 python -m repro.chaos.crucible \\
        --replay 7 --module tgdh --shrink

``PYTHONHASHSEED=0`` pins ``repr`` ordering of the few sets that appear
in trace fields, making fingerprints comparable *across* interpreter
invocations; within one invocation they are deterministic regardless.

Exit status: 0 when every run's invariants hold (and, for ``--replay``,
the second run reproduces the first), 1 otherwise — so CI can gate on it
directly.  ``--backend tcp`` on a platform without loopback sockets
prints a note and exits 0; a hang or timeout is always a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Type

from repro.chaos.harness import MODULES, ChaosHarness, ChaosResult, Crucible
from repro.chaos.shrink import shrink_schedule

#: Action kinds every shrink candidate keeps: the shrinker must not
#: "reproduce" a failure by never repairing.
_REPAIR_KINDS = frozenset({"recover", "resume", "restore", "heal"})
_NETEM_REPAIR_KINDS = frozenset({"clear", "resume", "heal"})


def _is_repair(action: Any) -> bool:
    """Simulator schedules: the repair kinds plus the clean set_link."""
    if action.kind in _REPAIR_KINDS:
        return True
    return action.kind == "set_link" and not action.link.adversarial


def _is_netem_repair(action: Any) -> bool:
    """TCP schedules: the repair kinds plus the end-of-window reset of
    every wire (a reset of *named* links is a fault, not a repair)."""
    from repro.transport.netem import ALL_LINKS

    if action.kind in _NETEM_REPAIR_KINDS:
        return True
    return action.kind == "reset" and action.links == (ALL_LINKS,)


_IS_REPAIR = {"sim": _is_repair, "tcp": _is_netem_repair}


#: Default trace-retention cap for soak mode: generous (a quick run
#: records ~50k events) but bounded, so long soaks cannot grow without
#: limit.  Replay/shrink runs stay uncapped — the invariant checker and
#: the shrinker need the whole trace.
SOAK_TRACE_CAP = 250_000


def soak(
    seeds: List[int],
    modules: List[str],
    quick: bool = False,
    progress: bool = True,
    trace_cap: Optional[int] = SOAK_TRACE_CAP,
    dump_dir: Optional[str] = None,
    backend: Type[Crucible] = ChaosHarness,
) -> Dict:
    """Run every (seed, module) combination; return the BENCH document."""
    runs: List[ChaosResult] = []
    for seed in seeds:
        for module in modules:
            result = backend.run_seed(
                seed, module, quick=quick, trace_cap=trace_cap,
                dump_dir=dump_dir,
            )
            runs.append(result)
            if progress:
                status = "ok  " if result.ok else "FAIL"
                print(
                    f"  [{status}] seed={seed:<4d} module={module:<8s}"
                    f" t={result.elapsed:7.2f}s"
                    f" faults={len(result.schedule)}"
                    f" traffic={result.traffic_sent}"
                    f"/{result.traffic_blocked} blocked"
                    f" rejects={result.stats.get('secure.reject', 0)}",
                    file=sys.stderr,
                )
                for violation in result.violations:
                    print(f"         {violation}", file=sys.stderr)
    failed = [r for r in runs if not r.ok]
    per_module: Dict[str, Dict[str, int]] = {}
    for module in modules:
        mine = [r for r in runs if r.module == module]
        per_module[module] = {
            "runs": len(mine),
            "passed": sum(1 for r in mine if r.ok),
        }
    totals: Dict[str, int] = {}
    for result in runs:
        for key, value in result.stats.items():
            totals[key] = totals.get(key, 0) + value
    return {
        "benchmark": "chaos_crucible",
        "config": {
            "backend": backend.backend,
            "seeds": seeds,
            "modules": modules,
            "quick": quick,
        },
        "summary": {
            "runs": len(runs),
            "passed": len(runs) - len(failed),
            "failed": [
                {"seed": r.seed, "module": r.module, "violations": r.violations}
                for r in failed
            ],
            "per_module": per_module,
            "stats_total": totals,
        },
        "runs": [r.to_json() for r in runs],
    }


def replay(
    seed: int,
    module: str,
    quick: bool = False,
    shrink: bool = False,
    max_shrink_runs: int = 60,
    dump_dir: Optional[str] = None,
    backend: Type[Crucible] = ChaosHarness,
) -> int:
    """Run one seed, then again on the schedule the first run armed;
    optionally shrink a failing schedule."""
    first = backend.run_seed(seed, module, quick=quick, dump_dir=dump_dir)
    second = backend.run_seed(
        seed, module, quick=quick, schedule=first.schedule_obj
    )
    reproduced = (
        second.ok == first.ok and second.fingerprint == first.fingerprint
    )
    print(f"seed={seed} module={module} backend={backend.backend} ok={first.ok}")
    if first.fingerprint:
        print(f"fingerprint run 1: {first.fingerprint}")
        print(f"fingerprint run 2: {second.fingerprint}")
        print(f"replay byte-identical: {reproduced}")
    else:
        print(f"replay reached the same verdict: {reproduced}")
    print("schedule:")
    for line in first.schedule:
        print(f"  {line}")
    if first.churn:
        print("churn:")
        for line in first.churn:
            print(f"  {line}")
    if not first.ok:
        print("violations:")
        for violation in first.violations:
            print(f"  {violation}")
        if shrink:
            print(f"shrinking (budget {max_shrink_runs} replays)...")

            def still_failing(candidate: Any) -> bool:
                return not backend.run_seed(
                    seed, module, quick=quick, schedule=candidate
                ).ok

            minimal = shrink_schedule(
                first.schedule_obj,
                still_failing,
                keep=_IS_REPAIR[backend.backend],
                max_runs=max_shrink_runs,
            )
            print(
                f"minimal failing schedule"
                f" ({len(minimal.actions)} of"
                f" {len(first.schedule_obj.actions)} actions):"
            )
            for line in minimal.describe():
                print(f"  {line}")
    return 0 if (first.ok and reproduced) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.crucible",
        description="Seeded chaos soaks over secure Spread, on the"
        " simulator or over real TCP sockets, with replay and schedule"
        " shrinking.",
    )
    parser.add_argument(
        "--backend", default="sim", choices=("sim", "tcp"),
        help="sim: simulated network, FaultSchedule, virtual time (default);"
        " tcp: real daemons and clients behind netem proxies, wall clock",
    )
    parser.add_argument(
        "--seeds", type=int, default=25,
        help="number of seeds to soak (0..N-1; default 25)",
    )
    parser.add_argument(
        "--modules", default=",".join(MODULES),
        help="comma-separated key agreement modules (default all three)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the BENCH JSON document here (soak mode)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short chaos window, two fault windows (CI smoke)",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="replay one seed instead of soaking (with --module)",
    )
    parser.add_argument(
        "--module", default=None, choices=MODULES,
        help="one module: required with --replay, shorthand for"
        " --modules M when soaking",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="with --replay of a failing seed: ddmin the fault schedule",
    )
    parser.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="write an observability dump per run under DIR"
        " (inspect with: python -m repro.obs.inspect DIR)",
    )
    parser.add_argument(
        "--trace-cap", type=int, default=None, metavar="N",
        help="soak mode: retain at most N trace events per run"
        f" (ring buffer; default {SOAK_TRACE_CAP}, 0 = unlimited)",
    )
    args = parser.parse_args(argv)

    backend: Type[Crucible] = ChaosHarness
    if args.backend == "tcp":
        # Imported here only: the sim crucible must run where asyncio
        # sockets do not exist.
        from repro.chaos.transport_crucible import TransportCrucible
        from repro.transport.host import loopback_available

        if not loopback_available():
            print("tcp crucible skipped: loopback sockets unavailable")
            return 0
        backend = TransportCrucible

    if args.replay is not None:
        if args.module is None:
            parser.error("--replay requires --module")
        return replay(args.replay, args.module, quick=args.quick,
                      shrink=args.shrink, dump_dir=args.dump_dir,
                      backend=backend)

    modules = [m.strip() for m in args.modules.split(",") if m.strip()]
    if args.module is not None:
        modules = [args.module]
    for module in modules:
        if module not in MODULES:
            parser.error(f"unknown module {module!r}; choose from {MODULES}")
    seeds = list(range(args.seeds))
    if args.trace_cap is None:
        trace_cap: Optional[int] = SOAK_TRACE_CAP
    else:
        trace_cap = args.trace_cap if args.trace_cap > 0 else None
    document = soak(
        seeds, modules, quick=args.quick, trace_cap=trace_cap,
        dump_dir=args.dump_dir, backend=backend,
    )
    summary = document["summary"]
    print(
        f"chaos soak ({args.backend}): {summary['passed']}/{summary['runs']}"
        f" runs green ({len(seeds)} seeds x {len(modules)} modules)"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
