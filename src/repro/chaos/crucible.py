"""The chaos crucible driver: seeded soaks, replay, and shrinking.

Usage (module CLI)::

    # 25-seed soak across all three key-agreement modules
    PYTHONHASHSEED=0 python -m repro.chaos.crucible \\
        --seeds 25 --modules cliques,ckd,tgdh --output BENCH_chaos.json

    # Deterministic replay of one seed (runs it twice and checks the
    # trace fingerprints are byte-identical)
    PYTHONHASHSEED=0 python -m repro.chaos.crucible --replay 7 --module tgdh

    # Replay a failing seed and ddmin-shrink its fault schedule
    PYTHONHASHSEED=0 python -m repro.chaos.crucible \\
        --replay 7 --module tgdh --shrink

``PYTHONHASHSEED=0`` pins ``repr`` ordering of the few sets that appear
in trace fields, making fingerprints comparable *across* interpreter
invocations; within one invocation they are deterministic regardless.

Exit status: 0 when every run's invariants hold (and, for ``--replay``,
the fingerprints match), 1 otherwise — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.chaos.harness import MODULES, ChaosResult, run_chaos
from repro.chaos.shrink import shrink_schedule
from repro.net.fault import FaultAction, FaultSchedule

#: Action kinds (plus the clean set_link) every shrink candidate keeps:
#: the shrinker must not "reproduce" a failure by never repairing.
_REPAIR_KINDS = frozenset({"recover", "resume", "restore", "heal"})


def _is_repair(action: FaultAction) -> bool:
    if action.kind in _REPAIR_KINDS:
        return True
    return action.kind == "set_link" and not action.link.adversarial


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
) -> Dict:
    """Run every (seed, module) combination; return the BENCH document."""
    runs: List[ChaosResult] = []
    for seed in seeds:
        for module in modules:
            result = run_chaos(
                seed, module, quick=quick, trace_cap=trace_cap,
                dump_dir=dump_dir,
            )
            runs.append(result)
            if progress:
                status = "ok  " if result.ok else "FAIL"
                print(
                    f"  [{status}] seed={seed:<4d} module={module:<8s}"
                    f" vt={result.virtual_time:7.2f}s"
                    f" faults={result.stats.get('fault.fire', 0)}"
                    f" corrupt={result.stats.get('net.corrupt', 0)}"
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
) -> int:
    """Replay one seed twice (fingerprint check), optionally shrinking."""
    first = run_chaos(seed, module, quick=quick, dump_dir=dump_dir)
    second = run_chaos(seed, module, quick=quick)
    identical = first.fingerprint == second.fingerprint
    print(f"seed={seed} module={module} ok={first.ok}")
    print(f"fingerprint run 1: {first.fingerprint}")
    print(f"fingerprint run 2: {second.fingerprint}")
    print(f"replay byte-identical: {identical}")
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

            def still_failing(candidate: FaultSchedule) -> bool:
                return not run_chaos(
                    seed, module, quick=quick, schedule=candidate
                ).ok

            minimal = shrink_schedule(
                first.schedule_obj,
                still_failing,
                keep=_is_repair,
                max_runs=max_shrink_runs,
            )
            print(
                f"minimal failing schedule"
                f" ({len(minimal.actions)} of"
                f" {len(first.schedule_obj.actions)} actions):"
            )
            for line in minimal.describe():
                print(f"  {line}")
    return 0 if (first.ok and identical) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.crucible",
        description="Seeded chaos soaks over secure Spread, with"
        " deterministic replay and schedule shrinking.",
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
        help="half-length chaos window, two fault windows (CI smoke)",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="replay one seed instead of soaking (with --module)",
    )
    parser.add_argument(
        "--module", default=None,
        help="module for --replay (required with --replay)",
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

    if args.replay is not None:
        if args.module is None:
            parser.error("--replay requires --module")
        return replay(args.replay, args.module, quick=args.quick,
                      shrink=args.shrink, dump_dir=args.dump_dir)

    modules = [m.strip() for m in args.modules.split(",") if m.strip()]
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
        dump_dir=args.dump_dir,
    )
    summary = document["summary"]
    print(
        f"chaos soak: {summary['passed']}/{summary['runs']} runs green"
        f" ({len(seeds)} seeds x {len(modules)} modules)"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
