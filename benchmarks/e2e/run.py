"""One benchmark for the secure stack.

    python3 benchmarks/e2e/run.py                         # all five workloads
    python3 benchmarks/e2e/run.py --trace                 # ... then a traced run of each
    python3 benchmarks/e2e/run.py --workload bulk_tcp --seed 7 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The exit code is non-zero when any operation failed.  See README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# As shipped: no REPRO_* switch reaches the library (scrubbed before it is
# imported, since some defaults are read at import or construction time).
SCRUBBED = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in SCRUBBED:
    del os.environ[_name]

# The benchmark's files import each other as a package, so its ``trace``
# module never shadows the standard library's.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import asyncio  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from benchmarks.e2e import harness, metrics, trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Result  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"
SMOKE_SECONDS = 2


# -- the environment stamp ---------------------------------------------------------


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment_stamp(seed: int) -> Dict[str, Any]:
    from repro.crypto import fixed_base
    from repro.sim.kernel import Kernel
    from repro.spread.config import SpreadConfig

    config = SpreadConfig(daemons=("d0",))
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "scrubbed_env": SCRUBBED,
        "library_defaults": {
            "packing": config.packing,
            "ordering": config.ordering,
            "sim_scheduler": Kernel().scheduler,
            "fixed_base_fast_path": fixed_base.fast_backend_enabled(),
        },
    }


# -- one workload, in this interpreter ----------------------------------------------


def _layer_metrics(ctx: harness.Context, result: Result) -> Dict[str, float]:
    """Self time and calls per operation, per layer, plus the ratios
    that only exist in the traced run."""
    rec = ctx.rec
    out: Dict[str, float] = {}
    ops = result.traced_ops or 1.0
    layers = rec.by_layer()
    attributed = 0
    for layer in trace.LAYERS:
        row = layers[layer]
        attributed += row["self_ns"]
        out[f"{layer}.self_us_per_op"] = row["self_ns"] / 1000.0 / ops
        out[f"{layer}.calls_per_op"] = row["calls"] / ops
    busy_ns = ctx.traced_cpu * 1e9
    out["harness.self_share"] = layers[trace.HARNESS]["self_ns"] / busy_ns
    out["budget.unattributed_share"] = 1.0 - attributed / busy_ns
    out["trace.overhead_ratio"] = (
        result.untraced_ops_per_s / result.traced_ops_per_s
        if result.traced_ops_per_s else 0.0
    )
    copied = sum(r.bytes_copied for r in rec.seen["reassemblers"])
    if copied:
        # Counters run from connect, so the base is every delivery since.
        out["spread.fragments.copies_per_byte"] = copied / (result.lifetime_ops * 1e6)
    return out


def _check_coverage(ctx: harness.Context) -> None:
    """The wrappers saw what the workload design says they should."""
    rec = ctx.rec
    layers = rec.by_layer()
    for layer, (busy_on, silent_on) in trace.COVERAGE.items():
        if ctx.workload in silent_on and layers[layer]["calls"]:
            ctx.fail(
                f"coverage: {layer} recorded {layers[layer]['calls']} calls,"
                f" expected none on {ctx.workload}"
            )
        if ctx.workload == busy_on:
            for eid, name in enumerate(rec.names):
                if rec.layer_of[eid] == layer and rec.required[eid] and not rec.calls[eid]:
                    ctx.fail(f"coverage: {name} recorded no call on {ctx.workload}")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Run one workload here and return its result document."""
    stamp = environment_stamp(seed)
    ctx = harness.Context(name, seed, seconds, traced, smoke)
    workload = WORKLOADS[name]
    try:
        if inspect.iscoroutinefunction(workload):
            result = asyncio.run(workload(ctx))
        else:
            result = workload(ctx)
        layer_values: Dict[str, float] = {}
        if traced:
            if ctx.rec is None:
                ctx.fail("the traced run never installed its wrappers")
            else:
                layer_values = _layer_metrics(ctx, result)
                _check_coverage(ctx)
                if layer_values["harness.self_share"] > 0.05:
                    ctx.fail(
                        "harness.self_share ="
                        f" {layer_values['harness.self_share']:.3f} > 0.05"
                    )
    finally:
        spans = {}
        if ctx.rec is not None:
            trace.uninstall()
            spans = ctx.rec.write(harness.OUT_DIR, f"{name}.seed{seed}")

    end_to_end = {
        "setup_s": result.setup_s,
        "peak_rss_mb": result.rss_ready_mb,
        "ops_per_s": result.ops_per_s,
        "op_p50_ms": result.op_p50_ms,
    }
    rss_exit = harness.peak_rss_mb()
    counts = dict(result.counts)
    counts["process.cpu_busy_share"] = result.cpu_busy_share
    counts["process.rss_exit_mb"] = rss_exit
    counts["process.rss_growth_kb_per_op"] = (
        1024.0 * (rss_exit - result.rss_ready_mb) / result.ops if result.ops else 0.0
    )
    per_layer: Dict[str, float] = {}
    if traced:
        everything = {**result.named, **result.tails, **counts, **layer_values}
        per_layer = {
            metric: float(everything.get(metric, 0.0))
            for metric, _, _ in metrics.per_layer()
        }
    return {
        "workload": name,
        "operation": metrics.OPERATION[name],
        "traced": traced,
        "smoke": smoke,
        "seconds": seconds,
        "stamp": stamp,
        "correct": ctx.failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "violations": ctx.violations,
        "end_to_end": end_to_end,
        "named": result.named,
        "tails": result.tails,
        "counts": counts,
        "samples": result.samples,
        "mean_ops_per_s": result.mean_ops_per_s,
        "window_rates": result.window_rates,
        "per_layer": per_layer,
        "by_entry": ctx.rec.by_entry() if ctx.rec is not None else {},
        "spans": spans,
        "wrappers_left_installed": trace.installed(),
    }


def contract_line(doc: Dict[str, Any]) -> str:
    """The one JSON object the driver reads."""
    if doc["traced"]:
        units = {name: unit for name, unit, _ in metrics.per_layer()}
        values = doc["per_layer"]
    else:
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        values = doc["end_to_end"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    })


# -- the report ---------------------------------------------------------------------


def print_report(doc: Dict[str, Any]) -> None:
    name = doc["workload"]
    mode = "traced" if doc["traced"] else "untraced"
    print(f"== {name}  [{mode}, seed {doc['stamp']['seed']},"
          f" {doc['seconds']:g} s]  op = {doc['operation']}")
    for metric, unit, better in metrics.END_TO_END:
        print(f"  {metric:<28} {doc['end_to_end'][metric]:>14.4f} {unit:<6} ({better} is better)")
    print(f"  {'mean_ops_per_s':<28} {doc['mean_ops_per_s']:>14.4f} op/s   (whole-phase mean)")
    for metric, value in doc["named"].items():
        print(f"  {metric:<28} {value:>14.4f} {metrics.NAMED[metric][0]}")
    for metric, value in doc["tails"].items():
        print(f"  {metric:<28} {value:>14.4f} {metrics.TAILS[metric]:<6} (diagnostic, not gated)")
    samples = ", ".join(f"{k}={v}" for k, v in doc["samples"].items())
    print(f"  samples: {samples}")
    for metric, value in doc["counts"].items():
        print(f"  {metric:<44} {value:>14.4f} {metrics.COUNTS[metric][0]}")
    print(f"  attempted={doc['attempted']} failed={doc['failed']}"
          f" correct={doc['correct']}")
    for note in doc["violations"]:
        print(f"  VIOLATION: {note}")
    if doc["traced"]:
        print_budget([doc])


def print_budget(docs: List[Dict[str, Any]]) -> None:
    """The layer x workload budget: self us per op (calls per op)."""
    names = [doc["workload"] for doc in docs]
    print("\n  layer budget: self us/op (calls/op)")
    width = max(len(m) for m in metrics.TRACE_ONLY) + 2
    print("  " + f"{'layer':<{width}}" + "".join(f"{n:>26}" for n in names))
    for layer in trace.LAYERS:
        cells = []
        for doc in docs:
            layers = doc["per_layer"]
            cells.append(
                f"{layers[f'{layer}.self_us_per_op']:>14.2f}"
                f" ({layers[f'{layer}.calls_per_op']:>8.2f})"
            )
        print("  " + f"{layer:<{width}}" + "".join(f"{c:>26}" for c in cells))
    for metric in metrics.TRACE_ONLY + ("process.cpu_busy_share",):
        cells = "".join(f"{doc['per_layer'][metric]:>26.4f}" for doc in docs)
        print("  " + f"{metric:<{width}}" + cells)


# -- all workloads, each in a fresh interpreter ------------------------------------


def run_all(args: argparse.Namespace) -> int:
    docs: List[Dict[str, Any]] = []
    status = 0
    modes = [False, True] if args.trace else [False]
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        for traced in modes:
            traced_docs = []
            for name in metrics.WORKLOADS:
                doc_path = harness.OUT_DIR / f"{name}.seed{seed}.trace{int(traced)}.json"
                doc_path.unlink(missing_ok=True)
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(int(traced)), "--doc", str(doc_path),
                ]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, timeout=600)
                status = status or done.returncode
                if doc_path.exists():
                    docs.append(json.loads(doc_path.read_text()))
                    if traced:
                        traced_docs.append(docs[-1])
            if traced_docs:
                print("\n== layer x workload budget (traced run)")
                print_budget(traced_docs)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": docs}, indent=1) + "\n")
        print(f"wrote {args.out}")
    return status


# -- comparing two result files -------------------------------------------------------


def _spread(values: List[float]) -> float:
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both medians, the ratio with
    its base, and a verdict against the bound in BENCHMARK.json."""
    manifest = json.loads(MANIFEST.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in manifest["end_to_end"]}

    def load(path: str) -> Dict[str, Dict[str, List[float]]]:
        table: Dict[str, Dict[str, List[float]]] = {}
        for doc in json.loads(Path(path).read_text())["runs"]:
            if doc["traced"]:
                continue
            row = table.setdefault(doc["workload"], {})
            for metric, value in doc["end_to_end"].items():
                row.setdefault(metric, []).append(value)
        return table

    base, new = load(path_a), load(path_b)
    regressed = 0
    print(f"{'workload':<18}{'metric':<14}{'A median':>14}{'B median':>14}"
          f"{'B/A':>9}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    for workload in metrics.WORKLOADS:
        for metric, (bound, better) in bounds.items():
            a = base.get(workload, {}).get(metric)
            b = new.get(workload, {}).get(metric)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = med_b / med_a
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spread_a, spread_b = _spread(a), _spread(b)
            if worse <= bound:
                verdict = "unchanged"
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "regressed"
                regressed += 1
            print(f"{workload:<18}{metric:<14}{med_a:>14.4f}{med_b:>14.4f}"
                  f"{ratio:>8.3f}x{bound:>7.2f}{spread_a:>10.3f}{spread_b:>10.3f}"
                  f"  {verdict} (B/A, base A n={len(a)}, B n={len(b)})")
    return 1 if regressed else 0


# -- command line ------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS,
                        help="run one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                        help="all-workloads mode: comma-separated seeds")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s phases, n = 8: structure and correctness only")
    parser.add_argument("--doc", help="write this run's full result document here")
    parser.add_argument("--out", help="all-workloads mode: write every document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        args.seconds = float(SMOKE_SECONDS)
    if args.workload is None:
        args.seeds = args.seeds or [args.seed]
        return run_all(args)
    doc = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    if args.doc:
        Path(args.doc).write_text(json.dumps(doc))
    print_report(doc)
    print(contract_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
