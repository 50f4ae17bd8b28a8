"""Control-plane A/B harness: key agreement, fast path vs reference —
and the three-way protocol comparison.

Measures whole paper-512 join and leave key-agreement operations with
the fixed-base/multi-exponentiation backend enabled against the bare
``pow`` reference backend, **interleaved in the same timing window**
(iterations alternate backends), so the recorded speedups survive host
CPU drift.  Results land in ``BENCH_keyagree.json`` at the repository root
— usually via :mod:`repro.bench.sweep`, which combines this harness
with the parallel figure sweep.

What is timed is the paper's *serial* path — the exponentiations that
sit on the operation's critical path at the controller/sponsor and the
joining/affected member (the quantity Figures 3-4 model).  Other
members' downflow/keydist/tree processing happens outside the timed
window (it is parallel across machines in the deployment), as does
restoring the group to its original size between iterations.

Every iteration also captures the per-label exponentiation-counter
window of the timed participants; the harness asserts the fast and
reference backends record **identical** counts (``counts_identical``) —
the fast path must be invisible to the paper's Tables 2-4.

:func:`run_comparison` pits all three protocols against each other at
group sizes up to 128 — Cliques and CKD pay O(n) serial
exponentiations per event where TGDH pays O(log n) — and records both
the counter evidence and the wall-clock medians in ``BENCH_tgdh.json``.

Run it::

    python -m repro.bench.keyagree             # A/B harness only
    python -m repro.bench.keyagree --compare   # + three-way comparison
    python -m repro.bench.keyagree --modules tgdh   # subset of protocols
    python -m repro.bench.sweep                # harness + figure sweep
    benchmarks/run_keyagree.sh                 # same as the sweep run
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto import fixed_base
from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHParams
from repro.sim.rng import stable_seed
from repro.testbed import ProtocolGroup

SCHEMA = "keyagree-fastpath/1"
COMPARISON_SCHEMA = "keyagree-comparison/1"

#: The pluggable protocols the harness can drive.
MODULES = ("cliques", "ckd", "tgdh")

#: Full-run group sizes: the ISSUE's "large groups" regime, past the
#: paper's measured range, where the control plane dominates hardest.
FULL_SIZES = (32, 64)
QUICK_SIZES = (8,)
FULL_ITERATIONS = 7
QUICK_ITERATIONS = 2

#: Three-way comparison sizes: doubling up to 128 exposes the
#: logarithmic-vs-linear growth laws in both counts and wall-clock.
COMPARISON_SIZES = (4, 8, 16, 32, 64, 128)
QUICK_COMPARISON_SIZES = (4, 8)

_DEFAULT_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_keyagree.json"
_COMPARISON_OUTPUT = Path(__file__).resolve().parents[3] / "BENCH_tgdh.json"

#: (elapsed seconds, merged per-label counter window) of one timed run.
Sample = Tuple[float, Dict[str, int]]


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _merged_window(windows: Sequence[ExpCounter]) -> Dict[str, int]:
    merged = ExpCounter()
    for window in windows:
        merged.merge(window)
    return merged.snapshot()


def _warm_tables(group: ProtocolGroup) -> None:
    """Deployment start-up precomputation: build fixed-base tables for
    every long-lived base — the generator and the directory's long-term
    public keys (and, for CKD, the controller's tenure ephemeral).

    These are exactly the bases a real deployment would precompute once
    at boot; per-token bases stay table-free and are measured honestly.
    """
    cache = fixed_base.default_cache()
    modulus = group.params.p
    cache.lookup(group.params.g, modulus)  # registered: builds the radix table
    for name in group.directory:
        cache.precompute(group.directory.lookup(name), modulus)
    if group.protocol == "ckd":
        controller = group.contexts[group.members[0]]
        public_r1 = getattr(controller, "_public_r1", None)
        if public_r1:
            cache.precompute(public_r1, modulus)


# -- the timed serial paths ---------------------------------------------------
#
# Each function performs one operation cycle on the group: the paper's
# serial path inside the timed window, state restoration outside it.
# The group returns to its pre-call size, so cycles repeat indefinitely.


def _cycle_cliques_join(group: ProtocolGroup) -> Sample:
    name = group._fresh_name()
    joiner = group._make_context(name)
    controller = group.contexts[group.members[-1]]
    with controller.counter.window() as ctrl_win:
        with joiner.counter.window() as join_win:
            start = time.perf_counter()
            upflow = controller.prep_join(name)
            downflow = joiner.process_upflow(upflow)
            elapsed = time.perf_counter() - start
    for member in group.members:
        group.contexts[member].process_downflow(downflow)
    group.members.append(name)
    group.leave(name)  # restore: previous controller removes the joiner
    return elapsed, _merged_window([ctrl_win, join_win])


def _cycle_cliques_leave(group: ProtocolGroup) -> Sample:
    leaver = group.members[-1]  # the controller — the paper's hard case
    remaining = [m for m in group.members if m != leaver]
    performer = group.contexts[remaining[-1]]
    with performer.counter.window() as perf_win:
        start = time.perf_counter()
        downflow = performer.leave([leaver])
        elapsed = time.perf_counter() - start
    for member in remaining[:-1]:
        group.contexts[member].process_downflow(downflow)
    del group.contexts[leaver]
    group.members = remaining
    group.join()  # restore the original size
    return elapsed, _merged_window([perf_win])


def _cycle_ckd_join(group: ProtocolGroup) -> Sample:
    name = group._fresh_name()
    joiner = group._make_context(name)
    controller = group.contexts[group.members[0]]
    with controller.counter.window() as ctrl_win:
        with joiner.counter.window() as join_win:
            start = time.perf_counter()
            hello = controller.start_join(name)
            response = joiner.process_hello(hello)
            keydist = controller.process_response(response)
            joiner.process_keydist(keydist)
            elapsed = time.perf_counter() - start
    for member in group.members[1:]:
        group.contexts[member].process_keydist(keydist)
    group.members.append(name)
    group.leave(name)  # restore: controller distributes without the joiner
    return elapsed, _merged_window([ctrl_win, join_win])


def _cycle_ckd_leave(group: ProtocolGroup) -> Sample:
    leaver = group.members[-1]  # newest member: a plain (round-3-only) leave
    controller = group.contexts[group.members[0]]
    remaining = [m for m in group.members if m != leaver]
    with controller.counter.window() as ctrl_win:
        start = time.perf_counter()
        keydist = controller.leave([leaver])
        elapsed = time.perf_counter() - start
    for member in remaining[1:]:
        group.contexts[member].process_keydist(keydist)
    del group.contexts[leaver]
    group.members = remaining
    group.join()  # restore the original size
    return elapsed, _merged_window([ctrl_win])


def _tgdh_propagate(group: ProtocolGroup, token, done=()) -> None:
    """Deliver the sponsor's tree broadcast to the members outside the
    timed window (their climbs run in parallel in a deployment) and
    drain any blinded-key gossip to convergence."""
    queue = []
    for member in group.members:
        if member == token.sender or member in done:
            continue
        update = group.contexts[member].process_tree(token)
        if update is not None:
            queue.append(update)
    while queue:
        current = queue.pop(0)
        for member in group.members:
            if member == current.sender:
                continue
            update = group.contexts[member].process_update(current)
            if update is not None:
                queue.append(update)


def _cycle_tgdh_join(group: ProtocolGroup) -> Sample:
    name = group._fresh_name()
    joiner = group._make_context(name)
    sponsor = group.contexts[group.members[0]].sponsor_for([], [name])
    sponsor_ctx = group.contexts[sponsor]
    with sponsor_ctx.counter.window() as sponsor_win:
        with joiner.counter.window() as join_win:
            start = time.perf_counter()
            announce = joiner.make_join_request(group.group_name)
            token = sponsor_ctx.start_event([], {name: announce.blinded})
            joiner.process_tree(token)
            elapsed = time.perf_counter() - start
    group.members.append(name)
    _tgdh_propagate(group, token, done=(name,))
    group.leave(name)  # restore the original size
    return elapsed, _merged_window([sponsor_win, join_win])


def _cycle_tgdh_leave(group: ProtocolGroup) -> Sample:
    leaver = group.key_controller  # the sponsor seat — the hardest case
    remaining = [m for m in group.members if m != leaver]
    sponsor = group.contexts[remaining[0]].sponsor_for([leaver], [])
    del group.contexts[leaver]
    group.members = remaining
    sponsor_ctx = group.contexts[sponsor]
    with sponsor_ctx.counter.window() as sponsor_win:
        start = time.perf_counter()
        token = sponsor_ctx.start_event([leaver], {})
        elapsed = time.perf_counter() - start
    _tgdh_propagate(group, token)
    group.join()  # restore the original size
    return elapsed, _merged_window([sponsor_win])


_CYCLES: Dict[Tuple[str, str], Callable[[ProtocolGroup], Sample]] = {
    ("cliques", "join"): _cycle_cliques_join,
    ("cliques", "leave"): _cycle_cliques_leave,
    ("ckd", "join"): _cycle_ckd_join,
    ("ckd", "leave"): _cycle_ckd_leave,
    ("tgdh", "join"): _cycle_tgdh_join,
    ("tgdh", "leave"): _cycle_tgdh_leave,
}


def run_cell(
    protocol: str,
    operation: str,
    size: int,
    iterations: int,
    params: Optional[DHParams] = None,
) -> Dict[str, object]:
    """One A/B cell: interleaved fast/reference timings of one operation
    at one group size.  ``size`` is the group size the operation *ends*
    at for joins and *starts* at for leaves (the paper's convention)."""
    params = params if params is not None else DHParams.paper_512()
    cycle = _CYCLES[(protocol, operation)]
    group = ProtocolGroup(
        protocol,
        params=params,
        seed=stable_seed("keyagree", protocol, operation, size),
    )
    group.grow_to(size - 1 if operation == "join" else size)
    _warm_tables(group)
    # One untimed warm-up cycle per backend: builds any remaining tables
    # and touches the same code paths so iteration 1 is steady-state.
    for warm in (True, False):
        with fixed_base.fast_backend(warm):
            cycle(group)

    fast_samples: List[Sample] = []
    ref_samples: List[Sample] = []
    for index in range(2 * iterations):
        fast_turn = index % 2 == 0  # strict interleaving: drift-proof ratio
        with fixed_base.fast_backend(fast_turn):
            sample = cycle(group)
        (fast_samples if fast_turn else ref_samples).append(sample)

    fast_counts = [counts for _, counts in fast_samples]
    ref_counts = [counts for _, counts in ref_samples]
    counts_identical = all(c == fast_counts[0] for c in fast_counts + ref_counts)
    fast_median = _median([elapsed for elapsed, _ in fast_samples])
    ref_median = _median([elapsed for elapsed, _ in ref_samples])
    return {
        "protocol": protocol,
        "operation": operation,
        "size": size,
        "iterations": iterations,
        "fast_median_s": fast_median,
        "ref_median_s": ref_median,
        "speedup": ref_median / fast_median,
        "counts_identical": counts_identical,
        "exp_counts": fast_counts[0],
    }


def _check_modules(modules: Optional[Sequence[str]]) -> Tuple[str, ...]:
    chosen = tuple(modules) if modules else MODULES
    unknown = [m for m in chosen if m not in MODULES]
    if unknown:
        raise ValueError(f"unknown modules {unknown}; known: {list(MODULES)}")
    return chosen


def run_harness(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    params: Optional[DHParams] = None,
    modules: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run every (protocol, operation, size) cell; returns the JSON-ready
    document.  ``quick`` is the tier-1 smoke configuration."""
    params = params if params is not None else DHParams.paper_512()
    sizes = tuple(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    iterations = iterations or (QUICK_ITERATIONS if quick else FULL_ITERATIONS)
    modules = _check_modules(modules)
    cells = [
        run_cell(protocol, operation, size, iterations, params)
        for protocol in modules
        for operation in ("join", "leave")
        for size in sizes
    ]
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": quick,
        "params": params.name,
        "modules": list(modules),
        "sizes": list(sizes),
        "iterations": iterations,
        # One untimed warm-up cycle per backend runs before sampling in
        # every cell (see run_cell); it never lands in the medians.
        "warmup_cycles": 1,
        "cells": cells,
        "median_speedup_joinleave": _median([c["speedup"] for c in cells]),
        "all_counts_identical": all(c["counts_identical"] for c in cells),
        "fixed_base_cache": fixed_base.default_cache().stats(),
    }


def run_comparison(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    params: Optional[DHParams] = None,
    modules: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The three-way protocol comparison behind ``BENCH_tgdh.json``.

    For every (module, operation, size) it records the timed serial
    path's wall-clock median (fast backend) and the per-label
    exponentiation counts of the timed participants — the evidence for
    TGDH's O(log n) events against the O(n) of Cliques and CKD.
    """
    params = params if params is not None else DHParams.paper_512()
    sizes = tuple(sizes) if sizes else (
        QUICK_COMPARISON_SIZES if quick else COMPARISON_SIZES
    )
    iterations = iterations or (QUICK_ITERATIONS if quick else FULL_ITERATIONS)
    modules = _check_modules(modules)
    cells: List[Dict[str, object]] = []
    for protocol in modules:
        for operation in ("join", "leave"):
            for size in sizes:
                cycle = _CYCLES[(protocol, operation)]
                group = ProtocolGroup(
                    protocol,
                    params=params,
                    seed=stable_seed("compare", protocol, operation, size),
                )
                group.grow_to(size - 1 if operation == "join" else size)
                _warm_tables(group)
                with fixed_base.fast_backend(True):
                    cycle(group)  # untimed warm-up
                    samples = [cycle(group) for _ in range(iterations)]
                counts = [c for _, c in samples]
                cells.append(
                    {
                        "protocol": protocol,
                        "operation": operation,
                        "size": size,
                        "iterations": iterations,
                        "median_s": _median([t for t, _ in samples]),
                        "serial_exps": sum(counts[0].values()),
                        "exp_counts": counts[0],
                        "counts_identical": all(c == counts[0] for c in counts),
                    }
                )
    by_cell = {
        (c["protocol"], c["operation"], c["size"]): c for c in cells
    }

    def growth(protocol: str, operation: str) -> List[int]:
        return [
            by_cell[(protocol, operation, size)]["serial_exps"]
            for size in sizes
            if (protocol, operation, size) in by_cell
        ]

    return {
        "schema": COMPARISON_SCHEMA,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": quick,
        "params": params.name,
        "modules": list(modules),
        "sizes": list(sizes),
        "iterations": iterations,
        "warmup_cycles": 1,
        "cells": cells,
        "serial_exps_by_size": {
            f"{protocol}/{operation}": growth(protocol, operation)
            for protocol in modules
            for operation in ("join", "leave")
        },
        "all_counts_identical": all(c["counts_identical"] for c in cells),
    }


def dump_metrics(dump_dir: str, document: Dict[str, object]) -> str:
    """Write a metrics-only observability dump of a harness document.

    The A/B harness has no simulation trace, so the dump carries an
    empty ``trace.jsonl`` and a :class:`~repro.obs.metrics.MetricsRegistry`
    built from the cells: per-cell ``keyagree.exponentiations`` counters
    (labelled by module/operation/size/op, the Tables 2-4 axes) and the
    wall-clock medians as gauges.  Inspect it with
    ``python -m repro.obs.inspect DIR``.
    """
    from repro.obs.dump import DUMP_SCHEMA, dump_run
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for cell in document["cells"]:
        labels = {
            "module": cell["protocol"],
            "operation": cell["operation"],
            "size": str(cell["size"]),
        }
        for op, count in cell["exp_counts"].items():
            registry.counter(
                "keyagree.exponentiations", op=op, **labels
            ).inc(count)
        registry.gauge("keyagree.fast_median_s", **labels).set(
            cell["fast_median_s"]
        )
        registry.gauge("keyagree.ref_median_s", **labels).set(
            cell["ref_median_s"]
        )
    return dump_run(
        str(Path(dump_dir) / "keyagree-bench"),
        events=[],
        metrics=registry,
        meta={
            "schema": DUMP_SCHEMA,
            "benchmark": "keyagree_fastpath",
            "module": ",".join(document["modules"]),
            "quick": document["quick"],
            "sizes": document["sizes"],
            "iterations": document["iterations"],
            "warmup_cycles": document["warmup_cycles"],
            "all_counts_identical": document["all_counts_identical"],
        },
    )


def write_report(
    document: Dict[str, object], output: Optional[Path] = None
) -> Path:
    """Write the result document as pretty JSON; returns the path."""
    path = Path(output) if output is not None else _DEFAULT_OUTPUT
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def write_comparison(
    document: Dict[str, object], output: Optional[Path] = None
) -> Path:
    """Write the three-way comparison document (``BENCH_tgdh.json``)."""
    path = Path(output) if output is not None else _COMPARISON_OUTPUT
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def _parse_modules(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.keyagree",
        description=(
            "Control-plane key-agreement benchmarks: fast-path A/B"
            " harness and the three-way protocol comparison"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke-sized run (< 5 s)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="alias for --quick (CI smoke entry point)",
    )
    parser.add_argument(
        "--modules",
        type=str,
        default=None,
        help=(
            "comma-separated protocol subset"
            f" (default: {','.join(MODULES)})"
        ),
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the three-way comparison (writes BENCH_tgdh.json)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="group sizes"
    )
    parser.add_argument(
        "--iterations", type=int, default=None, help="A/B rounds per cell"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"output JSON path (default: {_DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--comparison-output",
        type=Path,
        default=None,
        help=f"comparison JSON path (default: {_COMPARISON_OUTPUT})",
    )
    parser.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="also write a metrics-only observability dump under DIR"
        " (inspect with: python -m repro.obs.inspect DIR)",
    )
    args = parser.parse_args(argv)
    quick = args.quick or args.smoke
    modules = _parse_modules(args.modules)
    started = time.perf_counter()
    document = run_harness(
        quick=quick,
        sizes=args.sizes,
        iterations=args.iterations,
        modules=modules,
    )
    document["harness_elapsed_s"] = time.perf_counter() - started
    path = write_report(document, args.output)
    print(f"wrote {path}")
    for cell in document["cells"]:
        print(
            f"  {cell['protocol']:8s} {cell['operation']:6s} n={cell['size']:<4d}"
            f" fast {cell['fast_median_s'] * 1e3:8.2f} ms"
            f"  ref {cell['ref_median_s'] * 1e3:8.2f} ms"
            f"  x{cell['speedup']:.2f}"
            f"  counts_identical={cell['counts_identical']}"
        )
    print(
        f"  median speedup {document['median_speedup_joinleave']:.2f}x,"
        f" counts identical: {document['all_counts_identical']}"
    )
    if args.dump_dir:
        print(f"wrote obs dump {dump_metrics(args.dump_dir, document)}")
    if args.compare:
        started = time.perf_counter()
        comparison = run_comparison(
            quick=quick, iterations=args.iterations, modules=modules
        )
        comparison["harness_elapsed_s"] = time.perf_counter() - started
        comparison_path = write_comparison(comparison, args.comparison_output)
        print(f"wrote {comparison_path}")
        for cell in comparison["cells"]:
            print(
                f"  {cell['protocol']:8s} {cell['operation']:6s}"
                f" n={cell['size']:<4d}"
                f" serial_exps={cell['serial_exps']:<4d}"
                f" median {cell['median_s'] * 1e3:8.2f} ms"
                f"  counts_identical={cell['counts_identical']}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
