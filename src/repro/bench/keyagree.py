"""Control-plane A/B harness: key agreement, fast path vs reference —
and the three-way protocol comparison.

Measures whole paper-512 join and leave key-agreement operations with
the fixed-base/multi-exponentiation backend enabled against the bare
``pow`` reference backend, **interleaved in the same timing window**
(iterations alternate backends), so the recorded speedups survive host
CPU drift.  Results land in ``BENCH_keyagree.json`` at the repository
root, together with the parallel figure sweep (:mod:`repro.bench.sweep`).

What is timed and counted is the paper's *serial* path, by the one rule
of :class:`repro.testbed.Operation`: the handler calls of the members
that emitted a message during the operation (controller/sponsor and
joiner sit on the critical path; everyone else absorbs one broadcast,
in parallel across machines).  Restoring the group size between
iterations is outside the window.  The harness asserts the fast and
reference backends record **identical** per-label counts
(``counts_identical``) — the fast path must be invisible to Tables 2-4.
The modules are the production ``KeyAgreementModule`` handlers, so a
fourth ``register_module`` module is benched by naming it in
``--modules``.

:func:`run_comparison` pits the protocols against each other at group
sizes up to 128 — Cliques and CKD pay O(n) serial exponentiations per
event where TGDH pays O(log n) — and records the counts and wall-clock
medians in ``BENCH_tgdh.json``.

Run it::

    python -m repro.bench.keyagree                # A/B harness + figure sweep
    python -m repro.bench.keyagree --quick        # smoke-sized
    python -m repro.bench.keyagree --skip-sweep   # A/B harness only
    python -m repro.bench.keyagree --compare      # + three-way comparison
    python -m repro.bench.keyagree --modules tgdh # subset of protocols
    benchmarks/run_keyagree.sh                    # the same command
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import sweep
from repro.crypto import fixed_base
from repro.crypto.dh import DHParams
from repro.sim.rng import stable_seed
from repro.testbed import ProtocolGroup

SCHEMA = "keyagree-fastpath/1"
COMPARISON_SCHEMA = "keyagree-comparison/1"

#: The default run list; any registered module name is accepted.
MODULES = ("cliques", "ckd", "tgdh")

#: Full-run group sizes: the "large groups" regime, past the
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


def _warm_tables(group: ProtocolGroup) -> None:
    """Deployment start-up precomputation: fixed-base tables for the
    generator and the directory's long-term public keys.  Per-token
    bases stay table-free and are measured honestly (one a tenure keeps
    re-using earns its table by the cache's promote-after-three rule
    while the group grows)."""
    cache = fixed_base.default_cache()
    modulus = group.params.p
    cache.lookup(group.params.g, modulus)  # registered: builds the radix table
    for name in group.directory:
        cache.precompute(group.directory.lookup(name), modulus)


def _cycle(group: ProtocolGroup, operation: str) -> Sample:
    """One measured operation, then the restoring one: the group returns
    to its pre-call size, so cycles repeat indefinitely.  What is timed
    and counted is :class:`~repro.testbed.Operation`'s one serial rule;
    the leaver is the newest member for every module (Cliques' hard
    case — its controller — and a plain leave for the others)."""
    if operation == "join":
        measured = group.join()
        group.leave(group.members[-1])
    else:
        measured = group.leave(group.members[-1])
        group.join()
    return measured.seconds, measured.counts


def _prepared_group(
    tag: str, protocol: str, operation: str, size: int, params: DHParams
) -> ProtocolGroup:
    """A grown, table-warmed group; ``size`` is the group size the
    operation *ends* at for joins and *starts* at for leaves (the
    paper's convention)."""
    group = ProtocolGroup(
        protocol,
        params=params,
        seed=stable_seed(tag, protocol, operation, size),
    )
    group.grow_to(size - 1 if operation == "join" else size)
    _warm_tables(group)
    return group


def run_cell(
    protocol: str,
    operation: str,
    size: int,
    iterations: int,
    params: Optional[DHParams] = None,
) -> Dict[str, object]:
    """One A/B cell: interleaved fast/reference timings of one operation
    at one group size."""
    params = params if params is not None else DHParams.paper_512()
    group = _prepared_group("keyagree", protocol, operation, size, params)
    # One untimed warm-up cycle per backend: builds any remaining tables
    # and touches the same code paths so iteration 1 is steady-state.
    for warm in (True, False):
        with fixed_base.fast_backend(warm):
            _cycle(group, operation)

    samples: Dict[bool, List[Sample]] = {True: [], False: []}
    for index in range(2 * iterations):
        fast_turn = index % 2 == 0  # strict interleaving: drift-proof ratio
        with fixed_base.fast_backend(fast_turn):
            samples[fast_turn].append(_cycle(group, operation))

    counts = [counts for _, counts in samples[True] + samples[False]]
    fast_median, ref_median = (
        median(elapsed for elapsed, _ in samples[fast]) for fast in (True, False)
    )
    return {
        "protocol": protocol,
        "operation": operation,
        "size": size,
        "iterations": iterations,
        "fast_median_s": fast_median,
        "ref_median_s": ref_median,
        # A module that exchanges no message has no serial path to time.
        "speedup": ref_median / fast_median if fast_median else 1.0,
        "counts_identical": all(c == counts[0] for c in counts),
        "exp_counts": counts[0],
    }


def compare_cell(
    protocol: str, operation: str, size: int, iterations: int, params: DHParams
) -> Dict[str, object]:
    """One comparison cell: the serial path's wall-clock median on the
    fast backend and its per-label exponentiation counts."""
    group = _prepared_group("compare", protocol, operation, size, params)
    with fixed_base.fast_backend(True):
        _cycle(group, operation)  # untimed warm-up
        samples = [_cycle(group, operation) for _ in range(iterations)]
    counts = [c for _, c in samples]
    return {
        "protocol": protocol,
        "operation": operation,
        "size": size,
        "iterations": iterations,
        "median_s": median(t for t, _ in samples),
        "serial_exps": sum(counts[0].values()),
        "exp_counts": counts[0],
        "counts_identical": all(c == counts[0] for c in counts),
    }


def _check_modules(modules: Optional[Sequence[str]]) -> Tuple[str, ...]:
    chosen = tuple(modules) if modules else MODULES
    for name in chosen:
        ProtocolGroup(name)  # an unknown name raises the registry's error
    return chosen


def _document(schema, cell, quick, sizes, iterations, params, modules):
    """Run ``cell`` for every (module, operation, size) and wrap the
    results in the header both documents share."""
    params = params if params is not None else DHParams.paper_512()
    iterations = iterations or (QUICK_ITERATIONS if quick else FULL_ITERATIONS)
    modules = _check_modules(modules)
    cells = [
        cell(protocol, operation, size, iterations, params)
        for protocol in modules
        for operation in ("join", "leave")
        for size in sizes
    ]
    return {
        "schema": schema,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick": quick,
        "params": params.name,
        "modules": list(modules),
        "sizes": list(sizes),
        "iterations": iterations,
        # One untimed warm-up cycle (per backend) runs before sampling
        # in every cell; it never lands in the medians.
        "warmup_cycles": 1,
        "cells": cells,
        "all_counts_identical": all(c["counts_identical"] for c in cells),
    }


def run_harness(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    params: Optional[DHParams] = None,
    modules: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run every (protocol, operation, size) cell; returns the JSON-ready
    document.  ``quick`` is the tier-1 smoke configuration."""
    sizes = tuple(sizes) if sizes else (QUICK_SIZES if quick else FULL_SIZES)
    document = _document(
        SCHEMA, run_cell, quick, sizes, iterations, params, modules
    )
    document["median_speedup_joinleave"] = median(
        c["speedup"] for c in document["cells"]
    )
    document["fixed_base_cache"] = fixed_base.default_cache().stats()
    return document


def run_comparison(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    params: Optional[DHParams] = None,
    modules: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The three-way protocol comparison behind ``BENCH_tgdh.json``: the
    evidence for TGDH's O(log n) events against the O(n) of Cliques and
    CKD, in counts and in wall-clock."""
    sizes = tuple(sizes) if sizes else (
        QUICK_COMPARISON_SIZES if quick else COMPARISON_SIZES
    )
    document = _document(
        COMPARISON_SCHEMA, compare_cell, quick, sizes, iterations, params, modules
    )
    document["serial_exps_by_size"] = {
        f"{protocol}/{operation}": [
            c["serial_exps"]
            for c in document["cells"]
            if (c["protocol"], c["operation"]) == (protocol, operation)
        ]
        for protocol in document["modules"]
        for operation in ("join", "leave")
    }
    return document


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
        for gauge in ("fast_median_s", "ref_median_s"):
            registry.gauge(f"keyagree.{gauge}", **labels).set(cell[gauge])
    return dump_run(
        str(Path(dump_dir) / "keyagree-bench"),
        events=[],
        metrics=registry,
        meta={
            "schema": DUMP_SCHEMA,
            "benchmark": "keyagree_fastpath",
            "module": ",".join(document["modules"]),
            **{key: document[key] for key in (
                "quick", "sizes", "iterations", "warmup_cycles",
                "all_counts_identical",
            )},
        },
    )


def write_report(
    document: Dict[str, object],
    output: Optional[Path] = None,
    default: Path = _DEFAULT_OUTPUT,
) -> Path:
    """Write the result document as pretty JSON; returns the path."""
    path = Path(output) if output is not None else default
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
            " harness, parallel figure sweep and the three-way protocol"
            " comparison"
        ),
    )
    parser.add_argument(
        "--quick", "--smoke", action="store_true",
        help="smoke-sized run (< 10 s; --smoke is the CI entry point)",
    )
    parser.add_argument(
        "--modules",
        type=str,
        default=None,
        help=(
            "comma-separated protocol subset for the A/B harness and the"
            f" comparison (default: {','.join(MODULES)})"
        ),
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the three-way comparison (writes BENCH_tgdh.json)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="A/B group sizes"
    )
    parser.add_argument(
        "--iterations", type=int, default=None, help="A/B rounds per cell"
    )
    parser.add_argument(
        "--skip-sweep", action="store_true", help="leave the figure sweep out"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: cores)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="trials per sweep cell"
    )
    parser.add_argument("--figure3-sizes", type=int, nargs="+", default=None)
    parser.add_argument("--figure4-sizes", type=int, nargs="+", default=None)
    parser.add_argument(
        "--seed", type=int, default=sweep.DEFAULT_BASE_SEED,
        help="sweep base seed",
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
    quick = args.quick
    modules = _parse_modules(args.modules)
    started = time.perf_counter()
    # The A/B harness times interleaved operations: it must own the CPU,
    # so it runs serially, before any sweep worker process exists.
    document = run_harness(
        quick=quick,
        sizes=args.sizes,
        iterations=args.iterations,
        modules=modules,
    )
    if not args.skip_sweep:
        document["sweep"] = sweep.run_sweep(
            figure3_sizes=args.figure3_sizes
            or (sweep.QUICK_FIGURE3_SIZES if quick else sweep.FIGURE3_SIZES),
            figure4_sizes=args.figure4_sizes
            or (sweep.QUICK_FIGURE4_SIZES if quick else sweep.FIGURE4_SIZES),
            trials=args.trials or (1 if quick else sweep.DEFAULT_TRIALS),
            jobs=args.jobs,
            base_seed=args.seed,
        )
    document["harness_elapsed_s"] = time.perf_counter() - started
    print(f"wrote {write_report(document, args.output)}")
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
    if "sweep" in document:
        swept = document["sweep"]
        print(
            f"  sweep: {len(swept['cells'])} cells on {swept['jobs']} workers"
            f" in {swept['elapsed_s']:.1f}s,"
            f" figure4 trials consistent: {swept['figure4_trials_consistent']}"
        )
    if args.dump_dir:
        print(f"wrote obs dump {dump_metrics(args.dump_dir, document)}")
    if args.compare:
        started = time.perf_counter()
        comparison = run_comparison(
            quick=quick, iterations=args.iterations, modules=modules
        )
        comparison["harness_elapsed_s"] = time.perf_counter() - started
        comparison_path = write_report(
            comparison, args.comparison_output, _COMPARISON_OUTPUT
        )
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
