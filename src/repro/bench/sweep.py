"""Parallel experiment-sweep runner.

Every (figure, protocol, group size, trial) is an independent cell with
its own deterministic seed, fanned across a
:class:`concurrent.futures.ProcessPoolExecutor`.

Cell kinds:

* ``figure3`` — :func:`repro.bench.report.figure3_series` at the one
  size ``n`` (the full-stack :class:`~repro.testbed.SecureTestbed`:
  3 simulated machines, the paper's placement, the Pentium cost model):
  virtual seconds for a join and a leave at group size ``n``.
* ``figure4`` — pure-protocol exponentiation counts
  (:class:`~repro.testbed.ProtocolGroup`) converted to modeled CPU
  seconds on both published platforms; counts-based, so it scales to
  n = 128 in milliseconds.

Every cell's seed comes from :func:`repro.sim.rng.stable_seed` — a
sha256 derivation of ``(base seed, kind, protocol, n, trial)`` that is
identical in every worker process (built-in ``hash`` is per-process
salted and would silently break cross-process reproducibility).  A cell
therefore produces the same result serial or parallel, on any worker,
in any order — asserted by ``tests/bench/test_keyagree_harness.py``.

``python -m repro.bench.keyagree`` runs the sweep after the interleaved
A/B key-agreement harness (the A/B part first and serially: timing
cells must not compete for cores) and records both in
``BENCH_keyagree.json``; ``--skip-sweep`` leaves it out.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.bench.platform_model import PENTIUM_II_450, SUN_ULTRA2
from repro.bench.report import figure3_series, serial_total
from repro.sim.rng import stable_seed

#: Figure 4 is counts-based: extending past the paper's n=30 to 128 is
#: cheap and shows the asymptotic gap between the protocols.
FIGURE4_SIZES = (8, 16, 32, 64, 128)
#: Figure 3 runs the whole simulated deployment per join; cost grows
#: superlinearly with n, so the default stops at 64.
FIGURE3_SIZES = (8, 16, 32, 64)
QUICK_FIGURE4_SIZES = (8,)
QUICK_FIGURE3_SIZES = (4,)

#: The paper's Figure 4 compares its two modules.
FIGURE4_MODULES = ("cliques", "ckd")

DEFAULT_TRIALS = 3
DEFAULT_BASE_SEED = 42


def make_cells(
    figure3_sizes: Sequence[int],
    figure4_sizes: Sequence[int],
    trials: int,
    base_seed: int,
) -> List[Dict[str, object]]:
    """The sweep's work list: plain dicts so they pickle cheaply."""
    return [
        {
            "kind": kind,
            "protocol": protocol,
            "size": n,
            "trial": trial,
            "seed": stable_seed(base_seed, kind, protocol, n, trial),
        }
        for kind, sizes, protocols in (
            ("figure3", figure3_sizes, ("cliques",)),
            ("figure4", figure4_sizes, FIGURE4_MODULES),
        )
        for n in sizes
        for protocol in protocols
        for trial in range(trials)
    ]


def run_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """Execute one cell (in whatever process it lands in)."""
    runners = {"figure3": _run_figure3_cell, "figure4": _run_figure4_cell}
    return runners[str(cell["kind"])](cell)


def _run_figure3_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """Virtual join/leave latency at size n on the simulated deployment."""
    size = int(cell["size"])
    joins, leaves = figure3_series(sizes=(size,), seed=int(cell["seed"]))
    return {
        **cell, "join_virtual_s": joins[size], "leave_virtual_s": leaves[size]
    }


def _run_figure4_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """Exponentiation counts at size n, converted to modeled CPU time."""
    join_exps, leave_exps = (
        serial_total(
            str(cell["protocol"]), operation, int(cell["size"]),
            seed=int(cell["seed"]),
        )
        for operation in ("join", "controller_leave")
    )
    return {
        **cell,
        "join_exps": join_exps,
        "ctrl_leave_exps": leave_exps,
        "join_cpu_s": {
            SUN_ULTRA2.name: SUN_ULTRA2.time_for(join_exps),
            PENTIUM_II_450.name: PENTIUM_II_450.time_for(join_exps),
        },
        "ctrl_leave_cpu_s": {
            SUN_ULTRA2.name: SUN_ULTRA2.time_for(leave_exps),
            PENTIUM_II_450.name: PENTIUM_II_450.time_for(leave_exps),
        },
    }


def run_sweep(
    figure3_sizes: Sequence[int] = FIGURE3_SIZES,
    figure4_sizes: Sequence[int] = FIGURE4_SIZES,
    trials: int = DEFAULT_TRIALS,
    jobs: Optional[int] = None,
    base_seed: int = DEFAULT_BASE_SEED,
) -> Dict[str, object]:
    """Run the whole sweep, fanning cells across ``jobs`` processes.

    ``jobs=1`` (or a single-core machine) runs serially in-process; the
    results are identical either way because every cell's seed is
    derived stably from the cell coordinates, never from process state.
    """
    cells = make_cells(figure3_sizes, figure4_sizes, trials, base_seed)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    started = time.perf_counter()
    if jobs <= 1 or len(cells) <= 1:
        results = [run_cell(cell) for cell in cells]
    else:
        # Big cells first so a straggler never anchors the tail.
        order = sorted(
            range(len(cells)),
            key=lambda i: (cells[i]["kind"] == "figure4", -int(cells[i]["size"])),
        )
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            unordered = list(pool.map(run_cell, [cells[i] for i in order]))
        results = [None] * len(cells)
        for position, result in zip(order, unordered):
            results[position] = result
    elapsed = time.perf_counter() - started
    # Trials of a figure4 cell must agree exactly (counts are seed-free);
    # figure3 trials differ only through their seeded network jitter.
    distinct = {
        (r["size"], r["protocol"], r["join_exps"], r["ctrl_leave_exps"])
        for r in results
        if r["kind"] == "figure4"
    }
    consistency = len(distinct) == len({key[:2] for key in distinct})
    return {
        "jobs": jobs,
        "base_seed": base_seed,
        "trials": trials,
        "figure3_sizes": list(figure3_sizes),
        "figure4_sizes": list(figure4_sizes),
        "cells": results,
        "figure4_trials_consistent": consistency,
        "elapsed_s": elapsed,
    }
