"""Tier-1 smoke tests for the key-agreement A/B harness and the
parallel sweep runner: one quick harness run plus one cell of each
sweep kind, so a broken bench fails in the ordinary test run."""

from __future__ import annotations

import json

import pytest

from repro.bench import keyagree
from repro.bench.sweep import make_cells, run_cell, run_sweep
from repro.errors import ModuleNotFoundError_
from repro.sim.rng import stable_seed

EXPECTED_CELL_KEYS = {
    "protocol",
    "operation",
    "size",
    "iterations",
    "fast_median_s",
    "ref_median_s",
    "speedup",
    "counts_identical",
    "exp_counts",
}


def test_quick_harness_document(tmp_path):
    document = keyagree.run_harness(quick=True)

    assert document["quick"] is True
    assert document["modules"] == list(keyagree.MODULES)
    cells = document["cells"]
    assert {(c["protocol"], c["operation"]) for c in cells} == {
        (module, operation)
        for module in keyagree.MODULES
        for operation in ("join", "leave")
    }
    for cell in cells:
        assert set(cell) == EXPECTED_CELL_KEYS
        assert cell["fast_median_s"] > 0
        assert cell["ref_median_s"] > 0
        assert sum(cell["exp_counts"].values()) > 0

    # The invariance contract: identical counts on both backends, every
    # cell, even at smoke size.
    assert document["all_counts_identical"] is True
    # At least the shared-base CKD cells must beat the reference even at
    # smoke sizes; a harness-wide ratio <= 1 means the fast path fell back.
    assert any(c["speedup"] > 1.0 for c in cells)
    assert document["median_speedup_joinleave"] > 0
    assert document["fixed_base_cache"]["builds"] > 0

    path = keyagree.write_report(document, tmp_path / "BENCH_keyagree.json")
    loaded = json.loads(path.read_text())
    assert loaded["cells"] == cells


def test_harness_module_subset_and_validation(tmp_path):
    document = keyagree.run_harness(quick=True, modules=["tgdh"])
    assert document["modules"] == ["tgdh"]
    assert {c["protocol"] for c in document["cells"]} == {"tgdh"}
    # Validated against the registry, whose message lists what it knows.
    with pytest.raises(ModuleNotFoundError_, match=r"'gdh3'.*'tgdh'"):
        keyagree.run_harness(quick=True, modules=["gdh3"])


def test_quick_comparison_document(tmp_path):
    document = keyagree.run_comparison(quick=True)

    assert document["schema"] == keyagree.COMPARISON_SCHEMA
    assert document["all_counts_identical"] is True
    cells = document["cells"]
    assert {(c["protocol"], c["operation"]) for c in cells} == {
        (module, operation)
        for module in keyagree.MODULES
        for operation in ("join", "leave")
    }
    by_key = {
        (c["protocol"], c["operation"], c["size"]): c for c in cells
    }
    for cell in cells:
        assert cell["median_s"] > 0
        assert cell["serial_exps"] == sum(cell["exp_counts"].values())
    # The headline asymptotics, visible even at smoke sizes: doubling n
    # doubles-ish the Cliques join cost but adds a constant to TGDH's.
    sizes = document["sizes"]
    small, large = sizes[0], sizes[-1]
    cliques_growth = (
        by_key[("cliques", "join", large)]["serial_exps"]
        - by_key[("cliques", "join", small)]["serial_exps"]
    )
    tgdh_growth = (
        by_key[("tgdh", "join", large)]["serial_exps"]
        - by_key[("tgdh", "join", small)]["serial_exps"]
    )
    assert tgdh_growth < cliques_growth

    path = keyagree.write_report(document, tmp_path / "BENCH_tgdh.json")
    loaded = json.loads(path.read_text())
    assert loaded["cells"] == cells


def test_figure4_sweep_cell_is_deterministic():
    cell = {
        "kind": "figure4",
        "protocol": "cliques",
        "size": 6,
        "trial": 0,
        "seed": stable_seed(42, "figure4", "cliques", 6, 0),
    }
    first = run_cell(dict(cell))
    second = run_cell(dict(cell))
    assert first == second
    assert first["join_exps"] > 0
    assert first["ctrl_leave_exps"] > 0
    assert set(first["join_cpu_s"]) == set(first["ctrl_leave_cpu_s"])


def test_figure3_sweep_cell_times_join_and_leave():
    cell = {
        "kind": "figure3",
        "protocol": "cliques",
        "size": 3,
        "trial": 0,
        "seed": stable_seed(42, "figure3", "cliques", 3, 0),
    }
    result = run_cell(cell)
    assert result["join_virtual_s"] > 0
    assert result["leave_virtual_s"] > 0


def test_run_sweep_serial_smoke():
    document = run_sweep(
        figure3_sizes=(), figure4_sizes=(4,), trials=2, jobs=1, base_seed=7
    )
    assert len(document["cells"]) == 4  # 2 protocols x 2 trials
    assert document["figure4_trials_consistent"] is True


def test_run_sweep_parallel_matches_serial():
    serial = run_sweep(
        figure3_sizes=(), figure4_sizes=(4, 5), trials=1, jobs=1, base_seed=9
    )
    parallel = run_sweep(
        figure3_sizes=(), figure4_sizes=(4, 5), trials=1, jobs=2, base_seed=9
    )
    assert serial["cells"] == parallel["cells"]


def test_make_cells_seeds_are_stable_and_distinct():
    cells = make_cells((4,), (4, 8), trials=2, base_seed=42)
    again = make_cells((4,), (4, 8), trials=2, base_seed=42)
    assert cells == again  # stable across calls (and across processes)
    seeds = [c["seed"] for c in cells]
    assert len(set(seeds)) == len(seeds)
