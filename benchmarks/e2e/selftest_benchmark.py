"""Self-test of the end-to-end benchmark (not part of tier-1; run by path):

    PYTHONPATH=src python -m pytest benchmarks/e2e/selftest_benchmark.py

Runs ``--smoke`` on all five workloads, untraced and traced, and checks
structure and correctness only — never a rate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _smoke(workload: str, traced: int, tmp_path: Path):
    doc_path = tmp_path / "doc.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", str(traced),
         "--doc", str(doc_path)],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line, json.loads(doc_path.read_text())


def _check_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(line["metrics"]) == set(units)  # all declared, none undeclared
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


def test_manifest_matches_the_code():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e import metrics

    assert tuple(WORKLOADS) == metrics.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"]) for m in MANIFEST["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    ] == metrics.per_layer()
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload, tmp_path):
    line, doc = _smoke(workload, 0, tmp_path)
    _check_line(line, MANIFEST["end_to_end"])
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    assert doc["wrappers_left_installed"] == []
    assert doc["per_layer"] == {} and doc["by_entry"] == {}
    stamp = doc["stamp"]
    for key in ("seed", "git_commit", "python", "platform", "nproc",
                "loadavg_1min", "scrubbed_env", "library_defaults"):
        assert key in stamp
    assert set(stamp["library_defaults"]) == {
        "packing", "ordering", "sim_scheduler", "fixed_base_fast_path"
    }
    assert doc["counts"].get("transport.wire.rejects", 0) == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload, tmp_path):
    line, doc = _smoke(workload, 1, tmp_path)
    _check_line(line, MANIFEST["per_layer"])
    assert doc["wrappers_left_installed"] == []  # uninstalled at the end
    assert doc["per_layer"]["harness.self_share"] <= 0.05
    assert Path(doc["spans"]["spans_jsonl"]).stat().st_size > 0
    assert Path(doc["spans"]["chrome_trace"]).stat().st_size > 0


def test_same_seed_same_exact_counts(tmp_path):
    first = _smoke("churn_sim", 0, tmp_path)[1]["counts"]
    second = _smoke("churn_sim", 0, tmp_path)[1]["counts"]
    exact = [k for k in first if k.startswith(
        ("keyagree.exps", "net.network.", "sim.kernel.", "sim.virtual_ms")
    )]
    assert len(exact) == 15
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
