"""Everything needed to regenerate the paper's tables and figures.

Performance of the stack itself is measured by ``benchmarks/e2e/run.py``
(see ``BENCHMARK.json``), not here.

* :mod:`repro.bench.platform_model` — per-exponentiation cost models for
  the paper's two platforms (SUN Ultra-2, Pentium II 450) plus live
  calibration of the machine running the benchmark.
* :mod:`repro.bench.expcount` — the analytic serial-exponentiation
  formulas of Tables 2-4.
* :mod:`repro.bench.reporting` — aligned text tables with
  paper-vs-measured columns.
* :mod:`repro.bench.report` — prints the whole evaluation standalone.
* :mod:`repro.bench.keyagree` — the control-plane A/B harness (fast
  fixed-base backend vs ``pow`` reference, interleaved).
* :mod:`repro.bench.sweep` — the parallel experiment-sweep runner
  (independent figure cells fanned across a process pool).

The deployments these drive (:class:`~repro.testbed.SecureTestbed`,
:class:`~repro.testbed.ProtocolGroup`) live in :mod:`repro.testbed`.
"""

from repro.bench.platform_model import (
    PENTIUM_II_450,
    SUN_ULTRA2,
    PlatformModel,
    calibrate_local_machine,
)
from repro.bench.expcount import table2, table3, table4
from repro.bench.reporting import Table

__all__ = [
    "PlatformModel",
    "SUN_ULTRA2",
    "PENTIUM_II_450",
    "calibrate_local_machine",
    "table2",
    "table3",
    "table4",
    "Table",
]
