"""The chaos crucible: randomized adversarial runs with checked invariants.

The paper argues its robust key-agreement protocols keep a group secure
and consistent across *any* sequence of asynchronous-network failures.
This package turns that claim into an executable oracle:

* :mod:`repro.chaos.invariants` — trace-driven checks of the properties
  the integrated system must never violate: view synchrony, group key
  agreement, secrecy boundaries, post-quiescence convergence.
* :mod:`repro.chaos.harness` — the one crucible driver (establish the
  group, arm a seeded fault schedule, traffic, repair, quiescence,
  probes, verdict, dump) and its simulator backend: crashes, stalls,
  partitions, one-way severs, duplication / corruption / reordering
  windows plus client churn, on virtual time, replaying byte for byte.
* :mod:`repro.chaos.transport_crucible` — the TCP backend of the same
  driver: real daemons and clients, every wire a netem proxy, wall
  clock (imported on demand: it needs ``asyncio`` and sockets).
* :mod:`repro.chaos.shrink` — ddmin delta-debugging of a failing fault
  schedule, of either backend, down to a locally minimal reproducer.
* :mod:`repro.chaos.crucible` — the one CLI (``--backend sim|tcp``):
  many seeds x all key agreement modules, verdicts to
  ``BENCH_chaos.json``, replay and shrinking of any failing seed.
* :mod:`repro.chaos.wansoak` — the WAN soak matrix behind
  ``BENCH_wansoak.json``, four measured phases on the TCP backend.
"""

from repro.chaos.invariants import (
    EndState,
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
    trace_fingerprint,
)
from repro.chaos.harness import (
    ChaosHarness,
    ChaosResult,
    Crucible,
    generate_schedule,
    run_chaos,
)
from repro.chaos.shrink import shrink_schedule

__all__ = [
    "ChaosHarness",
    "ChaosResult",
    "Crucible",
    "EndState",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "generate_schedule",
    "run_chaos",
    "shrink_schedule",
    "trace_fingerprint",
]
