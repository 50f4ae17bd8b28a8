"""The benchmark's metric names, units and directions.

``BENCHMARK.json`` at the repository root declares exactly these (the
self-test compares the two).  Every run of every workload reports every
end-to-end metric (untraced run) or every per-layer metric (traced run);
a per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .trace import LAYERS

MODULES = ("cliques", "ckd", "tgdh")

WORKLOADS = (
    "sealed_flood_tcp",
    "plain_flood_tcp",
    "bulk_tcp",
    "churn_tcp",
    "churn_sim",
)

#: What one operation is, per workload (``ops_per_s`` and ``op_p50_ms``
#: count and time this; per-layer ``*_per_op`` metrics divide by it).
OPERATION = {
    "sealed_flood_tcp": "one 256 B plaintext held by one member",
    "plain_flood_tcp": "one 200 B DataEvent held by one client",
    "bulk_tcp": "one MB (10^6 B) of reassembled payload held by one client",
    "churn_tcp": "one join+leave cycle of the churning member",
    "churn_sim": "one leave+join cycle at n = 16 (cliques, ckd, tgdh in turn)",
}

#: (name, unit, better).  The same four on every workload; what they
#: mean per workload, and the issue's per-workload names for the same
#: numbers, are in ``named_metrics`` below and in README.md.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
]

#: The issue's per-workload names: name -> (unit, workloads it is native
#: on).  Printed by name in the report and kept in the result document;
#: the traced run also reports them (with tracing overhead) as
#: diagnostics.
NAMED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "sealed_delivered_per_s": ("1/s", ("sealed_flood_tcp",)),
    "delivered_msgs_per_s": ("1/s", ("plain_flood_tcp",)),
    "delivered_mb_per_s": ("MB/s", ("bulk_tcp",)),
    "delivery_p50_ms": ("ms", ("sealed_flood_tcp", "plain_flood_tcp", "bulk_tcp", "churn_tcp")),
    "rekey_join_p50_ms": ("ms", ("churn_tcp",)),
    "rekey_leave_p50_ms": ("ms", ("churn_tcp",)),
    **{f"cycle_ms_p50.{m}": ("ms", ("churn_sim",)) for m in MODULES},
}

TAILS: Dict[str, str] = {
    "delivery_p99_ms": "ms",
    "rekey_join_p95_ms": "ms",
    "rekey_leave_p95_ms": "ms",
    **{f"cycle_ms_p95.{m}": "ms" for m in MODULES},
}

#: Counts and ratios read from public counters: name -> (unit, better).
COUNTS: Dict[str, Tuple[str, str]] = {
    "transport.wire.frames_per_op": ("count", "lower"),
    "transport.wire.bytes_per_op": ("bytes", "lower"),
    "transport.wire.rejects": ("count", "lower"),
    "spread.daemon.pack_ratio": ("ratio", "higher"),
    "spread.daemon.mean_run_length": ("ratio", "higher"),
    "spread.ordering.retransmits_per_kop": ("count", "lower"),
    "spread.fragments.copies_per_byte": ("ratio", "lower"),
    "crypto.cipher_cache.hit_ratio": ("ratio", "higher"),
    "keyagree.exps_per_cycle": ("count", "lower"),
    **{f"keyagree.exps_per_cycle.{m}": ("count", "lower") for m in MODULES},
    **{f"net.network.datagrams_per_cycle.{m}": ("count", "lower") for m in MODULES},
    **{f"net.network.bytes_per_cycle.{m}": ("bytes", "lower") for m in MODULES},
    **{f"sim.kernel.events_per_cycle.{m}": ("count", "lower") for m in MODULES},
    **{f"sim.virtual_ms_per_cycle.{m}": ("ms", "lower") for m in MODULES},
    "secure.session.send_refused_share": ("ratio", "lower"),
    "secure.session.no_key_ms_p50": ("ms", "lower"),
    "generator.lateness_p99_ms": ("ms", "lower"),
    "process.cpu_busy_share": ("ratio", "higher"),
    "process.rss_exit_mb": ("MB", "lower"),
    "process.rss_growth_kb_per_op": ("kB", "lower"),
    "harness.self_share": ("ratio", "lower"),
    "budget.unattributed_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Counts that exist only in the traced run.
TRACE_ONLY = (
    "spread.fragments.copies_per_byte",
    "harness.self_share",
    "budget.unattributed_share",
    "trace.overhead_ratio",
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric, in report order: (name, unit, better)."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_us_per_op", "us", "lower"))
        out.append((f"{layer}.calls_per_op", "count", "lower"))
    for name, (unit, _) in NAMED.items():
        better = "higher" if unit.endswith("/s") else "lower"
        out.append((name, unit, better))
    for name, unit in TAILS.items():
        out.append((name, unit, "lower"))
    for name, (unit, better) in COUNTS.items():
        out.append((name, unit, better))
    return out
