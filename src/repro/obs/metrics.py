"""The metrics registry: counters, gauges and histograms for every layer.

Instruments are keyed by ``(name, labels)`` — the same shape Prometheus
uses — so one registry can hold, say, ``spread.views_installed`` for
every daemon and ``keyagree.exponentiations`` per protocol label at
once.  Metric names are namespaced exactly like trace-event kinds
(``net.bytes_sent``, ``secure.bytes_unsealed``...), so the inspector can
group a metrics dump by layer with the same catalogue
(:mod:`repro.obs.bus`).

Two feeding styles coexist:

* **Collectors** (the functions below) sample the cheap always-on
  counters the layers already maintain — network datagram/byte totals,
  kernel event totals, daemon delivery counters, secure-session
  seal/unseal totals, and the paper's per-label
  :class:`~repro.crypto.counters.ExpCounter` records — into the
  registry at dump time.  Zero hot-path cost; the numbers reproduce the
  paper's cost tables (Tables 2-4) directly from instrumentation.
* **Live subscription** via
  :meth:`~repro.obs.bus.TraceBus.attach_metrics`, which bumps per-kind
  counters as trace events are recorded.

A snapshot round-trips through JSON (:meth:`MetricsRegistry.to_json` /
:func:`registry_from_json`) so run dumps can be inspected offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Canonical label-set encoding: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (set, not accumulated)."""

    value: float = 0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """A distribution: count/sum/min/max plus a bounded value reservoir
    for percentile estimates (exact up to ``reservoir_cap`` samples).
    """

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    reservoir_cap: int = 4096
    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self.samples) < self.reservoir_cap:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) over the retained reservoir."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(q / 100 * (len(ordered) - 1))))
        return ordered[index]


class MetricsRegistry:
    """Holds every instrument of one run, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- aggregation ---------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter or gauge (0 when absent)."""
        key = (name, _label_key(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return 0.0

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets."""
        return sum(
            instrument.value
            for (metric, __), instrument in list(self._counters.items())
            + list(self._gauges.items())
            if metric == name
        )

    def family(self, name: str) -> Dict[LabelKey, float]:
        """All (labels -> value) pairs of one counter/gauge family."""
        out: Dict[LabelKey, float] = {}
        for (metric, labels), instrument in self._counters.items():
            if metric == name:
                out[labels] = instrument.value
        for (metric, labels), instrument in self._gauges.items():
            if metric == name:
                out[labels] = instrument.value
        return out

    def names(self) -> List[str]:
        seen = set()
        for name, __ in (
            list(self._counters) + list(self._gauges) + list(self._histograms)
        ):
            seen.add(name)
        return sorted(seen)

    # -- serialization -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every instrument."""

        def rows(instruments):
            return [
                {"name": name, "labels": dict(labels), **payload(instrument)}
                for (name, labels), instrument in sorted(instruments.items())
            ]

        def payload(instrument):
            if isinstance(instrument, Histogram):
                return {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                    "mean": instrument.mean,
                    "p50": instrument.percentile(50),
                    "p95": instrument.percentile(95),
                    "samples": list(instrument.samples),
                }
            return {"value": instrument.value}

        return {
            "schema": "obs-metrics/1",
            "counters": rows(self._counters),
            "gauges": rows(self._gauges),
            "histograms": rows(self._histograms),
        }

    def to_json(self) -> Dict[str, Any]:
        return self.snapshot()


def registry_from_json(document: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry from a :meth:`MetricsRegistry.snapshot` dump."""
    registry = MetricsRegistry()
    for row in document.get("counters", ()):
        registry.counter(row["name"], **row["labels"]).inc(row["value"])
    for row in document.get("gauges", ()):
        registry.gauge(row["name"], **row["labels"]).set(row["value"])
    for row in document.get("histograms", ()):
        histogram = registry.histogram(row["name"], **row["labels"])
        for sample in row.get("samples", ()):
            histogram.observe(sample)
        # Reservoir-truncated dumps: restore the exact aggregates.
        histogram.count = row["count"]
        histogram.total = row["sum"]
        histogram.min = row["min"]
        histogram.max = row["max"]
    return registry


# ---------------------------------------------------------------------------
# collectors: sample the layers' always-on counters into a registry
# ---------------------------------------------------------------------------


def collect_kernel(registry: MetricsRegistry, kernel) -> None:
    """Simulation-kernel totals: events scheduled / fired / cancelled."""
    registry.gauge("kernel.events_scheduled").set(kernel.events_scheduled)
    registry.gauge("kernel.events_fired").set(kernel.events_processed)
    registry.gauge("kernel.events_cancelled").set(kernel.events_cancelled)
    registry.gauge("kernel.events_pending").set(kernel.pending_events)
    registry.gauge("kernel.virtual_time").set(kernel.now)


def collect_network(registry: MetricsRegistry, network) -> None:
    """Network totals: datagrams, bytes, drops, injected faults."""
    registry.gauge("net.datagrams_sent").set(network.datagrams_sent)
    registry.gauge("net.datagrams_delivered").set(network.datagrams_delivered)
    registry.gauge("net.datagrams_dropped").set(network.datagrams_dropped)
    registry.gauge("net.datagrams_duplicated").set(network.datagrams_duplicated)
    registry.gauge("net.datagrams_corrupted").set(network.datagrams_corrupted)
    registry.gauge("net.bytes_sent").set(network.bytes_sent)
    registry.gauge("net.bytes_delivered").set(network.bytes_delivered)


def collect_daemon(registry: MetricsRegistry, daemon) -> None:
    """Spread-daemon totals, labelled by daemon name."""
    labels = {"daemon": daemon.name}
    registry.gauge("spread.views_installed", **labels).set(daemon.views_installed)
    registry.gauge("spread.flush_cuts", **labels).set(daemon.flush_cuts)
    registry.gauge("spread.retransmissions", **labels).set(daemon.retransmissions)
    registry.gauge("spread.stale_nacks", **labels).set(daemon.stale_nacks)
    registry.gauge("spread.messages_delivered", **labels).set(
        daemon.messages_delivered
    )
    registry.gauge("spread.bytes_delivered_remote", **labels).set(
        daemon.remote_bytes_delivered
    )
    registry.gauge("spread.client_messages_delivered", **labels).set(
        daemon.client_messages_delivered
    )
    registry.gauge("spread.client_bytes_delivered", **labels).set(
        daemon.client_bytes_delivered
    )
    # Data-plane attribution: sender-side coalescing (envelopes vs the
    # messages packed into them — the pack ratio is messages/datagrams)
    # and batched ordered delivery (run count and lengths).
    registry.gauge("spread.packed_datagrams", **labels).set(daemon.packed_datagrams)
    registry.gauge("spread.packed_messages", **labels).set(daemon.packed_messages)
    registry.gauge("spread.delivery_runs", **labels).set(daemon.delivery_runs)
    registry.gauge("spread.delivered_in_runs", **labels).set(
        daemon.delivered_in_runs
    )
    registry.gauge("spread.longest_delivery_run", **labels).set(daemon.longest_run)


def collect_session(
    registry: MetricsRegistry, member: str, group: str, session
) -> None:
    """Secure-session totals for one member of one group."""
    labels = {"member": member, "group": group, "module": session.module.name}
    registry.gauge("secure.sealed_messages", **labels).set(session.sealed_messages)
    registry.gauge("secure.sealed_bytes", **labels).set(session.sealed_bytes)
    registry.gauge("secure.unsealed_messages", **labels).set(
        session.unsealed_messages
    )
    registry.gauge("secure.unsealed_bytes", **labels).set(session.unsealed_bytes)
    registry.gauge("secure.rejected_messages", **labels).set(
        session.rejected_messages
    )
    registry.gauge("secure.rekeys_completed", **labels).set(
        session.rekeys_completed
    )


def collect_exp_counter(registry: MetricsRegistry, counter, **labels: Any) -> None:
    """Fold an :class:`~repro.crypto.counters.ExpCounter` into the
    registry, one ``keyagree.exponentiations`` counter per label — the
    registry's per-label values byte-match ``counter.snapshot()``.
    """
    for op, count in counter.snapshot().items():
        registry.counter("keyagree.exponentiations", op=op, **labels).inc(count)
    registry.counter("keyagree.exponentiations_total", **labels).inc(
        counter.total
    )


def collect_transport(registry: MetricsRegistry, transport) -> None:
    """Real-transport totals, labelled by the owning daemon.

    ``transport`` is a :class:`repro.transport.tcp.TcpTransport` (or a
    :class:`~repro.transport.client.TcpSpreadClient`, which shares the
    counter names minus the histograms): socket byte/frame counters,
    connection churn, and the power-of-two frame-size histograms.
    """
    labels = {"node": transport.name}
    for key, value in transport.counters.items():
        registry.gauge(f"transport.{key}", **labels).set(value)
    for direction, sizes in (
        ("tx", getattr(transport, "tx_frame_sizes", None)),
        ("rx", getattr(transport, "rx_frame_sizes", None)),
    ):
        if not sizes:
            continue
        for bucket, count in sorted(sizes.items()):
            registry.gauge(
                "transport.frame_bytes_bucket",
                direction=direction,
                le=bucket,
                **labels,
            ).set(count)


def collect_netem(registry: MetricsRegistry, world) -> None:
    """Fault-injection totals for a :class:`repro.transport.netem
    .NetemWorld`: per-link byte counters, connection churn, and injected
    fault counts (loss penalties, corruptions, truncations, resets,
    blackholed bytes), plus the count of schedule actions fired."""
    for name, link in world.links.items():
        for key, value in link.counters.items():
            registry.gauge(f"netem.{key}", link=name).set(value)
    registry.gauge("netem.actions_fired").set(len(world.fired))
    registry.gauge("netem.links").set(len(world.links))


def exp_counts_match(registry: MetricsRegistry, counter, **labels: Any) -> bool:
    """True when the registry's per-label exponentiation counts equal
    ``counter.snapshot()`` exactly (the Tables 2-4 conservation check)."""
    snapshot = counter.snapshot()
    recorded = {
        dict(label_key)["op"]: value
        for label_key, value in registry.family("keyagree.exponentiations").items()
        if dict(label_key).items() >= labels.items()
    }
    return recorded == {k: float(v) for k, v in snapshot.items()} or (
        recorded == snapshot
    )


def collect_testbed(registry: MetricsRegistry, testbed) -> MetricsRegistry:
    """Sample an entire :class:`~repro.testbed.SecureTestbed`-shaped
    deployment (kernel + network + daemons + secure members) — the
    one-call collector the chaos harness and benches use."""
    collect_kernel(registry, testbed.kernel)
    collect_network(registry, testbed.network)
    for daemon in testbed.daemons.values():
        collect_daemon(registry, daemon)
    for name, client in testbed.members.items():
        for group, session in client.sessions.items():
            collect_session(registry, name, group, session)
        collect_exp_counter(registry, client.counter, member=name)
    return registry
