"""The metrics registry: instruments, aggregation, JSON round-trips,
and the layer collectors against stub objects."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.crypto.counters import ExpCounter
from repro.obs.metrics import (
    MetricsRegistry,
    collect_daemon,
    collect_exp_counter,
    collect_kernel,
    collect_network,
    collect_session,
    exp_counts_match,
    registry_from_json,
)


# -- instruments -------------------------------------------------------------


def test_counter_get_or_create_identity():
    registry = MetricsRegistry()
    a = registry.counter("net.bytes_sent")
    b = registry.counter("net.bytes_sent")
    assert a is b
    a.inc(10)
    assert registry.value("net.bytes_sent") == 10


def test_labels_distinguish_instruments():
    registry = MetricsRegistry()
    registry.counter("spread.views_installed", daemon="d0").inc(3)
    registry.counter("spread.views_installed", daemon="d1").inc(5)
    assert registry.value("spread.views_installed", daemon="d0") == 3
    assert registry.value("spread.views_installed", daemon="d1") == 5
    assert registry.total("spread.views_installed") == 8
    family = registry.family("spread.views_installed")
    assert family[(("daemon", "d0"),)] == 3
    # Label values are canonicalized to strings, so 0 and "0" collide
    # deliberately (JSON round-trips cannot tell them apart).
    registry.counter("x", n=0).inc()
    registry.counter("x", n="0").inc()
    assert registry.value("x", n=0) == 2


def test_counter_rejects_negative_increment():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("net.bytes_sent").inc(-1)


def test_gauge_sets_point_in_time_value():
    registry = MetricsRegistry()
    gauge = registry.gauge("kernel.virtual_time")
    gauge.set(4.5)
    gauge.set(2.0)  # gauges overwrite, never accumulate
    assert registry.value("kernel.virtual_time") == 2.0


def test_histogram_aggregates_and_percentiles():
    registry = MetricsRegistry()
    histogram = registry.histogram("secure.rekey_latency_s")
    for value in (3.0, 1.0, 2.0, 4.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.min == 1.0 and histogram.max == 4.0
    assert histogram.mean == 2.5
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 4.0
    empty = registry.histogram("secure.other")
    assert empty.mean == 0.0 and empty.percentile(50) == 0.0


def test_value_of_absent_instrument_is_zero():
    assert MetricsRegistry().value("no.such_metric") == 0.0


def test_names_lists_every_family_once():
    registry = MetricsRegistry()
    registry.counter("a.one", x=1)
    registry.counter("a.one", x=2)
    registry.gauge("b.two")
    registry.histogram("c.three")
    assert registry.names() == ["a.one", "b.two", "c.three"]


# -- serialization -----------------------------------------------------------


def test_snapshot_roundtrip():
    registry = MetricsRegistry()
    registry.counter("net.bytes_sent").inc(1234)
    registry.gauge("kernel.virtual_time", run="r1").set(9.25)
    histogram = registry.histogram("secure.rekey_latency_s", module="tgdh")
    for value in (0.5, 1.5, 2.5):
        histogram.observe(value)

    snapshot = registry.snapshot()
    json.dumps(snapshot)  # JSON-native end to end
    assert snapshot["schema"] == "obs-metrics/1"

    loaded = registry_from_json(snapshot)
    assert loaded.value("net.bytes_sent") == 1234
    assert loaded.value("kernel.virtual_time", run="r1") == 9.25
    restored = loaded.histogram("secure.rekey_latency_s", module="tgdh")
    assert restored.count == 3
    assert restored.total == 4.5
    assert restored.min == 0.5 and restored.max == 2.5
    assert loaded.snapshot() == snapshot


def test_roundtrip_restores_truncated_histogram_aggregates():
    registry = MetricsRegistry()
    histogram = registry.histogram("h.x")
    histogram.reservoir_cap = 2
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    assert len(histogram.samples) == 2  # reservoir full
    restored = registry_from_json(registry.snapshot()).histogram("h.x")
    assert restored.count == 4
    assert restored.total == 10.0
    assert restored.max == 4.0


# -- collectors --------------------------------------------------------------


def test_collect_kernel_and_network():
    registry = MetricsRegistry()
    collect_kernel(
        registry,
        SimpleNamespace(
            events_scheduled=100,
            events_processed=90,
            events_cancelled=5,
            pending_events=5,
            now=12.5,
        ),
    )
    collect_network(
        registry,
        SimpleNamespace(
            datagrams_sent=40,
            datagrams_delivered=35,
            datagrams_dropped=4,
            datagrams_duplicated=1,
            datagrams_corrupted=2,
            bytes_sent=4000,
            bytes_delivered=3500,
        ),
    )
    assert registry.value("kernel.events_scheduled") == 100
    assert registry.value("kernel.events_fired") == 90
    assert registry.value("kernel.virtual_time") == 12.5
    assert registry.value("net.datagrams_sent") == 40
    assert registry.value("net.bytes_delivered") == 3500


def test_collect_daemon_and_session_label_by_owner():
    registry = MetricsRegistry()
    collect_daemon(
        registry,
        SimpleNamespace(
            name="d0",
            views_installed=7,
            flush_cuts=3,
            retransmissions=2,
            stale_nacks=1,
            messages_delivered=50,
            remote_bytes_delivered=4800,
            client_messages_delivered=20,
            client_bytes_delivered=2000,
            packed_datagrams=6,
            packed_messages=18,
            delivery_runs=10,
            delivered_in_runs=45,
            longest_run=9,
        ),
    )
    collect_session(
        registry,
        "m0",
        "g",
        SimpleNamespace(
            module=SimpleNamespace(name="tgdh"),
            sealed_messages=5,
            sealed_bytes=640,
            unsealed_messages=4,
            unsealed_bytes=512,
            rejected_messages=1,
            rekeys_completed=2,
        ),
    )
    assert registry.value("spread.flush_cuts", daemon="d0") == 3
    assert registry.value("spread.stale_nacks", daemon="d0") == 1
    assert registry.value("spread.bytes_delivered_remote", daemon="d0") == 4800
    assert registry.value("spread.packed_datagrams", daemon="d0") == 6
    assert registry.value("spread.packed_messages", daemon="d0") == 18
    assert registry.value("spread.longest_delivery_run", daemon="d0") == 9
    labels = {"member": "m0", "group": "g", "module": "tgdh"}
    assert registry.value("secure.sealed_bytes", **labels) == 640
    assert registry.value("secure.rekeys_completed", **labels) == 2


def test_collect_exp_counter_byte_matches_snapshot():
    counter = ExpCounter()
    counter.record("upflow", count=3)
    counter.record("downflow", count=2)
    counter.record("upflow")
    registry = MetricsRegistry()
    collect_exp_counter(registry, counter, member="m0")
    snapshot = counter.snapshot()
    for op, count in snapshot.items():
        assert (
            registry.value("keyagree.exponentiations", op=op, member="m0")
            == count
        )
    assert (
        registry.value("keyagree.exponentiations_total", member="m0")
        == counter.total
    )
    assert exp_counts_match(registry, counter, member="m0")
    # A mismatch is detected: one stray increment breaks the match.
    registry.counter("keyagree.exponentiations", op="upflow", member="m0").inc()
    assert not exp_counts_match(registry, counter, member="m0")
