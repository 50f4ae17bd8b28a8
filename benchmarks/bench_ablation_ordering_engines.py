"""Ablation — Lamport timestamps vs Totem-style token ring.

Spread's real core orders with a rotating-token sequencer (Totem); our
default engine uses Lamport timestamps (DESIGN.md §2 substitution).
Both are implemented; this bench compares them on the axes that
distinguish the designs:

* **idle latency** of a single agreed multicast (Lamport needs one
  progress heartbeat from each peer; the ring waits for the token);
* **batch throughput** wall-clock for a burst of messages (the token
  sequences a whole batch at once);
* **background traffic** of an idle deployment (the ring keeps rotating;
  Lamport only heartbeats).
"""

import pytest

from repro.bench.reporting import Table
from repro.testbed import SecureTestbed
from repro.spread.events import DataEvent
from repro.types import ServiceType


def build(ordering: str):
    testbed = SecureTestbed(seed=91, config_overrides={"ordering": ordering})
    clients = []
    testbed.plain_join(clients, "c0", "c1", "c2", flush=False)
    return testbed, clients


def payload_count(client):
    return sum(1 for e in client.queue if isinstance(e, DataEvent))


def single_latency(ordering: str) -> float:
    testbed, clients = build(ordering)
    testbed.run(0.5)  # quiesce
    target = payload_count(clients[2]) + 1
    start = testbed.kernel.now
    clients[0].multicast(ServiceType.AGREED, "g", "ping")
    testbed.run_until(lambda: payload_count(clients[2]) >= target, timeout=60)
    return testbed.kernel.now - start


def batch_throughput(ordering: str, batch: int = 50) -> float:
    testbed, clients = build(ordering)
    testbed.run(0.5)
    base = payload_count(clients[2])
    start = testbed.kernel.now
    for i in range(batch):
        clients[0].multicast(ServiceType.AGREED, "g", i)
        clients[1].multicast(ServiceType.AGREED, "g", i)
    testbed.run_until(
        lambda: payload_count(clients[2]) >= base + 2 * batch, timeout=120
    )
    return testbed.kernel.now - start


def idle_traffic(ordering: str, window: float = 5.0) -> int:
    testbed, clients = build(ordering)
    testbed.run(0.5)
    before = testbed.network.datagrams_sent
    testbed.run(window)
    return testbed.network.datagrams_sent - before


def test_ordering_engine_comparison(benchmark):
    table = Table(
        "Ablation — total-order engines (3 daemons, simulated LAN)",
        ["metric", "lamport", "ring"],
    )
    lat_l = single_latency("lamport")
    lat_r = single_latency("ring")
    table.add("single agreed multicast latency (s)", lat_l, lat_r)
    thr_l = batch_throughput("lamport")
    thr_r = batch_throughput("ring")
    table.add("100-message burst wall time (s)", thr_l, thr_r)
    idle_l = idle_traffic("lamport")
    idle_r = idle_traffic("ring")
    table.add("idle datagrams in 5 s", idle_l, idle_r)
    table.show()

    # Both engines deliver (the latencies are finite and small).
    assert lat_l < 0.5 and lat_r < 0.5
    assert thr_l < 5.0 and thr_r < 5.0
    # The ring's rotation costs background traffic relative to heartbeats
    # alone — the classic Totem trade (bounded, not runaway).
    assert idle_r < 20 * idle_l

    benchmark.pedantic(lambda: single_latency("ring"), rounds=2, iterations=1)
