"""Sealed membership control: the daemon model with seal_control=True."""

import pytest

from repro.crypto.dh import DHParams
from repro.ext.daemon_model import DaemonSealedControl, secure_all_daemons
from repro.spread.events import DataEvent, MembershipEvent
from repro.spread.messages import (
    GatherAnnounce,
    Hello,
    Install,
    Propose,
    SyncInfo,
)
from repro.types import ServiceType

from tests.spread.conftest import Cluster

CONTROL_TYPES = (Hello, GatherAnnounce, Propose, SyncInfo, Install)


def make_sealed_cluster(daemon_count=3, seed=71):
    cluster = Cluster(daemon_count=daemon_count, seed=seed)
    layers = secure_all_daemons(
        cluster.daemons,
        params=DHParams.tiny_test(),
        seed=seed,
        seal_control=True,
    )
    return cluster, layers


def members_of(client, group="g"):
    views = [
        e for e in client.queue
        if isinstance(e, MembershipEvent) and str(e.group) == group
    ]
    return {str(m) for m in views[-1].members} if views else set()


def test_cluster_converges_with_sealed_control():
    cluster, layers = make_sealed_cluster()
    cluster.settle(timeout=30)
    assert all(len(d.view_members) == 3 for d in cluster.alive_daemons())


def test_no_plaintext_control_on_the_wire():
    cluster, layers = make_sealed_cluster()
    seen_clear = []
    original_send = cluster.network.send

    def spy(source, destination, payload, size=None):
        if isinstance(payload, CONTROL_TYPES):
            seen_clear.append(type(payload).__name__)
        return original_send(source, destination, payload, size)

    cluster.network.send = spy
    cluster.settle(timeout=30)
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]), timeout=30)
    assert seen_clear == []


def test_sealed_control_messages_observed():
    cluster, layers = make_sealed_cluster()
    sealed_count = 0
    original_send = cluster.network.send

    def spy(source, destination, payload, size=None):
        nonlocal sealed_count
        if isinstance(payload, DaemonSealedControl):
            sealed_count += 1
        return original_send(source, destination, payload, size)

    cluster.network.send = spy
    cluster.settle(timeout=30)
    assert sealed_count > 0  # hellos and membership ran sealed


def test_full_function_with_sealed_control():
    cluster, layers = make_sealed_cluster()
    cluster.settle(timeout=30)
    cluster.run(1.0)
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(
        lambda: members_of(b) == {"#a#d0", "#b#d1"}, timeout=30
    )
    a.multicast(ServiceType.AGREED, "g", "fully sealed stack")
    cluster.run_until(
        lambda: any(
            isinstance(e, DataEvent) and e.payload == "fully sealed stack"
            for e in b.queue
        ),
        timeout=30,
    )


def test_partition_merge_with_sealed_control():
    """Static pairwise channels work across components: the membership
    protocol can merge two partitions even though no shared view key
    exists between them."""
    cluster, layers = make_sealed_cluster(daemon_count=4)
    cluster.settle(timeout=30)
    cluster.network.partition([["d0", "d1"], ["d2", "d3"]])
    cluster.settle_components(["d0", "d1"], ["d2", "d3"], timeout=30)
    cluster.network.heal()
    cluster.settle(timeout=30)
    assert all(len(d.view_members) == 4 for d in cluster.alive_daemons())


def test_corrupt_sealed_control_dropped():
    cluster, layers = make_sealed_cluster()
    cluster.settle(timeout=30)
    from repro.secure.dataprotect import SealedMessage

    bogus = DaemonSealedControl(
        sender="d1",
        sealed=SealedMessage(
            "__daemon-control__", "daemon-control", "d1",
            b"\x00" * 16, b"\x00" * 20,
        ),
    )
    assert layers["d0"].intercept("d1", bogus) is None  # consumed
    rejects = cluster.tracer.of_kind("daemon_security.reject_control")
    assert rejects
