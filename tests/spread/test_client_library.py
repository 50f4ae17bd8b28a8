"""Sim-only SpreadClient lifecycle edge cases.

What both clients must do alike is in ``test_client_contract.py``.
"""

import pytest

from repro.errors import (
    ConnectionClosedError,
    DaemonDownError,
    SpreadError,
)
from repro.spread.client import SpreadClient
from repro.types import ServiceType

from tests.spread.conftest import Cluster


def test_connect_returns_private_group_id(cluster):
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    pid = client.connect()
    assert str(pid) == "#app#d0"
    assert client.connected


def test_connect_idempotent(cluster):
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    first = client.connect()
    second = client.connect()
    assert first == second


def test_duplicate_private_name_rejected(cluster):
    SpreadClient(cluster.kernel, "app", cluster.daemons["d0"]).connect()
    with pytest.raises(SpreadError):
        SpreadClient(cluster.kernel, "app", cluster.daemons["d0"]).connect()


def test_same_name_on_different_daemons_ok(cluster):
    a = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    b = SpreadClient(cluster.kernel, "app", cluster.daemons["d1"])
    assert str(a.connect()) != str(b.connect())


def test_connect_to_dead_daemon_raises(cluster):
    cluster.daemons["d2"].crash()
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d2"])
    with pytest.raises(DaemonDownError):
        client.connect()


def test_disconnect_then_operations_fail(cluster):
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    client.connect()
    client.disconnect()
    with pytest.raises(ConnectionClosedError):
        client.multicast(ServiceType.AGREED, "g", "x")


def test_disconnect_idempotent(cluster):
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    client.connect()
    client.disconnect()
    client.disconnect()


def test_reconnect_after_disconnect_with_new_name(cluster):
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    client.connect()
    client.disconnect()
    cluster.run(0.1)
    replacement = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    assert str(replacement.connect()) == "#app#d0"


def test_events_not_delivered_after_crash(cluster):
    client = SpreadClient(cluster.kernel, "app", cluster.daemons["d0"])
    client.connect()
    client.join("g")
    cluster.run(0.5)
    client.crash()
    before = len(client.queue)
    other = SpreadClient(cluster.kernel, "other", cluster.daemons["d1"])
    other.connect()
    other.multicast(ServiceType.AGREED, "g", "unheard")
    cluster.run(1.0)
    assert len(client.queue) == before
