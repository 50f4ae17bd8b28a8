"""Daemon-model security: daemon-group keys sealing inter-daemon data."""

import pytest

from repro.crypto.dh import DHParams
from repro.ext.daemon_model import (
    DaemonSealedData,
    DaemonSecurity,
    secure_all_daemons,
)
from repro.spread.events import DataEvent, MembershipEvent
from repro.spread.messages import DataMessage
from repro.types import ServiceType

from tests.spread.conftest import Cluster


def make_secured_cluster(daemon_count=3, seed=21):
    cluster = Cluster(daemon_count=daemon_count, seed=seed)
    layers = secure_all_daemons(
        cluster.daemons, params=DHParams.tiny_test(), seed=seed
    )
    cluster.settle()
    return cluster, layers


def wait_all_keyed(cluster, layers, names=None):
    names = names if names is not None else list(layers)
    cluster.run_until(
        lambda: all(
            layers[n].ready and layers[n].view == cluster.daemons[n].view
            for n in names
            if cluster.daemons[n].alive
        ),
        timeout=30,
    )


def members_of(client, group="g"):
    views = [
        e for e in client.queue
        if isinstance(e, MembershipEvent) and str(e.group) == group
    ]
    return {str(m) for m in views[-1].members} if views else set()


def payloads(client, group="g"):
    return [
        e.payload for e in client.queue
        if isinstance(e, DataEvent) and str(e.group) == group
    ]


def test_daemons_key_after_bootstrap():
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    views = {layers[n].view for n in layers}
    assert len(views) == 1
    fingerprints = {
        layers[n]._protector.keys.fingerprint() for n in layers
    }
    assert len(fingerprints) == 1  # one daemon-group key


def test_data_flows_through_sealed_channel():
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.AGREED, "g", "sealed hello")
    cluster.run_until(lambda: "sealed hello" in payloads(b))


def test_wire_carries_no_plaintext_data_messages():
    """With daemon security on, no raw DataMessage crosses the network."""
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    seen_raw = []
    original_send = cluster.network.send

    def spying_send(source, destination, payload, size=None):
        if isinstance(payload, DataMessage):
            seen_raw.append((source, destination))
        return original_send(source, destination, payload, size)

    cluster.network.send = spying_send
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.AGREED, "g", "top secret")
    cluster.run_until(lambda: "top secret" in payloads(b))
    assert seen_raw == []


def test_rekey_on_daemon_view_change():
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    old_fingerprint = layers["d0"]._protector.keys.fingerprint()
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    wait_all_keyed(cluster, layers, ["d0", "d1"])
    new_fingerprint = layers["d0"]._protector.keys.fingerprint()
    assert new_fingerprint != old_fingerprint
    assert layers["d0"]._protector.keys.fingerprint() == layers[
        "d1"
    ]._protector.keys.fingerprint()


def test_data_still_flows_after_partition_and_merge():
    cluster, layers = make_secured_cluster(daemon_count=3)
    wait_all_keyed(cluster, layers)
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    cluster.network.partition([["d0"], ["d1", "d2"]])
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    cluster.network.heal()
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    wait_all_keyed(cluster, layers)
    a.multicast(ServiceType.AGREED, "g", "after merge")
    cluster.run_until(lambda: "after merge" in payloads(b))


def test_recovered_daemon_rejoins_and_keys():
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    cluster.daemons["d2"].recover()
    cluster.settle()
    wait_all_keyed(cluster, layers)
    fingerprints = {
        layers[n]._protector.keys.fingerprint() for n in ("d0", "d1", "d2")
    }
    assert len(fingerprints) == 1


def test_daemon_key_count_vs_client_model():
    """The paper's §5 argument: daemon-model key agreements track daemon
    view changes, not application group churn."""
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    keyed_before = layers["d0"].keys_established
    # Heavy application churn: many group joins/leaves.
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    for round_index in range(4):
        a.join(f"g{round_index}")
        b.join(f"g{round_index}")
        cluster.run_until(
            lambda r=round_index: members_of(b, f"g{r}")
            == {"#a#d0", "#b#d1"}
        )
    # Daemon keys did not budge.
    assert layers["d0"].keys_established == keyed_before


def test_stale_view_offer_ignored():
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    from repro.types import ViewId

    security = layers["d1"]
    fingerprint = security._protector.keys.fingerprint()
    # Forge an offer for an ancient view: must be ignored.
    from repro.ext.daemon_model import DaemonKeyOffer
    from repro.secure.dataprotect import SealedMessage

    bogus = DaemonKeyOffer(
        view_id=ViewId(0, 0, "zz"),
        sealed=SealedMessage("__daemons__", "x", "zz", b"\x00" * 16, b"\x00" * 20),
    )
    assert security.intercept("d0", bogus) is None  # consumed
    assert security._protector.keys.fingerprint() == fingerprint


def test_secure_all_daemons_shares_directory():
    cluster, layers = make_secured_cluster()
    directories = {id(layers[n].directory) for n in layers}
    assert len(directories) == 1
