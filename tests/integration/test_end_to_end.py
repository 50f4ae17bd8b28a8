"""End-to-end integration: the whole stack under combined stresses."""

import pytest

from repro.crypto.dh import DHParams
from repro.net.link import LinkModel
from repro.ext.daemon_model import secure_all_daemons
from repro.secure.events import SecureDataEvent, SecureMembershipEvent
from repro.secure.session import CryptoCostModel

from tests.secure.conftest import SecureHarness


def test_secure_group_survives_daemon_crash_and_recovery():
    """A daemon hosting a member crashes; the group re-keys without it,
    then the daemon recovers and the member can re-join securely."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    c = h.member("c", "d2")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    c.join("g")
    h.wait_view(["a", "b", "c"])
    h.cluster.daemons["d2"].crash()
    h.wait_view(["a", "b"], timeout=60)
    a.send("g", b"down to two")
    h.run_until(lambda: b"down to two" in h.payloads_of("b"))
    # Daemon recovers; a fresh member joins from it.
    h.cluster.daemons["d2"].recover()
    h.cluster.settle()
    d = h.member("d", "d2")
    d.join("g")
    h.wait_view(["a", "b", "d"], timeout=60)
    b.send("g", b"welcome back machine three")
    h.run_until(lambda: b"welcome back machine three" in h.payloads_of("d"))


def test_secure_group_over_lossy_network():
    """10% datagram loss: retransmission + the agreement layer must
    still converge and deliver protected data."""
    h = SecureHarness(seed=17)
    h.cluster.network.default_link = LinkModel(
        base_latency=0.0003, loss_rate=0.10
    )
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"], timeout=120)
    b.join("g")
    h.wait_view(["a", "b"], timeout=120)
    for i in range(5):
        a.send("g", f"lossy-{i}".encode())
    h.run_until(
        lambda: all(
            f"lossy-{i}".encode() in h.payloads_of("b") for i in range(5)
        ),
        timeout=120,
    )
    # FIFO per sender preserved despite losses.
    received = [p for p in h.payloads_of("b") if p.startswith(b"lossy-")]
    assert received == [f"lossy-{i}".encode() for i in range(5)]


def test_client_and_daemon_models_stacked():
    """Defense in depth: per-group keys (client model) on top of the
    daemon-group key (daemon model) at the same time."""
    h = SecureHarness(seed=23)
    layers = secure_all_daemons(
        h.cluster.daemons, params=DHParams.tiny_test(), seed=23
    )
    h.cluster.settle()
    h.run(1.0)
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"], timeout=60)
    b.join("g")
    h.wait_view(["a", "b"], timeout=60)
    a.send("g", b"doubly sealed")
    h.run_until(lambda: b"doubly sealed" in h.payloads_of("b"), timeout=60)
    assert all(layer.ready for layer in layers.values())


def test_many_groups_concurrently():
    """Several secure groups with different modules share the stack."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    groups = [("g0", "cliques"), ("g1", "ckd"), ("g2", "cliques"), ("g3", "ckd")]
    for group, module in groups:
        a.join(group, module=module)
        h.run(1.0)
        b.join(group, module=module)
    for group, __ in groups:
        h.wait_view(["a", "b"], group=group, timeout=60)
    for group, __ in groups:
        a.send(group, f"hello {group}".encode())
    h.run_until(
        lambda: all(
            f"hello {g}".encode() in h.payloads_of("b", g) for g, __ in groups
        ),
        timeout=60,
    )
    # Keys are independent across groups.
    fingerprints = {
        h.members["a"].sessions[g]._session_keys.fingerprint() for g, __ in groups
    }
    assert len(fingerprints) == len(groups)


def test_churn_soak():
    """A soak of joins/leaves/partitions; the group always re-converges
    with a fresh shared key and working data flow."""
    h = SecureHarness(seed=29)
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    a.join("g")
    h.wait_view(["a"], timeout=60)
    b.join("g")
    h.wait_view(["a", "b"], timeout=60)
    fingerprints = set()
    for round_index in range(3):
        name = f"temp{round_index}"
        temp = h.member(name, "d2")
        temp.join("g")
        h.wait_view(["a", "b", name], timeout=120)
        fingerprints.add(h.members["a"].sessions["g"]._session_keys.fingerprint())
        h.cluster.network.partition([["d0", "d1"], ["d2"]])
        h.wait_view(["a", "b"], timeout=120)
        h.cluster.network.heal()
        h.wait_view(["a", "b", name], timeout=120)
        temp.leave("g")
        h.wait_view(["a", "b"], timeout=120)
        temp.disconnect()
        h.run(0.1)
        fingerprints.add(h.members["a"].sessions["g"]._session_keys.fingerprint())
    a.send("g", b"survived the churn")
    h.run_until(lambda: b"survived the churn" in h.payloads_of("b"), timeout=60)
    assert len(fingerprints) >= 5  # keys kept rotating


def test_figure3_cost_model_integration():
    """With a crypto cost model attached, secure-view latency grows with
    the serial exponentiation count (sanity for the Figure 3 pipeline)."""
    h = SecureHarness(cost_model=CryptoCostModel(0.002))
    a = h.member("a", "d0")
    start = h.kernel.now
    a.join("g")
    h.wait_view(["a"])
    b = h.member("b", "d1")
    start = h.kernel.now
    b.join("g")
    h.wait_view(["a", "b"])
    two_member_join = h.kernel.now - start
    c = h.member("c", "d2")
    start = h.kernel.now
    c.join("g")
    h.wait_view(["a", "b", "c"])
    three_member_join = h.kernel.now - start
    # 3n model: joins get more expensive as the group grows.
    assert three_member_join > two_member_join


def test_secure_views_consistent_across_members():
    """Every member sees the same sequence of (members, fingerprint)
    secure views — the layer's equivalent of view synchrony."""
    h = SecureHarness()
    a = h.member("a", "d0")
    b = h.member("b", "d1")
    c = h.member("c", "d2")
    a.join("g")
    h.wait_view(["a"])
    b.join("g")
    h.wait_view(["a", "b"])
    c.join("g")
    h.wait_view(["a", "b", "c"])
    c.leave("g")
    h.wait_view(["a", "b"])

    def history(member):
        return [
            (tuple(sorted(str(m) for m in e.members)), e.key_fingerprint)
            for e in h.members[member].queue
            if isinstance(e, SecureMembershipEvent)
        ]

    history_a = history("a")
    history_b = history("b")
    # b joined one view later; from then on the histories must agree.
    assert history_a[-len(history_b):] == history_b
