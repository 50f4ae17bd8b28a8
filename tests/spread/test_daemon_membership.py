"""Daemon membership: bootstrap, crashes, recoveries, partitions, merges."""

import pytest

from repro.spread.messages import GatherAnnounce

from tests.spread.conftest import Cluster


def test_bootstrap_converges_to_single_view():
    cluster = Cluster(daemon_count=3)
    cluster.settle()
    views = {d.view for d in cluster.alive_daemons()}
    assert len(views) == 1
    for daemon in cluster.alive_daemons():
        assert set(daemon.view_members) == {"d0", "d1", "d2"}


def test_bootstrap_five_daemons():
    cluster = Cluster(daemon_count=5)
    cluster.settle()
    assert all(len(d.view_members) == 5 for d in cluster.alive_daemons())


def test_single_daemon_cluster_trivially_converged():
    cluster = Cluster(daemon_count=1)
    cluster.settle(timeout=1.0)
    daemon = cluster.daemons["d0"]
    assert daemon.view_members == ("d0",)


def test_daemon_crash_removes_it_from_view():
    cluster = Cluster(daemon_count=3)
    cluster.settle()
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    for name in ("d0", "d1"):
        assert set(cluster.daemons[name].view_members) == {"d0", "d1"}


def test_daemon_recover_rejoins_view():
    cluster = Cluster(daemon_count=3)
    cluster.settle()
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    cluster.daemons["d2"].recover()
    cluster.settle()
    assert all(
        set(d.view_members) == {"d0", "d1", "d2"} for d in cluster.alive_daemons()
    )


def test_partition_forms_two_views():
    cluster = Cluster(daemon_count=4)
    cluster.settle()
    cluster.network.partition([["d0", "d1"], ["d2", "d3"]])
    cluster.settle_components(["d0", "d1"], ["d2", "d3"])
    assert set(cluster.daemons["d0"].view_members) == {"d0", "d1"}
    assert set(cluster.daemons["d2"].view_members) == {"d2", "d3"}
    assert cluster.daemons["d0"].view != cluster.daemons["d2"].view


def test_merge_after_heal():
    cluster = Cluster(daemon_count=4)
    cluster.settle()
    cluster.network.partition([["d0", "d1"], ["d2", "d3"]])
    cluster.settle_components(["d0", "d1"], ["d2", "d3"])
    cluster.network.heal()
    cluster.settle()
    views = {d.view for d in cluster.alive_daemons()}
    assert len(views) == 1
    assert all(len(d.view_members) == 4 for d in cluster.alive_daemons())


def test_singleton_partition():
    cluster = Cluster(daemon_count=3)
    cluster.settle()
    cluster.network.partition([["d0"], ["d1", "d2"]])
    cluster.settle_components(["d0"], ["d1", "d2"])
    assert cluster.daemons["d0"].view_members == ("d0",)


def test_cascading_partitions_converge():
    cluster = Cluster(daemon_count=4)
    cluster.settle()
    cluster.network.partition([["d0", "d1"], ["d2", "d3"]])
    cluster.run(0.06)  # mid-membership...
    cluster.network.partition([["d0"], ["d1"], ["d2", "d3"]])
    cluster.settle_components(["d0"], ["d1"], ["d2", "d3"])
    cluster.network.heal()
    cluster.settle()
    assert all(len(d.view_members) == 4 for d in cluster.alive_daemons())


def test_crash_during_membership_converges():
    cluster = Cluster(daemon_count=4)
    cluster.settle()
    cluster.daemons["d3"].crash()
    cluster.run(0.11)  # inside the gather triggered by the silence
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    assert set(cluster.daemons["d0"].view_members) == {"d0", "d1"}


def test_view_ids_increase_monotonically():
    cluster = Cluster(daemon_count=3)
    cluster.settle()
    first = cluster.daemons["d0"].view
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    second = cluster.daemons["d0"].view
    assert second > first
    cluster.daemons["d2"].recover()
    cluster.settle()
    third = cluster.daemons["d0"].view
    assert third > second


def test_all_daemons_install_same_view_sequence():
    cluster = Cluster(daemon_count=3)
    cluster.settle()
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
    cluster.daemons["d2"].recover()
    cluster.settle()
    installs_d0 = [
        e for e in cluster.tracer.of_kind("daemon.install") if e["me"] == "d0"
    ]
    installs_d1 = [
        e for e in cluster.tracer.of_kind("daemon.install") if e["me"] == "d1"
    ]
    # d0 and d1 travelled together throughout: same view sequence.
    assert [e["view"] for e in installs_d0] == [e["view"] for e in installs_d1]


def test_recovered_daemon_has_fresh_incarnation():
    cluster = Cluster(daemon_count=2)
    cluster.settle()
    assert cluster.daemons["d1"].incarnation == 0
    cluster.daemons["d1"].crash()
    cluster.daemons["d1"].recover()
    assert cluster.daemons["d1"].incarnation == 1
    cluster.settle()


def _knowledge_changes(cluster):
    """Record the send time of every gather announcement that tells its
    receivers something new: a daemon's first announcement in a round,
    or one whose alive set differs from its previous one.  A repeat of
    the same knowledge (the re-announce at a gather deadline) is not a
    change."""
    changes = []
    last = {}
    send = cluster.network.send

    def watching_send(source, destination, payload, size=None):
        if isinstance(payload, GatherAnnounce):
            key = (payload.sender, payload.round_id)
            if last.get(key) != payload.alive:
                last[key] = payload.alive
                changes.append(cluster.kernel.now)
        send(source, destination, payload, size)

    cluster.network.send = watching_send
    return changes


@pytest.mark.parametrize("event", ["start", "heal"])
def test_round_installs_one_gather_timeout_after_last_change(event):
    """A gather round proposes once its participants have been stable
    for one ``gather_timeout``: the install comes that long (plus link
    and sync slack, well under a second deadline) after the last
    knowledge change."""
    cluster = Cluster(daemon_count=3)
    if event == "heal":
        cluster.network.partition([["d0", "d1"], ["d2"]])
        cluster.settle_components(["d0", "d1"], ["d2"])
    changes = _knowledge_changes(cluster)
    installs_before = len(cluster.tracer.of_kind("daemon.install"))
    if event == "heal":
        cluster.network.heal()
    cluster.settle()
    installs = cluster.tracer.of_kind("daemon.install")[installs_before:]
    assert {e["me"] for e in installs} == {"d0", "d1", "d2"}
    assert len({e["view"] for e in installs}) == 1  # one round, no retry
    gather = cluster.config.gather_timeout
    slack = gather / 4
    waited = max(e.t for e in installs) - changes[-1]
    assert gather <= waited <= gather + slack
