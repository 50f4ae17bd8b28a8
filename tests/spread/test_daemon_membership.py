"""Daemon membership: bootstrap, crashes, recoveries, partitions, merges."""

import pytest

from repro.spread.config import SpreadConfig
from repro.spread.membership import (
    STATE_COLLECT,
    STATE_GATHER,
    STATE_SYNC_WAIT,
    MembershipEngine,
)
from repro.spread.messages import GatherAnnounce, Propose, SyncInfo
from repro.types import ViewId

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


def _round_wait(cluster, event, down=()):
    """Crash ``down``, optionally split off d2 and settle the rest, then
    start (or heal) and settle: the install's delay after the last
    knowledge change, checked to be one round with no retry."""
    for name in down:
        cluster.daemons[name].crash()
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
    return max(e.t for e in installs) - changes[-1]


@pytest.mark.parametrize("event", ["start", "heal"])
def test_complete_configuration_installs_without_a_gather_timeout(event):
    """Once every configured daemon has announced the round naming all
    of them, the coordinator proposes at once: the install follows the
    last knowledge change by a few link latencies (announce, propose,
    sync, install), not by a ``gather_timeout``."""
    cluster = Cluster(daemon_count=3)
    waited = _round_wait(cluster, event)
    latency = cluster.network.default_link.base_latency
    assert waited <= 10 * latency < cluster.config.gather_timeout / 4


@pytest.mark.parametrize("event", ["start", "heal"])
def test_round_installs_one_gather_timeout_after_last_change(event):
    """A round that has not heard every configured daemon proposes once
    its participants have been stable for one ``gather_timeout``: with
    d3 configured but down, nobody can tell it from a slow daemon, so
    the install comes that long (plus link and sync slack, well under a
    second deadline) after the last knowledge change."""
    cluster = Cluster(daemon_count=4)
    waited = _round_wait(cluster, event, down=["d3"])
    gather = cluster.config.gather_timeout
    assert gather <= waited <= gather + gather / 4


class _HandFed:
    """A bare MembershipEngine: sends go nowhere, timers and the trace
    are lists."""

    def __init__(self, me, daemons=("d0", "d1", "d2", "d3"), alive=None):
        self.timers = []
        self.trace = []
        self.alive = set(alive if alive is not None else daemons)
        self.engine = MembershipEngine(
            me=me,
            config=SpreadConfig(daemons=tuple(daemons)),
            send=lambda dest, msg: None,
            broadcast_all=lambda msg: None,
            make_sync=self._sync,
            commit=lambda install: None,
            schedule=lambda delay, fn: self.timers.append(fn),
            alive_set=lambda: set(self.alive),
            trace=lambda kind, **fields: self.trace.append((kind, fields)),
        )

    def _sync(self, round_id, new_view):
        return SyncInfo(
            sender=self.engine.me,
            round_id=round_id,
            new_view=new_view,
            old_view=ViewId(0, 0, self.engine.me),
            undelivered=(),
            delivered_ts=0,
            delivered_fifo={},
            groups={},
            lamport=0,
        )

    def announce(self, sender, round_id, *alive):
        self.engine.on_gather(
            GatherAnnounce(
                sender=sender,
                round_id=round_id,
                alive=frozenset(alive),
                view_id=ViewId(0, 0, sender),
                incarnation=0,
            )
        )

    def fire_timers(self):
        timers, self.timers = self.timers, []
        for fn in timers:
            fn()

    def kinds(self, kind):
        return [fields for k, fields in self.trace if k == kind]


def test_complete_round_proposes_on_the_last_announce():
    fed = _HandFed("d0", daemons=("d0", "d1", "d2"))
    fed.engine.trigger("test")
    fed.announce("d1", 1, "d0", "d1", "d2")
    assert fed.engine.state == STATE_GATHER
    fed.announce("d2", 1, "d0", "d1", "d2")
    assert fed.engine.state == STATE_COLLECT
    assert [p["members"] for p in fed.kinds("memb.propose")] == [
        ("d0", "d1", "d2")
    ]


def test_round_where_one_daemon_misses_another_waits_for_the_deadline():
    """Every configured daemon announced, but d2 does not hear d1: the
    round is not complete, so only the deadline proposes."""
    fed = _HandFed("d0", daemons=("d0", "d1", "d2"))
    fed.engine.trigger("test")
    fed.announce("d1", 1, "d0", "d1", "d2")
    fed.announce("d2", 1, "d0", "d2")
    assert fed.engine.state == STATE_GATHER
    assert not fed.kinds("memb.propose")


def _proposed_without_d3():
    """d0 coordinating a round of d0-d2 (d3 configured, never heard),
    proposed by the gather deadline."""
    fed = _HandFed("d0", alive={"d1", "d2"})
    fed.engine.trigger("test")
    fed.announce("d1", 1, "d0", "d1", "d2")
    fed.announce("d2", 1, "d0", "d1", "d2")
    assert fed.engine.state == STATE_GATHER
    fed.fire_timers()
    assert fed.engine.state == STATE_COLLECT
    return fed


def test_late_echo_does_not_restart_a_collecting_round():
    fed = _proposed_without_d3()
    fed.announce("d1", 1, "d0", "d1")  # stale knowledge, same round
    fed.announce("d2", 1, "d0", "d1", "d2")
    assert fed.engine.state == STATE_COLLECT
    assert len(fed.kinds("memb.propose")) == 1
    assert len(fed.kinds("memb.gather")) == 1


def test_late_echo_does_not_restart_a_syncing_member():
    fed = _HandFed("d1", alive={"d0", "d2"})
    fed.engine.trigger("test")
    fed.engine.on_propose(
        Propose(
            coordinator="d0",
            round_id=1,
            new_view=ViewId(1, 1, "d0"),
            members=("d0", "d1", "d2"),
        )
    )
    assert fed.engine.state == STATE_SYNC_WAIT
    fed.announce("d2", 1, "d0", "d1", "d2")
    assert fed.engine.state == STATE_SYNC_WAIT
    assert len(fed.kinds("memb.gather")) == 1


def test_announce_naming_an_outsider_restarts_the_gather():
    fed = _proposed_without_d3()
    fed.alive.add("d3")
    fed.announce("d1", 1, "d0", "d1", "d2", "d3")
    assert fed.engine.state == STATE_GATHER
    assert [g["reason"] for g in fed.kinds("memb.gather")] == [
        "test",
        "peer-gather",
    ]
