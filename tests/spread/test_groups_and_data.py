"""Process groups, data multicast, ordering guarantees across clients."""

import pytest

from repro.spread.events import DataEvent, MembershipEvent, SelfLeaveEvent
from repro.types import MembershipCause, ServiceType

from tests.spread.conftest import Cluster


def members_of(client, group="g"):
    """Latest regular membership view a client received for the group
    (transitional signals are advisory and skipped)."""
    views = [
        e for e in client.queue
        if isinstance(e, MembershipEvent)
        and str(e.group) == group
        and e.cause != MembershipCause.TRANSITIONAL
    ]
    return {str(m) for m in views[-1].members} if views else set()


def data_payloads(client, group="g"):
    return [
        e.payload for e in client.queue
        if isinstance(e, DataEvent) and str(e.group) == group
    ]


# -- join / leave ----------------------------------------------------------------


def test_join_delivers_membership_event(cluster):
    a = cluster.client("a", "d0")
    a.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    event = a.membership_events()[-1]
    assert event.cause == MembershipCause.JOIN


def test_two_clients_same_daemon_see_each_other(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d0")
    a.join("g")
    b.join("g")
    cluster.run_until(
        lambda: members_of(a) == {"#a#d0", "#b#d0"}
        and members_of(b) == {"#a#d0", "#b#d0"}
    )


def test_clients_across_daemons_see_each_other(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    c = cluster.client("c", "d2")
    for client in (a, b, c):
        client.join("g")
    expected = {"#a#d0", "#b#d1", "#c#d2"}
    cluster.run_until(
        lambda: all(members_of(x) == expected for x in (a, b, c))
    )


def test_leave_notifies_remaining_and_self(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    b.leave("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    assert a.membership_events()[-1].cause == MembershipCause.LEAVE
    cluster.run_until(
        lambda: any(isinstance(e, SelfLeaveEvent) for e in b.queue)
    )


def test_disconnect_removes_from_all_groups(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    for group in ("g", "h"):
        a.join(group)
        b.join(group)
    cluster.run_until(
        lambda: members_of(a, "g") == {"#a#d0", "#b#d1"}
        and members_of(a, "h") == {"#a#d0", "#b#d1"}
    )
    b.disconnect()
    cluster.run_until(
        lambda: members_of(a, "g") == {"#a#d0"} and members_of(a, "h") == {"#a#d0"}
    )
    causes = {
        e.cause for e in a.membership_events()
        if e.left and str(e.group) in ("g", "h")
    }
    assert causes == {MembershipCause.DISCONNECT}


def test_client_crash_treated_as_disconnect(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    b.crash()
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})


def test_daemon_crash_removes_its_clients_from_groups(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d2")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d2"})
    cluster.daemons["d2"].crash()
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    assert a.membership_events()[-1].cause == MembershipCause.NETWORK


# -- data -------------------------------------------------------------------------


def test_multicast_reaches_all_members(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.AGREED, "g", "hello")
    cluster.run_until(lambda: "hello" in data_payloads(b))
    cluster.run_until(lambda: "hello" in data_payloads(a))
    assert "hello" in data_payloads(a)  # self delivery


def test_self_discard(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.AGREED | ServiceType.SELF_DISCARD, "g", "m")
    cluster.run_until(lambda: "m" in data_payloads(b))
    assert "m" not in data_payloads(a)


def test_non_member_does_not_receive(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    outsider = cluster.client("x", "d2")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.AGREED, "g", "secret")
    cluster.run_until(lambda: "secret" in data_payloads(b))
    assert data_payloads(outsider) == []


def test_open_group_non_member_can_send(cluster):
    """EVS allows open groups: non-members may send to a group."""
    a = cluster.client("a", "d0")
    outsider = cluster.client("x", "d2")
    a.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    outsider.multicast(ServiceType.AGREED, "g", "from-outside")
    cluster.run_until(lambda: "from-outside" in data_payloads(a))


def test_unicast_private_message(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.unicast(ServiceType.FIFO, b.pid, "psst")
    cluster.run_until(
        lambda: any(
            isinstance(e, DataEvent) and e.payload == "psst" for e in b.queue
        )
    )
    # Not delivered to anyone else.
    assert all(e.payload != "psst" for e in a.data_events())


def test_fifo_order_per_sender(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    for i in range(20):
        a.multicast(ServiceType.FIFO, "g", i)
    cluster.run_until(lambda: len(data_payloads(b)) == 20)
    assert data_payloads(b) == list(range(20))


def test_agreed_total_order_across_senders(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    c = cluster.client("c", "d2")
    for client in (a, b, c):
        client.join("g")
    expected = {"#a#d0", "#b#d1", "#c#d2"}
    cluster.run_until(lambda: all(members_of(x) == expected for x in (a, b, c)))
    for i in range(5):
        a.multicast(ServiceType.AGREED, "g", f"a{i}")
        b.multicast(ServiceType.AGREED, "g", f"b{i}")
        c.multicast(ServiceType.AGREED, "g", f"c{i}")
    cluster.run_until(
        lambda: all(len(data_payloads(x)) == 15 for x in (a, b, c)),
    )
    assert data_payloads(a) == data_payloads(b) == data_payloads(c)


def test_safe_delivery(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.SAFE, "g", "stable")
    cluster.run_until(lambda: "stable" in data_payloads(b))
    cluster.run_until(lambda: "stable" in data_payloads(a))
    assert "stable" in data_payloads(a)


def test_unreliable_delivery_on_clean_network(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"})
    a.multicast(ServiceType.UNRELIABLE, "g", "maybe")
    cluster.run_until(lambda: "maybe" in data_payloads(b))


def test_causal_order_chain(cluster):
    """b sends 'reply' only after seeing 'ask': no member may see them
    reversed."""
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    c = cluster.client("c", "d2")
    for client in (a, b, c):
        client.join("g")
    expected = {"#a#d0", "#b#d1", "#c#d2"}
    cluster.run_until(lambda: all(members_of(x) == expected for x in (a, b, c)))

    def maybe_reply(event):
        if isinstance(event, DataEvent) and event.payload == "ask":
            b.multicast(ServiceType.CAUSAL, "g", "reply")

    b.on_event(maybe_reply)
    a.multicast(ServiceType.CAUSAL, "g", "ask")
    cluster.run_until(lambda: "reply" in data_payloads(c))
    payloads = data_payloads(c)
    assert payloads.index("ask") < payloads.index("reply")


# -- lossy network -----------------------------------------------------------------


def test_reliable_delivery_over_lossy_links():
    from repro.net.link import LinkModel

    cluster = Cluster(daemon_count=3, seed=3)
    cluster.network.default_link = LinkModel(
        base_latency=0.0002, loss_rate=0.10
    )
    cluster.settle()
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(b) == {"#a#d0", "#b#d1"}, timeout=30)
    for i in range(30):
        a.multicast(ServiceType.FIFO, "g", i)
    cluster.run_until(lambda: len(data_payloads(b)) == 30, timeout=60)
    assert data_payloads(b) == list(range(30))


# -- partitions and group views -------------------------------------------------------


def test_partition_splits_group_views(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    cluster.network.partition([["d0"], ["d1", "d2"]])
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    cluster.run_until(lambda: members_of(b) == {"#b#d1"})
    assert a.membership_events()[-1].cause == MembershipCause.NETWORK


def test_merge_rejoins_group_views(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    cluster.network.partition([["d0"], ["d1", "d2"]])
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    cluster.network.heal()
    cluster.run_until(
        lambda: members_of(a) == {"#a#d0", "#b#d1"}
        and members_of(b) == {"#a#d0", "#b#d1"}
    )
    last = a.membership_events()[-1]
    assert last.cause == MembershipCause.NETWORK
    assert {str(p) for p in last.joined} == {"#b#d1"}


def test_member_returning_from_a_view_we_missed_left_and_joined(cluster):
    """d0 stalls through the view where d1 and d2 drop it, so its group
    table still lists b when all three merge: to a, b has left and joined
    (as a has joined on b's side), not stayed."""
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    cluster.daemons["d0"].stall()
    cluster.run_until(lambda: members_of(b) == {"#b#d1"})
    seen = len(a.membership_events())
    cluster.daemons["d0"].resume()
    cluster.run_until(
        lambda: members_of(b) == {"#a#d0", "#b#d1"}
        and len(a.membership_events()) > seen
    )
    (merged,) = a.membership_events()[seen:]
    assert merged.cause == MembershipCause.NETWORK
    assert {str(p) for p in merged.members} == {"#a#d0", "#b#d1"}
    assert {str(p) for p in merged.joined} == {"#b#d1"}
    assert {str(p) for p in merged.left} == {"#b#d1"}
    theirs = b.membership_events()[-1]
    assert {str(p) for p in theirs.joined} == {"#a#d0"}
    assert not theirs.left


def test_messages_do_not_cross_partition(cluster):
    a = cluster.client("a", "d0")
    b = cluster.client("b", "d1")
    a.join("g")
    b.join("g")
    cluster.run_until(lambda: members_of(a) == {"#a#d0", "#b#d1"})
    cluster.network.partition([["d0"], ["d1", "d2"]])
    cluster.run_until(lambda: members_of(a) == {"#a#d0"})
    a.multicast(ServiceType.AGREED, "g", "lonely")
    cluster.run(1.0)
    assert "lonely" in data_payloads(a)
    assert "lonely" not in data_payloads(b)
