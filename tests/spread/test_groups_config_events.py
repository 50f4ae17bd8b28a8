"""Unit tests: GroupTable, SpreadConfig, app-facing event types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpreadError
from repro.spread.config import SpreadConfig
from repro.spread.events import DataEvent, GroupViewId, MembershipEvent
from repro.spread.groups import GroupTable, daemon_of
from repro.types import (
    DaemonId,
    GroupId,
    MembershipCause,
    ProcessId,
    ServiceType,
    ViewId,
)


# -- GroupTable ---------------------------------------------------------------------


def pid(name, daemon="d0"):
    return str(ProcessId(name, DaemonId(daemon)))


def test_join_and_members_sorted_by_daemon_then_name():
    table = GroupTable()
    table.join("g", pid("zed", "d0"))
    table.join("g", pid("amy", "d1"))
    table.join("g", pid("amy", "d0"))
    assert table.members_of("g") == (
        pid("amy", "d0"), pid("zed", "d0"), pid("amy", "d1")
    )


def test_join_idempotent():
    table = GroupTable()
    assert table.join("g", pid("a"))
    assert not table.join("g", pid("a"))
    assert len(table.members_of("g")) == 1


def test_d1_sorts_before_d10():
    # "d1" is a prefix of "d10": members order by the daemon name as a
    # whole, not by the pid string, where "#z#d1" > "#b#d10".
    table = GroupTable()
    table.join("g", pid("b", "d10"))
    table.join("g", pid("z", "d1"))
    table.join("g", pid("a", "d2"))
    assert table.members_of("g") == (
        pid("z", "d1"), pid("b", "d10"), pid("a", "d2")
    )


def test_leave_and_gc_empty_group():
    table = GroupTable()
    table.join("g", pid("a"))
    assert table.leave("g", pid("a"))
    assert table.members_of("g") == ()
    assert "g" not in table.groups()
    assert not table.leave("g", pid("a"))


def test_groups_of_process():
    table = GroupTable()
    table.join("g1", pid("a"))
    table.join("g2", pid("a"))
    table.join("g2", pid("b"))
    assert table.groups_of(pid("a")) == ("g1", "g2")
    assert table.groups_of(pid("b")) == ("g2",)


def test_change_counter_monotonic_per_group():
    table = GroupTable()
    assert table.bump_change("g") == 1
    assert table.bump_change("g") == 2
    assert table.bump_change("h") == 1


def test_merged_prunes_dead_daemons():
    snapshot1 = {"g": (pid("a", "d0"), pid("b", "d1"))}
    snapshot2 = {"g": (pid("c", "d2"),), "h": (pid("d", "d2"),)}
    merged = GroupTable.merged([snapshot1, snapshot2], ["d0", "d2"])
    assert merged["g"] == (pid("a", "d0"), pid("c", "d2"))
    assert merged["h"] == (pid("d", "d2"),)


def test_merged_deduplicates_across_snapshots():
    snapshot = {"g": (pid("a", "d0"),)}
    merged = GroupTable.merged([snapshot, snapshot], ["d0"])
    assert merged["g"] == (pid("a", "d0"),)


def test_replace_resets_counters():
    table = GroupTable()
    table.join("g", pid("a"))
    table.bump_change("g")
    table.replace({"g": (pid("a"), pid("b"))})
    assert table.bump_change("g") == 1
    assert table.members_of("g") == (pid("a"), pid("b"))


def test_snapshot_is_immutable_copy():
    table = GroupTable()
    table.join("g", pid("a"))
    snapshot = table.snapshot()
    table.join("g", pid("b"))
    assert snapshot["g"] == (pid("a"),)


def test_daemon_of():
    assert daemon_of(pid("a", "d7")) == "d7"


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(
        st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5,
        unique=True,
    )
)
def test_join_leave_roundtrip_property(names):
    table = GroupTable()
    for name in names:
        table.join("g", pid(name))
    assert set(table.members_of("g")) == {pid(n) for n in names}
    for name in names:
        table.leave("g", pid(name))
    assert table.members_of("g") == ()


# -- SpreadConfig -----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(SpreadError):
        SpreadConfig(daemons=())
    with pytest.raises(SpreadError):
        SpreadConfig(daemons=("a", "a"))
    with pytest.raises(SpreadError):
        SpreadConfig(daemons=("a", ""))
    with pytest.raises(SpreadError):
        SpreadConfig(daemons=("a",), hello_interval=-1)
    with pytest.raises(SpreadError):
        SpreadConfig(daemons=("a",), hello_interval=0.2, fail_timeout=0.1)


def test_config_for_daemons():
    config = SpreadConfig.for_daemons("x", "y", hello_interval=0.01)
    assert config.daemons == ("x", "y")
    assert config.hello_interval == 0.01


def test_config_index_of():
    config = SpreadConfig.for_daemons("x", "y")
    assert config.index_of("y") == 1
    with pytest.raises(SpreadError):
        config.index_of("z")


# -- identifier/event types ------------------------------------------------------------------


def test_process_id_roundtrip():
    original = ProcessId("alice", DaemonId("d1"))
    assert ProcessId.parse(str(original)) == original


def test_process_id_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ProcessId.parse("no-hashes")
    with pytest.raises(ValueError):
        ProcessId.parse("#only#one#extra#")


def test_view_id_ordering():
    a = ViewId(1, 1, "d0")
    b = ViewId(1, 2, "d0")
    c = ViewId(2, 0, "d9")
    assert a < b < c


def test_group_view_id_ordering_and_str():
    v = ViewId(1, 1, "d0")
    a = GroupViewId(v, 1)
    b = GroupViewId(v, 2)
    assert a < b
    assert str(a).endswith("+1")


def test_service_type_predicates():
    assert ServiceType.AGREED.is_regular
    assert not ServiceType.MEMBERSHIP.is_membership == False
    assert (ServiceType.AGREED | ServiceType.MEMBERSHIP).is_membership
    assert ServiceType.SAFE.ordering_rank > ServiceType.FIFO.ordering_rank
    assert ServiceType.MEMBERSHIP.ordering_rank == -1


def test_membership_event_describe():
    event = MembershipEvent(
        group=GroupId("g"),
        view_id=GroupViewId(ViewId(1, 1, "d0"), 3),
        members=(ProcessId("a", DaemonId("d0")),),
        cause=MembershipCause.JOIN,
        joined=frozenset({ProcessId("a", DaemonId("d0"))}),
    )
    text = event.describe()
    assert "g@" in text and "cause=join" in text
    assert event.is_membership


def test_data_event_is_not_membership():
    event = DataEvent(
        group=GroupId("g"),
        sender=ProcessId("a", DaemonId("d0")),
        service=ServiceType.AGREED,
        payload=b"x",
        seq=1,
    )
    assert not event.is_membership
