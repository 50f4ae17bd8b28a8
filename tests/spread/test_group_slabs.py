"""GroupTable mechanics, checked through its public queries.

Protocol-level group behaviour (joins through the agreed-order pipeline,
merges at view changes) is covered by ``test_groups_and_data.py``; these
tests target the table itself — insertion order, no-op mutations,
empty-group collection, the change-counter lifecycle and the view-change
pair ``merged``/``replace``.  The file name dates from the slab-backed
table; the table is now one dict of sorted member tuples.
"""

from repro.spread.groups import GroupTable


def _pid(name: str, daemon: str) -> str:
    return f"#{name}#{daemon}"


def test_members_sorted_by_daemon_then_name():
    table = GroupTable()
    for pid in (_pid("z", "d2"), _pid("a", "d1"), _pid("m", "d1"),
                _pid("b", "d0")):
        assert table.join("g", pid)
    assert table.members_of("g") == (
        _pid("b", "d0"), _pid("a", "d1"), _pid("m", "d1"), _pid("z", "d2"),
    )


def test_duplicate_join_and_missing_leave_are_noops():
    table = GroupTable()
    assert table.join("g", _pid("a", "d0"))
    assert not table.join("g", _pid("a", "d0"))
    assert table.members_of("g") == (_pid("a", "d0"),)
    assert not table.leave("g", _pid("ghost", "d0"))
    assert not table.leave("nogroup", _pid("a", "d0"))


def test_reverse_index_tracks_groups_of_process():
    table = GroupTable()
    pid = _pid("p", "d0")
    for group in ("beta", "alpha", "gamma"):
        table.join(group, pid)
    table.join("alpha", _pid("q", "d1"))
    assert table.groups_of(pid) == ("alpha", "beta", "gamma")
    for group in table.groups_of(pid):
        assert table.leave(group, pid)
    assert table.groups_of(pid) == ()
    # beta/gamma became empty and were collected; alpha survives.
    assert table.groups() == ("alpha",)
    assert table.members_of("alpha") == (_pid("q", "d1"),)


def test_empty_groups_are_collected_and_gids_recycled():
    table = GroupTable()
    pid = _pid("p", "d0")
    table.join("old", pid)
    table.leave("old", pid)
    assert table.groups() == ()
    assert table.snapshot() == {}
    # A collected group leaves nothing behind for the next one, and its
    # name re-forms from scratch.
    table.join("new", pid)
    assert table.groups() == ("new",)
    table.join("old", _pid("q", "d1"))
    assert table.members_of("old") == (_pid("q", "d1"),)


def test_snapshot_sorted_and_independent_of_recycling():
    table = GroupTable()
    table.join("zeta", _pid("a", "d0"))
    table.join("alpha", _pid("b", "d1"))
    table.leave("zeta", _pid("a", "d0"))
    table.join("beta", _pid("c", "d0"))
    snapshot = table.snapshot()
    assert list(snapshot) == ["alpha", "beta"]
    assert snapshot["beta"] == (_pid("c", "d0"),)


def test_is_member_and_counts():
    table = GroupTable()
    table.join("g", _pid("a", "d0"))
    table.join("h", _pid("a", "d0"))
    assert table.is_member("g", _pid("a", "d0"))
    assert not table.is_member("g", _pid("b", "d0"))
    assert not table.is_member("nogroup", _pid("a", "d0"))
    assert len(table.groups()) == 2


def test_change_counter_lifecycle():
    table = GroupTable()
    pid = _pid("a", "d0")
    table.join("g", pid)
    assert table.bump_change("g") == 1
    assert table.bump_change("g") == 2
    # The counter SURVIVES empty-group collection: within one daemon
    # view it is the only thing keeping GroupViewId unique, so a group
    # that empties and re-forms must not reuse old view ids.
    table.leave("g", pid)
    assert table.groups() == ()
    table.join("g", pid)
    assert table.bump_change("g") == 3
    table.replace({"g": (pid,)})  # view installation restarts counters
    assert table.bump_change("g") == 1


def test_replace_rebuilds_slabs_and_reverse_index():
    table = GroupTable()
    table.join("stale", _pid("x", "d9"))
    merged = {
        "g": (_pid("b", "d1"), _pid("a", "d0")),
        "empty": (),
        "h": (_pid("a", "d0"),),
    }
    table.replace(merged)
    assert table.groups() == ("g", "h")
    assert table.members_of("g") == (_pid("a", "d0"), _pid("b", "d1"))
    assert table.groups_of(_pid("a", "d0")) == ("g", "h")
    assert table.groups_of(_pid("x", "d9")) == ()


def test_merged_prunes_dead_daemons_and_unions():
    snap_a = {"g": (_pid("a", "d0"), _pid("b", "d1"))}
    snap_b = {"g": (_pid("c", "d2"),), "h": (_pid("b", "d1"),)}
    merged = GroupTable.merged([snap_a, snap_b], surviving_daemons=["d0", "d1"])
    assert merged == {
        "g": (_pid("a", "d0"), _pid("b", "d1")),
        "h": (_pid("b", "d1"),),
    }


def test_empty_groups_do_not_survive_a_view_change():
    # The two view-change layers must agree on empty groups: merged()
    # never emits a group whose members were all on dead daemons, and
    # replace() drops empty member tuples — so a fully-dead group is
    # gone from groups()/snapshot() after installation.
    snap_a = {"doomed": (_pid("a", "d9"), _pid("b", "d8")),
              "mixed": (_pid("c", "d9"), _pid("d", "d0"))}
    snap_b = {"doomed": (_pid("e", "d8"),)}
    merged = GroupTable.merged([snap_a, snap_b], surviving_daemons=["d0"])
    assert merged == {"mixed": (_pid("d", "d0"),)}
    table = GroupTable()
    table.join("doomed", _pid("a", "d9"))
    table.replace(merged)
    assert table.groups() == ("mixed",)
    assert table.snapshot() == {"mixed": (_pid("d", "d0"),)}
    # And replace() agrees even when handed an explicit empty entry.
    table.replace({"mixed": (_pid("d", "d0"),), "doomed": ()})
    assert table.groups() == ("mixed",)


def test_large_group_stays_sorted_under_churn():
    table = GroupTable()
    pids = [_pid(f"m{index:04d}", f"d{index % 7}") for index in range(1500)]
    # Join in a scrambled order, leave a third, join some back.
    for pid in reversed(pids):
        table.join("big", pid)
    for pid in pids[::3]:
        table.leave("big", pid)
    for pid in pids[::6]:
        table.join("big", pid)
    expected = set(pids) - set(pids[::3]) | set(pids[::6])
    members = table.members_of("big")
    assert list(members) == sorted(members, key=GroupTable._sort_key)
    assert set(members) == expected and len(members) == len(expected)
    assert all(table.is_member("big", m) for m in members)
