"""Lightweight process-group state.

Every daemon tracks the membership of every group (process ids, i.e.
``#name#daemon`` strings).  Group changes flow through the agreed-order
pipeline, so all daemons apply them in the same order; at daemon view
changes the tables are merged/pruned by the membership protocol.  Both
paths keep the tables identical across connected daemons.

``change_counter`` is kept apart from the members on purpose: its
lifecycle is observable through ``GroupViewId`` counters.  Entries
survive empty-group collection — within one daemon view the counter is
the only thing keeping group-view ids totally ordered and unique, so a
group that empties and re-forms keeps counting — and reset only at view
installation, where the daemon-view half of the id changes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Mapping, Set, Tuple

from repro.types import ProcessId


def daemon_of(pid_string: str) -> str:
    """The daemon component of a ``#name#daemon`` process id string."""
    return ProcessId.parse(pid_string).daemon.name


class GroupTable:
    """Group name -> ordered tuple of process id strings.

    Member order is deterministic (sorted by ``(daemon, name)``), so all
    daemons present identical views to their clients.  A group with no
    members is not in the table.
    """

    def __init__(self) -> None:
        self._members: Dict[str, Tuple[str, ...]] = {}
        # Per-group change counter within the current daemon view.
        self.change_counter: Dict[str, int] = {}

    @staticmethod
    def _sort_key(pid_string: str) -> Tuple[str, str]:
        pid = ProcessId.parse(pid_string)
        return (pid.daemon.name, pid.private_name)

    # -- queries -------------------------------------------------------------

    def members_of(self, group: str) -> Tuple[str, ...]:
        return self._members.get(group, ())

    def groups(self) -> Tuple[str, ...]:
        return tuple(sorted(self._members))

    def groups_of(self, pid_string: str) -> Tuple[str, ...]:
        return tuple(sorted(
            group for group, members in self._members.items()
            if pid_string in members
        ))

    def is_member(self, group: str, pid_string: str) -> bool:
        return pid_string in self._members.get(group, ())

    def bump_change(self, group: str) -> int:
        counter = self.change_counter.get(group, 0) + 1
        self.change_counter[group] = counter
        return counter

    # -- mutations (applied in agreed order) ---------------------------------

    def join(self, group: str, pid_string: str) -> bool:
        """Add a member; returns False when already present."""
        members = self._members.get(group, ())
        if pid_string in members:
            return False
        index = bisect_left(
            members, self._sort_key(pid_string), key=self._sort_key
        )
        self._members[group] = members[:index] + (pid_string,) + members[index:]
        return True

    def leave(self, group: str, pid_string: str) -> bool:
        """Remove a member; returns False when not present.  Empty groups
        are garbage collected; their change counter survives."""
        members = self._members.get(group, ())
        if pid_string not in members:
            return False
        remaining = tuple(m for m in members if m != pid_string)
        if remaining:
            self._members[group] = remaining
        else:
            del self._members[group]
        return True

    # -- view changes --------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[str, ...]]:
        """Immutable copy for a SyncInfo message (groups sorted by name)."""
        return dict(sorted(self._members.items()))

    @classmethod
    def merged(
        cls,
        snapshots: Iterable[Mapping[str, Tuple[str, ...]]],
        surviving_daemons: Iterable[str],
    ) -> Dict[str, Tuple[str, ...]]:
        """Union the snapshots, keeping only processes on surviving daemons."""
        survivors = set(surviving_daemons)
        union: Dict[str, Set[str]] = {}
        for snapshot in snapshots:
            for group, members in snapshot.items():
                keep = {m for m in members if daemon_of(m) in survivors}
                if keep:
                    union.setdefault(group, set()).update(keep)
        return {
            group: tuple(sorted(members, key=cls._sort_key))
            for group, members in sorted(union.items())
        }

    def replace(self, table: Mapping[str, Tuple[str, ...]]) -> None:
        """Adopt a merged table at view installation; counters restart.

        Empty member tuples are dropped, so a group whose members all
        died does not survive a view change — as in :meth:`merged`,
        which never emits one.
        """
        self._members = {
            group: tuple(sorted(members, key=self._sort_key))
            for group, members in sorted(table.items())
            if members
        }
        self.change_counter = {}
