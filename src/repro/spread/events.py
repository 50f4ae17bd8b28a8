"""Application-facing events: data messages and membership notifications.

These are what a client's receive queue holds — the equivalents of
Spread's regular messages and membership messages (with CAUSED_BY
reasons), plus the flush-request signal used by the View Synchrony layer
and the two connection events a client queues when its daemon goes away
and (over TCP, after a reconnect) comes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Tuple

from repro.types import GroupId, MembershipCause, ProcessId, ServiceType, ViewId


@dataclass(frozen=True, slots=True)
class GroupViewId:
    """Identifier of a process-group view: the daemon view it happened in
    plus a per-group change counter (totally ordered per group)."""

    daemon_view: ViewId
    change: int

    def __lt__(self, other: "GroupViewId") -> bool:
        return (self.daemon_view, self.change) < (other.daemon_view, other.change)

    def __str__(self) -> str:
        return f"{self.daemon_view}+{self.change}"


@dataclass(frozen=True, slots=True)
class DataEvent:
    """A delivered application data message."""

    group: GroupId
    sender: ProcessId
    service: ServiceType
    payload: Any
    seq: int  # per-sender-connection sequence number

    @property
    def is_membership(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    """A group membership notification.

    ``members`` is the new group view; ``joined``/``left`` are the deltas
    relative to the previous view; ``cause`` says why (Table 1's input
    alphabet).  For network-caused changes both ``joined`` and ``left``
    can be non-empty — the paper's "partition + merge" case.
    """

    group: GroupId
    view_id: GroupViewId
    members: Tuple[ProcessId, ...]
    cause: MembershipCause
    joined: FrozenSet[ProcessId] = frozenset()
    left: FrozenSet[ProcessId] = frozenset()
    self_left: bool = False

    @property
    def is_membership(self) -> bool:
        return True

    def describe(self) -> str:
        return (
            f"{self.group}@{self.view_id}: {len(self.members)} members,"
            f" cause={self.cause.value},"
            f" +{sorted(str(p) for p in self.joined)}"
            f" -{sorted(str(p) for p in self.left)}"
        )


@dataclass(frozen=True, slots=True)
class FlushRequestEvent:
    """The flush layer asks the application to OK a membership change.

    The application must answer with ``flush_ok()``; until the new view
    is delivered, sending in the group is blocked.  Note (paper, §5.4):
    at this point the application does *not* yet know what the new
    membership will be.
    """

    group: GroupId

    @property
    def is_membership(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class SelfLeaveEvent:
    """Delivered to a client right after its own voluntary leave."""

    group: GroupId

    @property
    def is_membership(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class ConnectionLostEvent:
    """Queued once per outage: the connection to the daemon is gone
    (the daemon crashed, closed the socket, or fell silent)."""

    reason: str = ""

    @property
    def is_membership(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class ConnectionRestoredEvent:
    """Queued after a successful reconnect, before the re-join
    membership events arrive."""

    @property
    def is_membership(self) -> bool:
        return False
