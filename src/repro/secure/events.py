"""Events and effects of the secure layer, and the Table-1 map.

The secure layer consumes flush-layer events and produces:

* :class:`SecureDataEvent` — a decrypted, integrity-verified payload;
* :class:`SecureMembershipEvent` — a *secure view*: delivered only once
  the new group key is agreed AND confirmed by every member;
* :class:`RekeyStartedEvent` — a membership change arrived and the key
  agreement began (sends are blocked until the secure view arrives).

A session returns these events to its driver among its *effects*; the
other effects are the I/O it leaves to the driver: :class:`Send`,
:class:`Timer` and :data:`FLUSH_OK`.

This module also implements the paper's Table 1: the mapping from group
communication membership events to key management operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Tuple

from repro.spread.events import GroupViewId, MembershipEvent
from repro.types import GroupId, MembershipCause, ProcessId


class KeyOperation(enum.Enum):
    """Group key management operations (Section 4 of the paper)."""

    JOIN = "join"
    LEAVE = "leave"
    MERGE = "merge"
    LEAVE_THEN_MERGE = "leave_then_merge"
    REFRESH = "refresh"
    NONE = "none"


#: Table 1 — Mapping of Spread events to group key management operations.
#: (Group Change Request maps to N/A: the flush request is answered
#: immediately, per §5.4 — the layer cannot yet know what the event is.)
TABLE_1 = {
    MembershipCause.JOIN: KeyOperation.JOIN,
    MembershipCause.LEAVE: KeyOperation.LEAVE,
    MembershipCause.DISCONNECT: KeyOperation.LEAVE,
    MembershipCause.NETWORK: None,  # partition / merge / both: see below
}


def classify_event(event: MembershipEvent) -> KeyOperation:
    """Map one VS membership event to the key operation it requires.

    NETWORK-caused events depend on the deltas: only departures is a
    partition (-> LEAVE), only arrivals a merge (-> MERGE), both at once
    the paper's "Partition + Merge" (-> LEAVE then MERGE).
    """
    if event.cause == MembershipCause.JOIN:
        return KeyOperation.JOIN
    if event.cause in (MembershipCause.LEAVE, MembershipCause.DISCONNECT):
        return KeyOperation.LEAVE
    if event.cause == MembershipCause.NETWORK:
        if event.joined and event.left:
            return KeyOperation.LEAVE_THEN_MERGE
        if event.joined:
            return KeyOperation.MERGE
        if event.left:
            return KeyOperation.LEAVE
        return KeyOperation.REFRESH
    return KeyOperation.NONE


@dataclass(frozen=True, slots=True)
class SecureDataEvent:
    """A decrypted and authenticated application message."""

    group: GroupId
    sender: ProcessId
    payload: bytes
    epoch_label: str

    @property
    def is_membership(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class SecureMembershipEvent:
    """A secure view: membership plus a confirmed fresh group key.

    ``attempt`` is 0 for a clean (non-cascaded) agreement and counts
    restart rounds otherwise; ``key_fingerprint`` is a non-secret tag all
    members can compare.
    """

    group: GroupId
    view_id: GroupViewId
    members: Tuple[ProcessId, ...]
    cause: MembershipCause
    operation: KeyOperation
    attempt: int
    key_fingerprint: str

    @property
    def is_membership(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class RekeyStartedEvent:
    """A membership change arrived; key agreement is running.  Sends are
    blocked until the matching :class:`SecureMembershipEvent`."""

    group: GroupId
    operation: KeyOperation

    @property
    def is_membership(self) -> bool:
        return False


class Send(NamedTuple):
    """Effect: control messages for the group, as ``(target, payload)``
    pairs in sending order; a ``None`` target multicasts.  A blocked or
    closed connection drops the pairs not yet sent."""

    messages: Tuple[Tuple[Optional[str], Any], ...]


class Timer(NamedTuple):
    """Effect: give this back to ``handle_event`` after ``delay`` seconds.

    ``kind`` is ``"unseal"`` (the end-of-turn drain), ``"watchdog"``
    (``data`` is the ``(view_key, attempt)`` it guards) or ``"crypto"``
    (``data`` is the :class:`Send` a costed round waits to make).
    """

    delay: float
    kind: str
    data: Any = None


class _FlushOk:
    def __repr__(self) -> str:
        return "FLUSH_OK"


#: Effect: answer the group's pending flush request.
FLUSH_OK = _FlushOk()
