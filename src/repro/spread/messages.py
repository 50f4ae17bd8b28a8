"""Daemon-to-daemon wire messages.

All inter-daemon traffic is one of these dataclasses, sent as datagrams
through :class:`repro.net.network.Network`.  ``wire_size`` feeds the
link serialization model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.types import ProcessId, ServiceType, ViewId

# Data message kinds: application payloads plus the internal control
# messages that flow through the same ordered pipeline.
KIND_APP = "app"
KIND_GROUP_JOIN = "group_join"
KIND_GROUP_LEAVE = "group_leave"
KIND_DISCONNECT = "disconnect"

#: The budget of one coalesced frame — a daemon's ``Packed`` envelope
#: and a TCP client's multicast batch alike: it closes at this many
#: messages or once its payloads reach this many bytes.
PACK_MAX_MESSAGES = 16
PACK_MAX_BYTES = 8192


def payload_size(payload: Any) -> int:
    """What a multicast payload counts on the wire: its own
    ``wire_size()`` (fragments, sealed bodies, tokens), a string's
    length, else a nominal 64 bytes."""
    size = getattr(payload, "wire_size", None)
    if callable(size):
        return int(size())
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    return 64


@dataclass(frozen=True, slots=True)
class DataMessage:
    """An ordered multicast within a daemon view.

    ``seq`` is per (daemon, view); ``lamport`` drives the total order;
    ``origin``/``origin_seq`` identify the sending client connection.
    ``group`` may be a regular group name or a private ``#name#daemon``
    target for unicast.
    """

    sender_daemon: str
    view_id: ViewId
    seq: int
    lamport: int
    service: ServiceType
    kind: str
    group: str
    origin: Optional[ProcessId]
    origin_seq: int
    payload: Any = None
    # For CAUSAL service under the Lamport engine: the sender's delivery
    # vector at send time — (daemon, highest delivered seq) pairs.  The
    # message may only be delivered after its causal past.
    causal_vector: Optional[Tuple[Tuple[str, int], ...]] = None
    # Memoized wire size: the ``payload_size`` probe runs on every
    # retransmit, complement scan and delivery-accounting hit, and the
    # message (and its payload) is immutable — compute it once.
    _wire_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def key(self) -> Tuple[str, int]:
        return (self.sender_daemon, self.seq)

    def wire_size(self) -> int:
        cached = self._wire_size
        if cached is not None:
            return cached
        size = 96 + payload_size(self.payload)
        object.__setattr__(self, "_wire_size", size)
        return size


@dataclass(frozen=True, slots=True)
class Packed:
    """Several reliable :class:`DataMessage`\\ s for one destination in a
    single wire datagram.

    Sender-side coalescing: a daemon with multiple pending data messages
    bound for the same peer packs them into one envelope (flushed by
    count, byte and time budgets — :class:`repro.spread.config
    .SpreadConfig`), so N small multicasts cost one network event
    instead of N.  Receivers unwrap and ingest the members in order,
    which preserves per-sender FIFO exactly as if they had travelled
    individually.
    """

    sender: str
    view_id: ViewId
    messages: Tuple[DataMessage, ...]

    def wire_size(self) -> int:
        # A small framing header plus the members verbatim; never less
        # than the sum of the members, so the cross-layer byte
        # conservation inequalities keep holding under packing.
        return 16 + sum(m.wire_size() for m in self.messages)


@dataclass(frozen=True, slots=True)
class Hello:
    """Heartbeat: liveness, total-order progress and safe-delivery acks.

    ``lamport``: the sender's logical clock (everything it will ever send
    in this view has a larger timestamp).
    ``all_received``: the sender has ingested every view message with
    lamport <= this value from every view member (drives SAFE delivery).
    ``sent_seq``: the sender's highest sent sequence number in this view,
    so receivers only extend the ordered horizon when nothing is in
    flight.
    """

    sender: str
    view_id: ViewId
    lamport: int
    all_received: int
    incarnation: int
    sent_seq: int = 0

    def wire_size(self) -> int:
        return 64


@dataclass(frozen=True, slots=True)
class Nack:
    """Request retransmission of missing sequence numbers."""

    sender: str
    view_id: ViewId
    target: str  # daemon whose messages are missing
    missing: Tuple[int, ...]

    def wire_size(self) -> int:
        return 48 + 8 * len(self.missing)


@dataclass(frozen=True, slots=True)
class GatherAnnounce:
    """Membership stage 1: 'these are the daemons I currently hear'."""

    sender: str
    round_id: int
    alive: FrozenSet[str]
    view_id: ViewId
    incarnation: int

    def wire_size(self) -> int:
        return 64 + 16 * len(self.alive)


@dataclass(frozen=True, slots=True)
class Propose:
    """Membership stage 2: the coordinator proposes the new view."""

    coordinator: str
    round_id: int
    new_view: ViewId
    members: Tuple[str, ...]

    def wire_size(self) -> int:
        return 64 + 16 * len(self.members)


@dataclass(frozen=True, slots=True)
class SyncInfo:
    """Membership stage 3: a member's cut of its old view.

    ``undelivered``: every old-view message it has ingested but not yet
    delivered.  ``delivered_ts`` / ``delivered_fifo``: how far delivery
    already progressed (a prefix, by the ordering rules).  ``groups``:
    the member's authoritative process-group table.  ``lamport`` lets the
    new view start above every clock.
    """

    sender: str
    round_id: int
    new_view: ViewId
    old_view: ViewId
    undelivered: Tuple[DataMessage, ...]
    delivered_ts: int
    delivered_fifo: Dict[str, int]
    groups: Dict[str, Tuple[str, ...]]  # group name -> process id strings
    lamport: int

    def wire_size(self) -> int:
        return 128 + sum(m.wire_size() for m in self.undelivered)


@dataclass(frozen=True, slots=True)
class Install:
    """Membership stage 4: commit the new view.

    ``complements``: per old view, the union of undelivered messages
    gathered from all members that came from that view — every member
    ingests the union, flushes deliveries, then installs.  ``groups`` is
    the merged process-group table for the new view.
    """

    coordinator: str
    round_id: int
    new_view: ViewId
    members: Tuple[str, ...]
    complements: Dict[ViewId, Tuple[DataMessage, ...]]
    # Per old view: which of its members contributed a cut (their message
    # streams are complete in the complement).
    synced: Dict[ViewId, Tuple[str, ...]]
    groups: Dict[str, Tuple[str, ...]]
    start_lamport: int

    def wire_size(self) -> int:
        total = 128 + 16 * len(self.members)
        for messages in self.complements.values():
            total += sum(m.wire_size() for m in messages)
        return total
