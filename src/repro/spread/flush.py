"""The Flush layer: View Synchrony on top of Extended Virtual Synchrony.

Spread ships a flush library providing VS over its EVS core; secure
Spread is built on it (paper §3.1, §5).  The guarantee added over EVS:
a message is delivered to all recipients *in the membership the sender
believed it was sending in*.  The cost is one round of flush
acknowledgements before each new view:

1. The EVS layer reports a group membership change.  The flush layer
   blocks sending and asks the application to OK the change
   (:class:`~repro.spread.events.FlushRequestEvent` — note the
   application is *not* told what the change is yet, exactly as the
   paper describes in §5.4).
2. The application calls :meth:`FlushClient.flush_ok`; the layer
   multicasts a flush marker tagged with the pending view.
3. When markers from **every** member of the pending view have been
   delivered, the new view is delivered to the application and sending
   unblocks.

Because markers and data share the agreed-order stream, a member that
unblocked and sent data can never have that data arrive before all
markers: VS holds without additional buffering (a defensive hold buffer
exists regardless).

Cascading events: if another EVS membership arrives while a flush is in
progress, it supersedes the pending one — the application receives a
fresh flush request and the protocol restarts for the newer view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro.errors import FlushError, SendBlockedError
from repro.spread.client import EventQueue, SpreadClient
from repro.spread.events import (
    DataEvent,
    FlushRequestEvent,
    GroupViewId,
    MembershipEvent,
    SelfLeaveEvent,
)
from repro.types import MembershipCause, ProcessId, ServiceType


@dataclass(frozen=True)
class _FlushMarker:
    """The flush acknowledgement, tagged with the view it acknowledges."""

    view_key: GroupViewId

    def wire_size(self) -> int:
        return 48


@dataclass(frozen=True)
class _FlushData:
    """Application payload wrapped by the flush layer."""

    payload: Any

    def wire_size(self) -> int:
        inner = getattr(self.payload, "wire_size", None)
        if callable(inner):
            return 16 + int(inner())
        if isinstance(self.payload, (bytes, str)):
            return 16 + len(self.payload)
        return 80


class _GroupFlushState:
    """Per-group flush protocol state."""

    def __init__(self, group: str) -> None:
        self.group = group
        self.current_view: Optional[MembershipEvent] = None
        self.pending_view: Optional[MembershipEvent] = None
        # The pending view's member names, built once per view: every
        # marker checks against them.
        self.pending_names: FrozenSet[str] = frozenset()
        self.flush_oked = False
        self.markers: Set[str] = set()  # pids that acked the pending view
        self.early_markers: Dict[GroupViewId, Set[str]] = {}
        self.held: List[DataEvent] = []

    @property
    def blocked(self) -> bool:
        return self.pending_view is not None


class FlushClient(EventQueue):
    """A View Synchrony connection, wrapping a :class:`SpreadClient`.

    Applications receive, via :meth:`receive`/:meth:`on_event`:

    * :class:`DataEvent` — payloads, guaranteed to be delivered in the
      view their sender had installed,
    * :class:`FlushRequestEvent` — must be answered with ``flush_ok``,
    * :class:`MembershipEvent` — the VS view, delivered only after all
      members flushed,
    * :class:`SelfLeaveEvent` — after a voluntary leave.

    ``auto_flush=True`` answers flush requests internally (the request
    event is still delivered, for observability).
    """

    def __init__(self, client: SpreadClient, auto_flush: bool = False) -> None:
        super().__init__()
        self.client = client
        self.auto_flush = auto_flush
        self._groups: Dict[str, _GroupFlushState] = {}
        client.stack(self._on_raw_event)

    # -- identity -----------------------------------------------------------

    @property
    def pid(self) -> Optional[ProcessId]:
        return self.client.pid

    # -- membership operations ------------------------------------------------

    def join(self, group: str) -> None:
        """Join a group through the VS layer."""
        self._groups.setdefault(group, _GroupFlushState(group))
        self.client.join(group)

    def leave(self, group: str) -> None:
        """Leave a group; a SelfLeaveEvent follows."""
        self.client.leave(group)

    def disconnect(self) -> None:
        self.client.disconnect()

    # -- sending -----------------------------------------------------------------

    def multicast(self, group: str, payload: Any,
                  service: ServiceType = ServiceType.AGREED) -> None:
        """Send to the group in the current view.

        Raises :class:`~repro.errors.SendBlockedError` while a flush is
        in progress (the defining VS restriction).
        """
        state = self._groups.get(group)
        if state is None:
            raise FlushError(f"not joined to {group!r}")
        if state.blocked:
            raise SendBlockedError(
                f"group {group!r} is flushing; wait for the new view"
            )
        self.client.multicast(service, group, _FlushData(payload))

    def unicast(self, target: ProcessId, payload: Any,
                service: ServiceType = ServiceType.FIFO) -> None:
        """Point-to-point message to another process (not view-blocked:
        private messages are outside the group's flush protocol)."""
        self.client.unicast(service, target, _FlushData(payload))

    def flush_ok(self, group: str) -> None:
        """Approve the pending membership change (answering a
        FlushRequestEvent); multicasts the flush marker."""
        state = self._groups.get(group)
        if state is None or state.pending_view is None:
            raise FlushError(f"no flush pending for {group!r}")
        if state.flush_oked:
            return
        state.flush_oked = True
        self.client.multicast(
            ServiceType.AGREED, group, _FlushMarker(state.pending_view.view_id)
        )

    # -- receive side -----------------------------------------------------------

    def current_members(self, group: str):
        state = self._groups.get(group)
        if state is None or state.current_view is None:
            return ()
        return state.current_view.members

    def flushing(self, group: str) -> bool:
        """True while a membership change is flushing for ``group``
        (multicasts to it would raise SendBlockedError)."""
        state = self._groups.get(group)
        return state is not None and state.blocked

    # -- raw event handling ----------------------------------------------------------

    def _on_raw_event(self, event: Any) -> None:
        if isinstance(event, MembershipEvent):
            self._on_membership(event)
        elif isinstance(event, DataEvent):
            self._on_data(event)
        elif isinstance(event, SelfLeaveEvent):
            self._groups.pop(str(event.group), None)
            self._emit(event)
        else:
            self._emit(event)

    def _on_membership(self, event: MembershipEvent) -> None:
        if event.cause == MembershipCause.TRANSITIONAL:
            # EVS transitional configuration: advisory only — it does not
            # start a flush round (the regular membership follows).
            self._emit(event)
            return
        group = str(event.group)
        state = self._groups.get(group)
        if state is None:
            # Delivered for a group we never joined through this layer.
            self._emit(event)
            return
        names = frozenset(str(m) for m in event.members)
        if str(self.pid) not in names:
            return  # defensive: not our view
        state.pending_view = event
        state.pending_names = names
        state.flush_oked = False
        state.markers = state.early_markers.pop(event.view_id, set())
        self._emit(FlushRequestEvent(group=event.group))
        if self.auto_flush:
            self.flush_ok(group)
        self._check_complete(state)

    def _on_data(self, event: DataEvent) -> None:
        group = str(event.group)
        payload = event.payload
        if group.startswith("#"):
            # Private message: unwrap and pass straight through.
            if isinstance(payload, _FlushData):
                event = DataEvent(
                    group=event.group,
                    sender=event.sender,
                    service=event.service,
                    payload=payload.payload,
                    seq=event.seq,
                )
            self._emit(event)
            return
        state = self._groups.get(group)
        if state is None:
            self._emit(event)
            return
        if isinstance(payload, _FlushMarker):
            self._on_marker(state, event.sender, payload)
            return
        if isinstance(payload, _FlushData):
            unwrapped = DataEvent(
                group=event.group,
                sender=event.sender,
                service=event.service,
                payload=payload.payload,
                seq=event.seq,
            )
            if state.blocked and str(event.sender) in state.markers:
                # The sender already flushed the pending view: this
                # message belongs to the next view; hold it.
                state.held.append(unwrapped)
            else:
                self._emit(unwrapped)
            return
        self._emit(event)

    def _on_marker(
        self, state: _GroupFlushState, sender: ProcessId, marker: _FlushMarker
    ) -> None:
        pending = state.pending_view
        if pending is not None and marker.view_key == pending.view_id:
            state.markers.add(str(sender))
            self._check_complete(state)
        else:
            # Marker for a view we have not seen (or no longer pending).
            state.early_markers.setdefault(marker.view_key, set()).add(str(sender))

    def _check_complete(self, state: _GroupFlushState) -> None:
        pending = state.pending_view
        if pending is None:
            return
        if not state.pending_names.issubset(state.markers):
            return
        state.current_view = pending
        state.pending_view = None
        state.markers = set()
        state.flush_oked = False
        state.early_markers.clear()
        self._emit(pending)
        held, state.held = state.held, []
        for message in held:
            self._emit(message)
