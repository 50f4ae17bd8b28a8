"""Flush-layer hold paths: early markers and post-marker data, driven
through a stub Spread client for precise sequencing."""

import pytest

from repro.spread.events import (
    DataEvent,
    FlushRequestEvent,
    GroupViewId,
    MembershipEvent,
)
from repro.spread.flush import FlushClient, _FlushData, _FlushMarker
from repro.types import (
    DaemonId,
    GroupId,
    MembershipCause,
    ProcessId,
    ServiceType,
    ViewId,
)


class StubClient:
    """Captures sends; events are injected via the stacked layer's intake."""

    def __init__(self, me="#me#d0"):
        self.pid = ProcessId.parse(me)
        self.sent = []
        self._callbacks = []

    def stack(self, callback):
        self._callbacks.append(callback)

    def inject(self, event):
        for callback in self._callbacks:
            callback(event)

    def join(self, group):
        self.sent.append(("join", group))

    def leave(self, group):
        self.sent.append(("leave", group))

    def disconnect(self):
        self.sent.append(("disconnect", None))

    def multicast(self, service, group, payload):
        self.sent.append(("multicast", group, payload))

    def unicast(self, service, target, payload):
        self.sent.append(("unicast", str(target), payload))


def membership(members, change=1, cause=MembershipCause.JOIN):
    return MembershipEvent(
        group=GroupId("g"),
        view_id=GroupViewId(ViewId(1, 1, "d0"), change),
        members=tuple(ProcessId.parse(m) for m in members),
        cause=cause,
    )


def data(sender, payload):
    return DataEvent(
        group=GroupId("g"),
        sender=ProcessId.parse(sender),
        service=ServiceType.AGREED,
        payload=payload,
        seq=1,
    )


def make_flush():
    raw = StubClient()
    flush = FlushClient(raw, auto_flush=True)
    flush.join("g")
    return raw, flush


def complete_view(raw, flush, members, change):
    event = membership(members, change=change)
    raw.inject(event)
    for member in members:
        raw.inject(data(member, _FlushMarker(event.view_id)))
    return event


def test_early_marker_counts_when_membership_arrives():
    """A peer's flush marker can be delivered before our own membership
    event lands (different daemons install at slightly different times);
    it must still count toward the pending view."""
    raw, flush = make_flush()
    view = membership(["#me#d0", "#peer#d1"], change=1)
    # The peer's marker arrives FIRST.
    raw.inject(data("#peer#d1", _FlushMarker(view.view_id)))
    raw.inject(view)  # now our membership event lands; we auto-flush-ok
    raw.inject(data("#me#d0", _FlushMarker(view.view_id)))
    delivered_views = [e for e in flush.queue if isinstance(e, MembershipEvent)]
    assert len(delivered_views) == 1  # completed using the early marker


def test_post_marker_data_held_until_view_delivered():
    """Data from a member that already flushed the pending view belongs
    to the next view and must not be delivered before it."""
    raw, flush = make_flush()
    complete_view(raw, flush, ["#me#d0"], change=1)
    # Next view is pending: peer joins.
    view2 = membership(["#me#d0", "#peer#d1"], change=2)
    raw.inject(view2)
    raw.inject(data("#peer#d1", _FlushMarker(view2.view_id)))
    # The peer has flushed and (believing the view installed) sends data.
    raw.inject(data("#peer#d1", _FlushData(b"from the new view")))
    payloads = [e.payload for e in flush.queue if isinstance(e, DataEvent)]
    assert b"from the new view" not in payloads  # held
    # Our marker completes the view; held data follows it.
    raw.inject(data("#me#d0", _FlushMarker(view2.view_id)))
    events = list(flush.queue)
    view_index = max(
        i for i, e in enumerate(events) if isinstance(e, MembershipEvent)
    )
    data_index = next(
        i for i, e in enumerate(events)
        if isinstance(e, DataEvent) and e.payload == b"from the new view"
    )
    assert view_index < data_index


def test_pre_marker_data_delivered_in_old_view():
    raw, flush = make_flush()
    complete_view(raw, flush, ["#me#d0", "#peer#d1"], change=1)
    view2 = membership(["#me#d0", "#peer#d1", "#late#d2"], change=2)
    raw.inject(view2)
    # Peer sends data BEFORE its marker: old-view traffic, deliver now.
    raw.inject(data("#peer#d1", _FlushData(b"old view tail")))
    payloads = [e.payload for e in flush.queue if isinstance(e, DataEvent)]
    assert b"old view tail" in payloads


def test_superseded_pending_view_restarts_flush():
    raw, flush = make_flush()
    complete_view(raw, flush, ["#me#d0"], change=1)
    view2 = membership(["#me#d0", "#p1#d1"], change=2)
    raw.inject(view2)
    # Before view2 completes, view3 supersedes it.
    view3 = membership(["#me#d0", "#p1#d1", "#p2#d2"], change=3)
    raw.inject(view3)
    requests = [e for e in flush.queue if isinstance(e, FlushRequestEvent)]
    assert len(requests) == 3  # one per membership event seen
    # Completing view3 (not view2) installs it.
    for member in ("#me#d0", "#p1#d1", "#p2#d2"):
        raw.inject(data(member, _FlushMarker(view3.view_id)))
    views = [e for e in flush.queue if isinstance(e, MembershipEvent)]
    assert len(views[-1].members) == 3


def test_stale_marker_for_superseded_view_ignored():
    raw, flush = make_flush()
    complete_view(raw, flush, ["#me#d0"], change=1)
    view2 = membership(["#me#d0", "#p1#d1"], change=2)
    view3 = membership(["#me#d0", "#p1#d1"], change=3)
    raw.inject(view2)
    raw.inject(view3)
    # Markers for the dead view2 must not complete view3.
    raw.inject(data("#me#d0", _FlushMarker(view2.view_id)))
    raw.inject(data("#p1#d1", _FlushMarker(view2.view_id)))
    views = [e for e in flush.queue if isinstance(e, MembershipEvent)]
    assert len(views) == 1  # still only the singleton view
