"""Periodic key refresh: the core's §4.4 controller refresh on a timer."""

from __future__ import annotations

from repro.secure.session import SecureClient
from repro.spread.events import SelfLeaveEvent


def auto_refresh(client: SecureClient, group: str, period: float) -> None:
    """Refresh ``group``'s key every ``period`` seconds of kernel time.

    Every member may arm this: on each tick, only the member that is
    currently the controller (and has a confirmed key) performs the
    refresh, so exactly one re-key happens per period regardless of who
    else armed the timer.  The timer stops once the session it was
    armed on has left the group or been replaced by a re-join.
    """
    if period <= 0:
        raise ValueError("refresh period must be positive")
    session = client.sessions[group]
    kernel = client.flush.client.kernel
    label = f"secure.{group}.refresh"
    left = False

    def on_event(event) -> None:
        nonlocal left
        if isinstance(event, SelfLeaveEvent) and str(event.group) == group:
            left = True

    def tick() -> None:
        if left or client.sessions.get(group) is not session:
            return
        if session.has_key and session.module.is_controller:
            client.refresh(group)
        kernel.call_later(period, tick, label=label)

    client.on_event(on_event)
    kernel.call_later(period, tick, label=label)
