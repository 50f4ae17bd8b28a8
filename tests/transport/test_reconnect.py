"""Reconnect semantics: kill the daemon-side socket mid-session.

The contract (docs/TRANSPORT.md): per outage the application observes
exactly one ``ConnectionLostEvent`` through ``on_event``, the client
retries with exponential backoff, reconnects under the same private
name, re-joins its groups, and the application then sees one
``ConnectionRestoredEvent`` and a normal membership resync — never an
event replay.
"""

import asyncio

from repro.spread.events import (
    ConnectionLostEvent,
    ConnectionRestoredEvent,
    DataEvent,
    MembershipEvent,
)
from repro.transport.client import TcpSpreadClient
from repro.transport.host import DaemonHost, wait_for_condition
from repro.types import ServiceType

from tests.transport.conftest import loopback_config
from tests.transport.conftest import run as conftest_run


class Recorder:
    """An ``on_event`` callback tallying what the application sees."""

    def __init__(self):
        self.dropped = []
        self.reconnected = 0
        self.memberships = []

    def __call__(self, event):
        if isinstance(event, ConnectionLostEvent):
            self.dropped.append(event.reason)
        elif isinstance(event, ConnectionRestoredEvent):
            self.reconnected += 1
        elif isinstance(event, MembershipEvent):
            self.memberships.append({str(m) for m in event.members})


def run(coro, timeout=90.0):
    return conftest_run(coro, timeout)


def test_kill_socket_backoff_reconnect_rejoin():
    async def main():
        host = DaemonHost(loopback_config(("d0",)), ("d0",))
        await host.start()
        await host.settle()
        try:
            client = TcpSpreadClient(
                host.addresses.client("d0"),
                "c0",
                clock=host.clock,
                backoff_base=0.02,
                backoff_cap=0.2,
            )
            recorder = Recorder()
            client.on_event(recorder)
            await client.connect()
            client.join("g")
            await wait_for_condition(
                lambda: bool(recorder.memberships), timeout=30.0
            )
            me = {str(client.pid)}
            assert recorder.memberships[-1] == me
            client.drain()

            # Guillotine: the daemon aborts the socket without warning.
            assert host.kick_clients("d0") == 1

            await wait_for_condition(
                lambda: recorder.reconnected >= 1
                and recorder.memberships
                and recorder.memberships[-1] == me,
                timeout=60.0,
            )

            events = client.drain()
            lost = [e for e in events if isinstance(e, ConnectionLostEvent)]
            restored = [
                e for e in events if isinstance(e, ConnectionRestoredEvent)
            ]
            # Exactly one outage observed, exactly once.
            assert len(lost) == 1
            assert len(restored) == 1
            assert recorder.dropped and len(recorder.dropped) == 1
            assert client.counters["drops"] == 1
            assert client.counters["reconnects"] == 1
            assert client.counters["reconnect_attempts"] >= 1
            # The restored event precedes the membership resync.
            assert events.index(lost[0]) < events.index(restored[0])

            # The session still works: multicast round-trips to self.
            client.multicast(ServiceType.AGREED, "g", b"after-reconnect")
            await client.flush_writes()
            await wait_for_condition(
                lambda: any(
                    isinstance(e, DataEvent)
                    and e.payload == b"after-reconnect"
                    for e in client.queue
                ),
                timeout=30.0,
            )
            await client.close()
        finally:
            await host.stop()

    run(main())


def test_voluntary_disconnect_does_not_reconnect():
    async def main():
        host = DaemonHost(loopback_config(("d0",)), ("d0",))
        await host.start()
        await host.settle()
        try:
            client = TcpSpreadClient(
                host.addresses.client("d0"), "c1", clock=host.clock
            )
            await client.connect()
            await client.close()
            await asyncio.sleep(0.1)
            assert client.counters["reconnects"] == 0
            assert not client.connected
        finally:
            await host.stop()

    run(main())
