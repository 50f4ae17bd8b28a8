"""Client liveness: a ping on the client's own link.

A half-open TCP connection — switch died, NAT entry expired, peer
power-cycled — delivers no data and no error.  The client's ping is the
detector: once per the daemon's ``hello_interval`` it writes a
``ClientPing`` that the daemon's connection handler echoes, and when no
echo comes back for twice the daemon's ``fail_timeout`` the client
aborts the socket and runs the normal outage path.  The client takes no
liveness arguments: both timers come in the daemon's welcome.

Contract under test: per manufactured half-open outage the application
observes exactly one ``ConnectionLostEvent`` and exactly one
``ConnectionRestoredEvent`` — no matter how many reconnect attempts
failed against the still-stalled wire in between — and the ping never
reaches the daemon's protocol.
"""

import asyncio

from repro.spread.events import ConnectionLostEvent, ConnectionRestoredEvent
from repro.transport.client import TcpSpreadClient
from repro.transport.host import DaemonHost, wait_for_condition
from repro.transport.netem import NetemWorld

from tests.transport.conftest import loopback_config, run, start_host


def test_stalled_socket_trips_liveness_and_reconnects_once():
    async def main():
        host = DaemonHost(loopback_config(("d0",)), ("d0",))
        await host.start()
        await host.settle()
        world = NetemWorld(seed=6)
        try:
            proxy = await world.open_link(
                "client:c0", lambda: host.addresses.client("d0")
            )
            client = TcpSpreadClient(proxy, "c0", clock=host.clock)
            await client.connect()
            client.join("g")
            await wait_for_condition(
                lambda: any(
                    getattr(e, "is_membership", False)
                    and str(getattr(e, "group", "")) == "g"
                    for e in client.queue
                ),
                timeout=30.0,
            )
            client.drain()

            # Manufacture the half-open state: both directions freeze,
            # sockets stay open, no error ever surfaces on its own.
            world.links["client:c0"].stall("both")
            await wait_for_condition(
                lambda: client.counters["liveness_aborts"] >= 1,
                timeout=30.0,
            )
            # Reconnect attempts against the stalled wire must fail
            # (each is bounded by the daemon's fail_timeout) without
            # fabricating more outage events.
            await asyncio.sleep(1.0)
            assert not client.connected

            world.links["client:c0"].resume("both")
            await wait_for_condition(
                lambda: client.counters["reconnects"] >= 1
                and client.connected,
                timeout=30.0,
            )

            events = client.drain()
            lost = [e for e in events if isinstance(e, ConnectionLostEvent)]
            restored = [
                e for e in events if isinstance(e, ConnectionRestoredEvent)
            ]
            assert len(lost) == 1, f"expected one lost event, got {lost}"
            assert len(restored) == 1, (
                f"expected one restored event, got {restored}"
            )
            assert events.index(lost[0]) < events.index(restored[0])
            assert "no ping echo" in lost[0].reason
            assert client.counters["liveness_aborts"] == 1
            assert client.counters["drops"] == 1
            assert client.counters["reconnects"] == 1
            # The stalled window cost at least one failed dial.
            assert client.counters["reconnect_attempts"] >= 1
            await client.close()
        finally:
            await world.close()
            await host.stop()

    run(main())


def test_half_open_from_connect_is_detected():
    """Liveness must trip even when the wire stalls before the first
    ping ever echoes: the welcome counts as the first echo."""

    async def main():
        host = DaemonHost(loopback_config(("d0",)), ("d0",))
        await host.start()
        await host.settle()
        world = NetemWorld(seed=7)
        try:
            proxy = await world.open_link(
                "client:c1", lambda: host.addresses.client("d0")
            )
            client = TcpSpreadClient(proxy, "c1", clock=host.clock)
            await client.connect()
            # Stall immediately: no ping will ever come back.
            world.links["client:c1"].stall("both")
            await wait_for_condition(
                lambda: client.counters["liveness_aborts"] >= 1,
                timeout=30.0,
            )
            assert client.counters["pings_echoed"] == 0
            await client.close()
        finally:
            await world.close()
            await host.stop()

    run(main())


def test_liveness_stays_on_the_client_link():
    """An idle client's pings cost the daemons nothing: no multicast is
    submitted to any daemon and no group is joined for them."""

    async def main():
        host = await start_host()
        submitted = []
        for daemon in host.daemons.values():
            original = daemon.client_multicast

            def counting(*args, original=original):
                submitted.append(args)
                return original(*args)

            daemon.client_multicast = counting
        try:
            client = TcpSpreadClient(
                host.addresses.client("d1"), "idle", clock=host.clock
            )
            await client.connect()
            await wait_for_condition(
                lambda: client.counters["pings_echoed"] >= 4, timeout=30.0
            )
            assert client.counters["liveness_aborts"] == 0
            assert submitted == []
            for daemon in host.daemons.values():
                groups = daemon.groups.groups()
                assert not [g for g in groups if g.startswith("hb-")], groups
            await client.close()
        finally:
            await host.stop()

    run(main())
