"""A daemon crash under a live TCP client.

The daemon tells each of its clients ``ClientBye("daemon_down")`` and
closes their sockets (``_ClientChannel.daemon_down``).  A client that
does not reconnect sees exactly one ``ConnectionLostEvent`` naming that
reason and is left closed; clients of the surviving daemons carry on.
"""

import asyncio

from repro.spread.events import ConnectionLostEvent, DataEvent
from repro.transport.client import TcpSpreadClient
from repro.transport.host import wait_for_condition
from repro.types import ServiceType

from tests.transport.conftest import join_all, run, start_host


def lost_events(client):
    return [e for e in client.queue if isinstance(e, ConnectionLostEvent)]


def test_daemon_crash_drops_its_clients_once():
    async def main():
        host = await start_host()
        try:
            doomed = TcpSpreadClient(
                host.addresses.client("d0"), "doomed", clock=host.clock,
                reconnect=False,
            )
            survivor = TcpSpreadClient(
                host.addresses.client("d1"), "survivor", clock=host.clock,
                reconnect=False,
            )
            for client in (doomed, survivor):
                await client.connect()
            await join_all([doomed, survivor], "g")

            host.daemons["d0"].crash()
            await wait_for_condition(
                lambda: lost_events(doomed), timeout=10.0
            )
            # Time for a duplicate (a second drop, a stray reconnect) to show.
            await asyncio.sleep(3 * doomed.hello_interval)
            assert lost_events(doomed) == [ConnectionLostEvent("daemon_down")]
            assert not doomed.connected
            assert doomed._writer.transport.is_closing()
            assert doomed.counters["reconnect_attempts"] == 0

            survivor.multicast(ServiceType.AGREED, "g", b"still here")
            await survivor.flush_writes()
            await wait_for_condition(
                lambda: any(
                    isinstance(e, DataEvent) and e.payload == b"still here"
                    for e in survivor.queue
                ),
                timeout=30.0,
            )
            assert lost_events(survivor) == []
            for client in (doomed, survivor):
                await client.close()
        finally:
            await host.stop()

    run(main())
