"""Loopback end-to-end: real daemons, real sockets, unmodified stack.

These tests bind TCP listeners on 127.0.0.1; on a platform without
loopback sockets they skip rather than fail (the same escape hatch the
transport crucible CLI uses).
"""

import asyncio

import pytest

from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.cliques.directory import KeyDirectory
from repro.secure.events import SecureDataEvent
from repro.secure.session import SecureClient
from repro.sim.rng import stable_seed
from repro.spread.events import DataEvent
from repro.spread.flush import FlushClient
from repro.transport.client import TcpSpreadClient
from repro.transport.host import wait_for_condition
from repro.types import ServiceType

from tests.transport.conftest import join_all, run, start_host

#: Three daemons settle in one gather round: keep it short.
QUICK_SETTLE = {"gather_timeout": 0.5, "sync_timeout": 2.0}


def test_a_hang_fails_instead_of_skipping():
    """The builtin TimeoutError is an OSError: a "no sockets" guard
    that catches OSError around the run turns every hang into a skip."""

    async def never_finishes():
        await asyncio.Event().wait()

    with pytest.raises(asyncio.TimeoutError):
        run(never_finishes(), timeout=0.05)


def test_multicast_crosses_real_sockets():
    async def main():
        host = await start_host(**QUICK_SETTLE)
        try:
            a = TcpSpreadClient(host.addresses.client("d0"), "a", clock=host.clock)
            b = TcpSpreadClient(host.addresses.client("d2"), "b", clock=host.clock)
            await a.connect()
            await b.connect()
            assert a.daemon_name == "d0" and b.daemon_name == "d2"
            await join_all([a, b], "g")
            a.multicast(ServiceType.AGREED, "g", b"hello-tcp")
            await a.flush_writes()

            def got():
                return any(
                    isinstance(e, DataEvent) and e.payload == b"hello-tcp"
                    for e in b.queue
                )

            await wait_for_condition(got, timeout=30.0)
            delivered = [e for e in b.drain() if isinstance(e, DataEvent)]
            assert delivered[0].payload == b"hello-tcp"
            assert str(delivered[0].sender) == str(a.pid)
            await a.close()
            await b.close()
        finally:
            await host.stop()

    run(main())


def test_duplicate_private_name_refused():
    async def main():
        host = await start_host(("d0",))
        try:
            first = TcpSpreadClient(
                host.addresses.client("d0"), "dup", clock=host.clock
            )
            await first.connect()
            second = TcpSpreadClient(
                host.addresses.client("d0"), "dup",
                clock=host.clock, reconnect=False,
            )
            from repro.errors import ConnectionClosedError

            with pytest.raises(ConnectionClosedError):
                await second.connect()
            await first.close()
        finally:
            await host.stop()

    run(main())


def test_secure_session_runs_unmodified_over_tcp():
    """The acceptance bar: the identical SecureGroupSession code path
    (join, re-key, sealed multicast) over the TCP backend."""

    async def main():
        host = await start_host(**QUICK_SETTLE)
        try:
            params = DHParams.tiny_test()
            directory = KeyDirectory()
            members = {}
            clients = {}
            for index, name in enumerate(["m0", "m1", "m2"]):
                address = host.addresses.client(f"d{index}")
                client = TcpSpreadClient(address, name, clock=host.clock)
                await client.connect()
                source = DeterministicSource(stable_seed(42, name))
                member = SecureClient(
                    flush=FlushClient(client, auto_flush=False),
                    params=params,
                    long_term=DHKeyPair.generate(params, source),
                    directory=directory,
                    random_source=source,
                )
                member.publish_key()
                member.join("g", module="cliques")
                members[name] = member
                clients[name] = client
                joined = list(members)
                await wait_for_condition(
                    lambda: all(members[n].has_key("g") for n in joined),
                    timeout=60.0,
                )
            members["m0"].send("g", b"sealed-over-tcp")

            def sealed_everywhere():
                return all(
                    any(
                        isinstance(e, SecureDataEvent)
                        and e.payload == b"sealed-over-tcp"
                        for e in members[n].queue
                    )
                    for n in ("m1", "m2")
                )

            await wait_for_condition(sealed_everywhere, timeout=30.0)
            for client in clients.values():
                await client.close()
        finally:
            await host.stop()

    run(main(), timeout=120.0)
