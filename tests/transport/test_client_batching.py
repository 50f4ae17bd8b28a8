"""The client's multicasts travel one frame per loop turn.

:class:`~repro.transport.client.FrameBatch` coalesces the multicasts a
TCP client issues within a loop turn into one frame, under the daemon's
packing budget.  These cases pin the budget and the rules around it: a
payload at the byte budget travels alone, ``flush_writes`` leaves
nothing behind, a batch is applied whole or not at all, and a batch
that cannot be written fails the connection visibly.
"""

import asyncio

from repro.spread.events import ConnectionLostEvent
from repro.spread.messages import PACK_MAX_BYTES, PACK_MAX_MESSAGES
from repro.transport.client import FrameBatch, TcpSpreadClient
from repro.transport.host import wait_for_condition
from repro.transport.protocol import (
    ClientConnect,
    ClientJoin,
    ClientMulticast,
    ClientMulticastBatch,
    ClientWelcome,
)
from repro.transport.wire import FrameDecoder, encode_frame
from repro.types import ServiceType

from tests.transport.conftest import join_all, run, start_host


def test_a_batch_closes_at_the_message_budget_or_the_end_of_the_turn():
    loop = asyncio.new_event_loop()
    try:
        frames = []
        batch = FrameBatch(loop, frames.append)
        for index in range(PACK_MAX_MESSAGES + 1):
            batch.add(index, 1)
        assert frames == [tuple(range(PACK_MAX_MESSAGES))]
        assert batch.pending == 1
        loop.run_until_complete(asyncio.sleep(0))
        assert frames[1:] == [(PACK_MAX_MESSAGES,)]
        assert batch.pending == 0
    finally:
        loop.close()


def test_a_payload_at_the_byte_budget_travels_alone():
    loop = asyncio.new_event_loop()
    try:
        frames = []
        batch = FrameBatch(loop, frames.append)
        batch.add("small", 100)
        batch.add("big", PACK_MAX_BYTES)
        batch.add("after", 100)
        # What was pending goes first, then the big one in its own frame.
        assert frames == [("small",), ("big",)]
        loop.run_until_complete(asyncio.sleep(0))
        assert frames == [("small",), ("big",), ("after",)]
        # Small items that sum past the budget close the batch too.
        batch.add("x", PACK_MAX_BYTES // 2)
        batch.add("y", PACK_MAX_BYTES // 2)
        assert frames[-1] == ("x", "y")
    finally:
        loop.close()


def test_a_big_multicast_is_its_own_frame_on_the_wire():
    async def main():
        host = await start_host(("d0",))
        try:
            client = TcpSpreadClient(
                host.addresses.client("d0"), "big", clock=host.clock
            )
            await client.connect()
            await join_all([client], "g")
            sent = []
            write = client._write_frame
            client._write_frame = lambda op: (sent.append(op), write(op))
            big = b"B" * PACK_MAX_BYTES
            client.multicast(ServiceType.AGREED, "g", b"one")
            client.multicast(ServiceType.AGREED, "g", big)
            client.multicast(ServiceType.AGREED, "g", b"two")
            await client.flush_writes()
            assert [
                [m.payload for m in op.multicasts] for op in sent
            ] == [[b"one"], [big], [b"two"]]
            await wait_for_condition(
                lambda: len(client.data_events()) == 3, timeout=10.0
            )
            assert [e.payload for e in client.data_events()] == [
                b"one", big, b"two"
            ]
            await client.close()
        finally:
            await host.stop()

    run(main())


def test_flush_writes_leaves_no_pending_batch():
    async def main():
        host = await start_host(("d0",))
        try:
            client = TcpSpreadClient(
                host.addresses.client("d0"), "flusher", clock=host.clock
            )
            await client.connect()
            await join_all([client], "g")
            frames = client.counters["frames_sent"]
            for index in range(5):
                client.multicast(ServiceType.AGREED, "g", b"%d" % index)
            assert client._sends.pending == 5
            await client.flush_writes()
            assert client._sends.pending == 0
            assert client.counters["frames_sent"] == frames + 1
            await client.close()
        finally:
            await host.stop()

    run(main())


def test_a_batch_with_a_non_multicast_element_is_fatal_and_unapplied():
    async def main():
        host = await start_host(("d0",))
        try:
            daemon = host.daemons["d0"]
            applied = []
            original = daemon.client_multicast
            daemon.client_multicast = lambda *args: (
                applied.append(args), original(*args)
            )
            reader, writer = await asyncio.open_connection(
                *host.addresses.client("d0")
            )
            writer.write(encode_frame(ClientConnect("rogue")))
            decoder = FrameDecoder()
            (welcome,) = decoder.feed(await reader.read(65536))
            assert isinstance(welcome, ClientWelcome)
            pid = welcome.pid
            writer.write(encode_frame(ClientMulticastBatch((
                ClientMulticast(pid, ServiceType.AGREED, "g", b"x", 1),
                ClientJoin(pid, "g"),
            ))))
            # Connection-fatal: the daemon hangs up without a reply.
            assert await asyncio.wait_for(reader.read(65536), 10.0) == b""
            writer.close()
            assert host.transports["d0"].counters["decode_errors"] == 1
            assert applied == []
            await wait_for_condition(lambda: not daemon.clients, 10.0)
        finally:
            await host.stop()

    run(main())


def test_an_unwritable_batch_fails_the_connection_visibly():
    """One unpicklable payload among good ones: the batch is encoded at
    the end of the turn, where no caller can catch the error, so the
    client counts it and fails the connection with that cause."""
    async def main():
        host = await start_host(("d0",))
        try:
            client = TcpSpreadClient(
                host.addresses.client("d0"), "clumsy", clock=host.clock,
                reconnect=False,
            )
            await client.connect()
            await join_all([client], "g")
            client.multicast(ServiceType.AGREED, "g", b"good")
            client.multicast(ServiceType.AGREED, "g", lambda: "unpicklable")
            client.multicast(ServiceType.AGREED, "g", b"also good")
            await wait_for_condition(lambda: not client.connected, 10.0)
            assert client.counters["send_errors"] == 1
            (lost,) = [
                e for e in client.queue if isinstance(e, ConnectionLostEvent)
            ]
            assert "pickle" in lost.reason.lower()
            assert client.data_events() == []
        finally:
            await host.stop()

    run(main())
