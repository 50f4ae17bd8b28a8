"""The netem proxy layer: pass-through fidelity, shaping, faults.

The acceptance bar for the whole fault-injection layer: with an empty
schedule the proxy is an invisible wire — byte-identical in both
directions, zero faults injected — and every fault it *does* inject is
seeded, counted and traced.
"""

import asyncio

import pytest

from repro.errors import FaultError
from repro.transport.netem import (
    ALL_LINKS,
    LinkShape,
    NetemSchedule,
    NetemWorld,
)

from tests.transport.conftest import run


async def start_sink():
    """An asyncio server that records every byte and echoes it back."""
    received = bytearray()

    async def handle(reader, writer):
        while True:
            data = await reader.read(65536)
            if not data:
                break
            received.extend(data)
            writer.write(data)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    address = server.sockets[0].getsockname()[:2]
    return server, address, received


def test_empty_schedule_is_byte_identical_passthrough():
    async def main():
        server, address, received = await start_sink()
        world = NetemWorld(seed=42)
        try:
            world.validate(NetemSchedule())  # empty schedule is legal
            proxy = await world.open_link("wire", address)
            reader, writer = await asyncio.open_connection(*proxy)
            sent = bytes(range(256)) * 512  # 128 KiB, every byte value
            echoed = bytearray()
            for offset in range(0, len(sent), 8192):
                writer.write(sent[offset : offset + 8192])
            await writer.drain()
            while len(echoed) < len(sent):
                chunk = await asyncio.wait_for(reader.read(65536), 10.0)
                assert chunk, "echo stream ended early"
                echoed.extend(chunk)
            assert bytes(received) == sent  # forward path byte-identical
            assert bytes(echoed) == sent  # return path byte-identical
            assert world.faults_injected() == 0
            totals = world.counters_total()
            assert totals["bytes_fwd"] == len(sent)
            assert totals["bytes_back"] == len(sent)
            assert totals["conns"] == 1
            writer.close()
        finally:
            await world.close()
            server.close()

    run(main())


def test_latency_shaping_delays_delivery():
    async def main():
        server, address, __ = await start_sink()
        world = NetemWorld(seed=1)
        try:
            proxy = await world.open_link("wire", address)
            world.links["wire"].apply_shape("fwd", latency=0.2)
            reader, writer = await asyncio.open_connection(*proxy)
            loop = asyncio.get_running_loop()
            started = loop.time()
            writer.write(b"ping")
            await writer.drain()
            echo = await asyncio.wait_for(reader.read(4), 10.0)
            assert echo == b"ping"
            assert loop.time() - started >= 0.2
            writer.close()
        finally:
            await world.close()
            server.close()

    run(main())


def test_stall_holds_bytes_until_resume():
    async def main():
        server, address, received = await start_sink()
        world = NetemWorld(seed=2)
        try:
            proxy = await world.open_link("wire", address)
            reader, writer = await asyncio.open_connection(*proxy)
            writer.write(b"before")
            await asyncio.wait_for(reader.readexactly(6), 10.0)

            world.links["wire"].stall("both")
            writer.write(b"held")
            await writer.drain()
            await asyncio.sleep(0.3)
            assert bytes(received) == b"before"  # bytes held, socket open

            world.links["wire"].resume("both")
            assert await asyncio.wait_for(reader.readexactly(4), 10.0) == b"held"
            writer.close()
        finally:
            await world.close()
            server.close()

    run(main())


def test_blackhole_discards_silently_and_reset_aborts():
    async def main():
        server, address, received = await start_sink()
        world = NetemWorld(seed=3)
        try:
            proxy = await world.open_link("wire", address)
            reader, writer = await asyncio.open_connection(*proxy)
            writer.write(b"seen")
            await asyncio.wait_for(reader.readexactly(4), 10.0)

            link = world.links["wire"]
            link.blackhole("both")
            writer.write(b"gone")
            await writer.drain()
            await asyncio.sleep(0.2)
            assert bytes(received) == b"seen"  # blackholed bytes vanished
            assert link.counters["blackholed_bytes"] == 4

            assert link.reset_connections() >= 1
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                await asyncio.wait_for(reader.readexactly(1), 10.0)
        finally:
            await world.close()
            server.close()

    run(main())


def test_corruption_flips_bytes_and_counts_faults():
    async def main():
        server, address, received = await start_sink()
        world = NetemWorld(seed=4)
        try:
            proxy = await world.open_link("wire", address)
            world.links["wire"].apply_shape("fwd", corrupt=1.0)
            __, writer = await asyncio.open_connection(*proxy)
            sent = b"\x00" * 64
            writer.write(sent)
            await writer.drain()
            await asyncio.wait_for(_wait_len(received, 64), 10.0)
            assert bytes(received) != sent
            assert world.links["wire"].counters["faults_corrupt"] >= 1
            writer.close()
        finally:
            await world.close()
            server.close()

    async def _wait_len(buffer, size):
        while len(buffer) < size:
            await asyncio.sleep(0.01)

    run(main())


def test_schedule_validation_rejects_bad_input():
    async def main():
        world = NetemWorld(seed=5)
        server, address, __ = await start_sink()
        try:
            await world.open_link("known", address)
            with pytest.raises(FaultError):
                world.validate(NetemSchedule().stall(1.0, ["unknown-link"]))
            with pytest.raises(FaultError):
                world.validate(
                    NetemSchedule().shape(1.0, ["known"], latency=-1.0)
                )
            with pytest.raises(FaultError):
                world.validate(
                    NetemSchedule().shape(1.0, ["known"], direction="up")
                )
            with pytest.raises(FaultError):
                world.links["known"].apply_shape("fwd", bogus_field=1)
            # A valid schedule against known links passes.
            world.validate(
                NetemSchedule()
                .shape(0.5, [ALL_LINKS], latency=0.01)
                .blackhole(1.0, ["known"])
                .heal(2.0, ["known"])
                .reset(2.0, ["known"])
                .clear(3.0)
            )
        finally:
            await world.close()
            server.close()

    run(main())


def test_schedule_describe_is_deterministic_and_ordered():
    def build():
        return (
            NetemSchedule()
            .reset(2.0)
            .shape(0.5, ["a"], latency=0.01, loss=0.1)
            .stall(1.0, ["b"], direction="fwd")
            .resume(1.5, ["b"], direction="fwd")
        )

    first, second = build().describe(), build().describe()
    assert first == second
    times = [float(line.split()[0].split("=", 1)[1].rstrip(":")) for line in first]
    assert times == sorted(times)


def test_linkshape_passthrough_detection():
    assert LinkShape().is_passthrough()
    assert not LinkShape(latency=0.01).is_passthrough()
    assert not LinkShape(loss=0.5).is_passthrough()
    stalled = LinkShape()
    stalled.stalled = True
    assert not stalled.is_passthrough()


def test_authenticated_frames_pass_through_byte_identically():
    """MAC'd wire-v2 frames survive the unshapen proxy untouched: the
    tag still verifies on the far side, so frame auth and netem compose
    (netem shapes bytes, it never rewrites them)."""
    from repro.transport.auth import FrameAuth
    from repro.transport.wire import FrameDecoder, encode_frame

    auth = FrameAuth(b"k" * 32)
    payloads = [b"x" * size for size in (1, 100, 10_000)] + [(7, b"tuple")]
    stream = b"".join(encode_frame(p, auth=auth) for p in payloads)

    async def main():
        server, address, received = await start_sink()
        world = NetemWorld(seed=7)
        try:
            proxy = await world.open_link("wire", address)
            reader, writer = await asyncio.open_connection(*proxy)
            writer.write(stream)
            await writer.drain()
            echoed = bytearray()
            while len(echoed) < len(stream):
                chunk = await asyncio.wait_for(reader.read(65536), 10.0)
                assert chunk, "echo stream ended early"
                echoed.extend(chunk)
            assert bytes(received) == stream
            # Both directions decode with the MAC verifying clean.
            for blob in (bytes(received), bytes(echoed)):
                decoder = FrameDecoder(auth=auth)
                assert decoder.feed(blob) == payloads
            assert world.faults_injected() == 0
            writer.close()
        finally:
            await world.close()
            server.close()

    run(main())
