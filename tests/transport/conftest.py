"""Shared helpers for the real-socket transport tests.

Everything here is hermetic against port collisions: hosts and netem
proxies bind port 0 and publish the ephemeral port the kernel handed
back, so suites can run in parallel on one machine.  On platforms
without loopback sockets :func:`run` skips rather than fails — decided
by the one probe the crucible and wansoak CLIs use
(:func:`~repro.transport.host.loopback_available`), so a timeout or any
other error inside the coroutine is a failure, never a skip.
"""

import asyncio

import pytest

from repro.spread.config import SpreadConfig
from repro.transport.host import (
    DaemonHost,
    loopback_available,
    wait_for_condition,
)

__all__ = ["loopback_config", "run", "start_host", "join_all"]


def loopback_config(names=("d0", "d1", "d2")):
    """Real-time daemon timers sized for loopback test runs.

    Daemons that all start and hear each other settle into one view a
    few round trips after their gather round starts: a round that has
    heard every configured daemon proposes at once.  Only a round
    missing one (crashed, partitioned) waits out ``gather_timeout``
    (3 s here) after its participants last changed.  The half-open and
    reconnect tests time their outages against ``fail_timeout``.
    """
    return SpreadConfig(
        daemons=names,
        hello_interval=0.25,
        fail_timeout=1.5,
        gather_timeout=3.0,
        sync_timeout=6.0,
    )


def run(coro, timeout=60.0):
    """asyncio.run with a hard bound and the no-sockets skip."""
    if not loopback_available():  # pragma: no cover - sandboxed platforms
        coro.close()
        pytest.skip("loopback sockets unavailable")

    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded())


async def start_host(names=("d0", "d1", "d2")):
    """One DaemonHost on ephemeral ports, settled into one view."""
    host = DaemonHost(loopback_config(names), names)
    await host.start()
    await host.settle()
    return host


async def join_all(clients, group):
    """Join every client to ``group`` and wait for the common view."""
    for client in clients:
        client.join(group)
    expected = {str(c.pid) for c in clients}

    def settled():
        for client in clients:
            views = [
                e for e in client.queue
                if getattr(e, "is_membership", False)
                and str(getattr(e, "group", "")) == group
            ]
            if not views or {str(m) for m in views[-1].members} != expected:
                return False
        return True

    await wait_for_condition(settled, timeout=30.0)
