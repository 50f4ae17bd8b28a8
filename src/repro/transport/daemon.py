"""``python -m repro.transport.daemon`` — run real Spread daemons.

Hosts one or more daemons of a deployment on this machine's asyncio
loop, listening on real TCP sockets.  Every machine in the deployment
runs the same command with the same ``--peer`` list and its own
``--host`` selection; a single machine can host the whole deployment
for loopback experiments (the default when ``--host`` is omitted).

Examples::

    # All three daemons on localhost, fixed ports:
    python -m repro.transport.daemon \\
        --peer d0=127.0.0.1:4803:4813 \\
        --peer d1=127.0.0.1:4804:4814 \\
        --peer d2=127.0.0.1:4805:4815

    # Only d1, in a three-daemon deployment spread over machines:
    python -m repro.transport.daemon --host d1 \\
        --peer d0=10.0.0.10:4803:4813 \\
        --peer d1=10.0.0.11:4803:4813 \\
        --peer d2=10.0.0.12:4803:4813

Each ``--peer`` is ``name=host:peer_port:client_port``: the peer port
carries daemon-to-daemon frames, the client port accepts
:class:`~repro.transport.client.TcpSpreadClient` connections.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.errors import TransportError
from repro.spread.config import SpreadConfig
from repro.transport.host import DaemonHost
from repro.transport.tcp import TransportMap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.daemon",
        description="Host Spread daemons on real TCP sockets.",
    )
    parser.add_argument(
        "--peer",
        action="append",
        required=True,
        metavar="NAME=HOST:PEER_PORT:CLIENT_PORT",
        help="one entry per daemon in the deployment (repeatable)",
    )
    parser.add_argument(
        "--host",
        action="append",
        default=None,
        metavar="NAME",
        help="daemon(s) to host here (default: every --peer entry)",
    )
    parser.add_argument(
        "--bind", default="0.0.0.0", help="local bind address"
    )
    parser.add_argument(
        "--hello-interval", type=float, default=0.25,
        help="daemon heartbeat period, wall-clock seconds",
    )
    parser.add_argument(
        "--fail-timeout", type=float, default=1.5,
        help="silence before a peer daemon is suspected, seconds",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="rng seed for the clock"
    )
    parser.add_argument(
        "--keyfile", default=None, metavar="PATH",
        help="pre-shared deployment key file enabling frame "
        "authentication (default: $REPRO_TRANSPORT_KEYFILE if set)",
    )
    return parser


def parse_addresses(parser: argparse.ArgumentParser, args) -> TransportMap:
    """Validate ``--peer``/``--host`` into a :class:`TransportMap`,
    turning malformed specs (missing ``=``, bad ports, duplicate names)
    into argparse usage errors instead of tracebacks."""
    try:
        addresses = TransportMap.parse(args.peer)
    except TransportError as exc:
        parser.error(str(exc))
    known = {spec.split("=", 1)[0].strip() for spec in args.peer}
    for name in args.host or ():
        if name not in known:
            parser.error(f"--host {name!r} has no matching --peer entry")
    return addresses


def make_config(args) -> SpreadConfig:
    names = tuple(spec.split("=", 1)[0] for spec in args.peer)
    return SpreadConfig(
        daemons=names,
        hello_interval=args.hello_interval,
        fail_timeout=args.fail_timeout,
        gather_timeout=args.fail_timeout * 2,
        sync_timeout=args.fail_timeout * 4,
    )


async def run(args, addresses: TransportMap) -> None:
    config = make_config(args)
    hosted = tuple(args.host) if args.host else config.daemons
    host = DaemonHost(
        config,
        hosted,
        addresses,
        bind=args.bind,
        seed=args.seed,
        auth=args.keyfile,
    )
    await host.start()
    names = ", ".join(hosted)
    print(f"hosting {names} (bind {args.bind}); ctrl-c to stop", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    try:
        await stop.wait()
    finally:
        await host.stop()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    addresses = parse_addresses(parser, args)
    try:
        asyncio.run(run(args, addresses))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
