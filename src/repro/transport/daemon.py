"""``python -m repro.transport.daemon`` — run real Spread daemons.

Hosts the daemons a deployment file (:mod:`repro.transport.deploy`)
places on one machine, on this process's asyncio loop, listening on
real TCP sockets.  Every box of a multi-host deployment runs the same
command against its copy of the same file, naming its own machine;
without ``--machine`` one process hosts every daemon of the file, for
loopback experiments::

    python -m repro.transport.daemon examples/deploy_loopback.toml --machine d0

:mod:`repro.transport.launch` spawns exactly this command per machine.
Frames are authenticated under the file's ``keyfile`` if it names one,
otherwise under ``$REPRO_TRANSPORT_KEYFILE`` if that is set (a launched
daemon never inherits it: the file alone decides).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Sequence

from repro.errors import DeployError
from repro.transport.deploy import Deployment, load_deployment
from repro.transport.host import DaemonHost


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.daemon",
        description="Host the Spread daemons of a deployment file on "
        "real TCP sockets.",
    )
    parser.add_argument("config", help="deployment file (TOML or JSON)")
    parser.add_argument(
        "--machine",
        default=None,
        metavar="NAME",
        help="host only this machine's daemons "
        "(default: every daemon in the file)",
    )
    return parser


async def run(deployment: Deployment, hosted: Sequence[str]) -> None:
    host = DaemonHost(
        deployment.spread_config(),
        hosted,
        deployment.transport_map(),
        bind=deployment.bind,
        seed=deployment.seed,
        auth=deployment.keyfile,
    )
    await host.start()
    names = ", ".join(hosted)
    print(
        f"hosting {names} (bind {deployment.bind}); ctrl-c to stop",
        flush=True,
    )
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
    try:
        deployment = load_deployment(args.config)
        if args.machine is None:
            hosted = [daemon.name for daemon in deployment.daemons]
        else:
            hosted = deployment.hosted(args.machine)
    except DeployError as exc:
        parser.error(str(exc))
    try:
        asyncio.run(run(deployment, hosted))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
