"""``python -m repro.transport.launch`` — run a deployment from a file.

Spawns ``python -m repro.transport.daemon CONFIG --machine M`` once per
*machine* group of a :mod:`repro.transport.deploy` config file, so the
launcher and every child read the same file.  It waits until every
hosted daemon's listeners accept connections, and tears the processes
down cleanly (SIGTERM, bounded wait, SIGKILL stragglers) on exit or
ctrl-c.  With ``--machine`` only that machine's share is launched.

:class:`LaunchedDeployment` is the library face of the same lifecycle;
``tests/transport/test_launch.py`` drives it directly::

    with LaunchedDeployment("deploy.toml") as launched:
        launched.wait_ready()
        ...  # connect TcpSpreadClients against launched.deployment
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import DeployError
from repro.transport.deploy import load_deployment

#: How long ``stop`` lets SIGTERM work before SIGKILL.
STOP_GRACE = 5.0


def _src_root() -> str:
    """The directory holding the ``repro`` package, for child
    ``PYTHONPATH`` — children must import the same code we run."""
    import repro

    return str(Path(repro.__file__).parents[1])


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = _src_root()
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


class LaunchedDeployment:
    """The daemon processes of one deployment file, as a context
    manager.  :class:`DeployError` if the file is malformed or lacks
    one of ``machines``."""

    def __init__(
        self,
        config: Union[str, Path],
        machines: Optional[Sequence[str]] = None,
        python: str = sys.executable,
        log_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = str(config)
        self.deployment = load_deployment(config)
        if machines is None:
            self.machines = list(self.deployment.machines())
        else:
            for machine in machines:
                self.deployment.hosted(machine)
            self.machines = list(machines)
        self.python = python
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self.processes: Dict[str, subprocess.Popen] = {}
        self._logs: List = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn one daemon process per machine group."""
        if self.processes:
            raise DeployError("deployment already started")
        env = _child_env()
        for machine in self.machines:
            argv = [self.python, "-m", "repro.transport.daemon",
                    self.config, "--machine", machine]
            if self.log_dir is not None:
                self.log_dir.mkdir(parents=True, exist_ok=True)
                log = open(self.log_dir / f"{machine}.log", "wb")
                self._logs.append(log)
                stdout = stderr = log
            else:
                stdout = stderr = subprocess.DEVNULL
            self.processes[machine] = subprocess.Popen(
                argv, env=env, stdout=stdout, stderr=stderr
            )

    def hosted_daemons(self) -> List[str]:
        """Names of the daemons the launched machines host."""
        return [
            name
            for machine in self.machines
            for name in self.deployment.hosted(machine)
        ]

    def poll(self) -> Dict[str, Optional[int]]:
        """Machine → exit code (None while running)."""
        return {
            machine: process.poll()
            for machine, process in self.processes.items()
        }

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every hosted daemon's peer and client listeners
        accept TCP connections, or raise :class:`DeployError`.

        A child that exits during the wait fails fast — a typo'd config
        must not burn the whole timeout."""
        deadline = time.monotonic() + timeout
        targets = []
        for name in self.hosted_daemons():
            spec = self.deployment.spec(name)
            targets.append((name, "peer", spec.peer_address))
            targets.append((name, "client", spec.client_address))
        remaining = list(targets)
        while remaining:
            for machine, code in self.poll().items():
                if code is not None:
                    raise DeployError(
                        f"daemon process for machine {machine!r} exited "
                        f"with code {code} before becoming ready"
                    )
            still = []
            for target in remaining:
                __, __, address = target
                try:
                    with socket.create_connection(address, timeout=0.5):
                        pass
                except OSError:
                    still.append(target)
            remaining = still
            if not remaining:
                return
            if time.monotonic() > deadline:
                missing = ", ".join(
                    f"{name}/{role}@{addr[0]}:{addr[1]}"
                    for name, role, addr in remaining
                )
                raise DeployError(
                    f"deployment not ready within {timeout}s "
                    f"(waiting on {missing})"
                )
            time.sleep(0.05)

    def stop(self, grace: float = STOP_GRACE) -> Dict[str, Optional[int]]:
        """Terminate every child: SIGTERM, bounded wait, then SIGKILL."""
        for process in self.processes.values():
            if process.poll() is None:
                try:
                    process.terminate()
                except OSError:  # pragma: no cover - already reaped
                    pass
        deadline = time.monotonic() + grace
        for process in self.processes.values():
            left = max(0.0, deadline - time.monotonic())
            try:
                process.wait(left)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        codes = self.poll()
        for log in self._logs:
            try:
                log.close()
            except OSError:  # pragma: no cover
                pass
        self._logs.clear()
        return codes

    def __enter__(self) -> "LaunchedDeployment":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.launch",
        description="Launch the daemon processes of a deployment file.",
    )
    parser.add_argument("config", help="deployment file (TOML or JSON)")
    parser.add_argument(
        "--machine",
        action="append",
        default=None,
        metavar="NAME",
        help="launch only this machine's daemons (repeatable; "
        "default: every machine in the config)",
    )
    parser.add_argument(
        "--ready-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for every listener to come up",
    )
    parser.add_argument(
        "--log-dir",
        default=None,
        metavar="DIR",
        help="write per-machine daemon logs here (default: discard)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        launched = LaunchedDeployment(
            args.config, machines=args.machine, log_dir=args.log_dir
        )
    except DeployError as exc:
        parser.error(str(exc))
    stop_requested = {"flag": False}

    def request_stop(signum, frame):  # pragma: no cover - signal path
        stop_requested["flag"] = True

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, request_stop)
    try:
        launched.start()
        try:
            launched.wait_ready(args.ready_timeout)
        except DeployError as exc:
            print(f"error: {exc}", file=sys.stderr)
            launched.stop()
            return 1
        hosted = ", ".join(launched.hosted_daemons())
        auth = "on" if launched.deployment.keyfile else "off"
        print(
            f"deployment ready: {hosted} "
            f"({len(launched.processes)} process(es), frame auth {auth}); "
            "ctrl-c to stop",
            flush=True,
        )
        while not stop_requested["flag"]:
            time.sleep(0.2)
            for machine, code in launched.poll().items():
                if code is not None:
                    print(
                        f"machine {machine!r} exited with code {code}",
                        file=sys.stderr,
                    )
                    launched.stop()
                    return 1
    finally:
        launched.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
