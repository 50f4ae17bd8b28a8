"""Deployment config files for multi-machine (and multi-process) runs.

A *deployment* names every daemon in a Spread configuration together
with where it listens: the equivalent of Spread's static
``spread.conf``.  It is the only description of a real deployment —
``python -m repro.transport.daemon CONFIG --machine M`` on each box and
the launcher that spawns that command read the same file.  TOML is the
native format (stdlib ``tomllib``); JSON with the same shape is
accepted for programmatic writers::

    [deployment]
    keyfile = "deploy.key"      # frame-auth key, relative to this file
    bind = "127.0.0.1"          # listener bind address on each machine
    hello_interval = 0.25
    fail_timeout = 1.5
    seed = 0

    [[daemon]]
    name = "d0"
    host = "127.0.0.1"          # address *peers and clients* dial
    peer_port = 4803
    client_port = 4813
    machine = "m0"              # process/machine group; default: name

Daemons sharing a ``machine`` value run in one
:class:`~repro.transport.host.DaemonHost` process; by default each
daemon is its own machine, which is the honest multi-process shape the
loopback benches measure.  Every field is validated up front —
:class:`~repro.errors.DeployError` names the offending entry — because
a deployment file is shared state: one machine running a typo'd port
produces a partitioned view, not an error, hours later.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import DeployError
from repro.spread.config import SpreadConfig
from repro.transport.tcp import TransportMap


@dataclass(frozen=True)
class DaemonSpec:
    """One daemon of a deployment: identity plus listening addresses."""

    name: str
    host: str
    peer_port: int
    client_port: int
    machine: str

    @property
    def peer_address(self) -> Tuple[str, int]:
        return (self.host, self.peer_port)

    @property
    def client_address(self) -> Tuple[str, int]:
        return (self.host, self.client_port)


@dataclass(frozen=True)
class Deployment:
    """A validated deployment: daemon specs plus shared knobs."""

    daemons: Tuple[DaemonSpec, ...]
    keyfile: Optional[str] = None
    bind: str = "0.0.0.0"
    hello_interval: float = 0.25
    fail_timeout: float = 1.5
    seed: int = 0

    def spec(self, name: str) -> DaemonSpec:
        for daemon in self.daemons:
            if daemon.name == name:
                return daemon
        raise DeployError(f"no daemon named {name!r} in the deployment")

    def machines(self) -> Dict[str, List[str]]:
        """Machine name → daemon names hosted there (insertion order)."""
        groups: Dict[str, List[str]] = {}
        for daemon in self.daemons:
            groups.setdefault(daemon.machine, []).append(daemon.name)
        return groups

    def hosted(self, machine: str) -> List[str]:
        """The daemons ``machine`` hosts; :class:`DeployError` if the
        file names no such machine."""
        groups = self.machines()
        if machine not in groups:
            raise DeployError(
                f"unknown machine {machine!r} "
                f"(config has: {', '.join(groups)})"
            )
        return groups[machine]

    def transport_map(self) -> TransportMap:
        table = TransportMap()
        for daemon in self.daemons:
            table.set_peer(daemon.name, daemon.host, daemon.peer_port)
            table.set_client(daemon.name, daemon.host, daemon.client_port)
        return table

    def spread_config(self) -> SpreadConfig:
        return realtime_config(
            tuple(d.name for d in self.daemons),
            self.hello_interval,
            self.fail_timeout,
        )


def realtime_config(
    daemons: Tuple[str, ...], hello_interval: float, fail_timeout: float
) -> SpreadConfig:
    """A :class:`SpreadConfig` for daemons on wall-clock timers, where
    the membership timeouts follow the failure timeout: gather 2×,
    sync 4×.  Every real-time deployment takes its timers from here."""
    return SpreadConfig(
        daemons=daemons,
        hello_interval=hello_interval,
        fail_timeout=fail_timeout,
        gather_timeout=fail_timeout * 2,
        sync_timeout=fail_timeout * 4,
    )


def _require(table: dict, key: str, kind, where: str):
    if key not in table:
        raise DeployError(f"{where}: missing required field {key!r}")
    value = table[key]
    # bool is an int subclass; a port of ``true`` is a typo, not a port.
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise DeployError(
            f"{where}: field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _port(table: dict, key: str, where: str) -> int:
    port = _require(table, key, int, where)
    if not 1 <= port <= 65535:
        raise DeployError(f"{where}: {key} {port} outside 1-65535")
    return port


def parse_deployment(
    document: dict, base_dir: Optional[Path] = None
) -> Deployment:
    """Validate a parsed config document into a :class:`Deployment`.

    ``base_dir`` anchors relative ``keyfile`` paths (the directory of
    the config file, so a deployment directory can be copied whole).
    """
    if not isinstance(document, dict):
        raise DeployError("deployment document must be a table/object")
    shared = document.get("deployment", {})
    if not isinstance(shared, dict):
        raise DeployError("[deployment] must be a table/object")
    known = {"keyfile", "bind", "hello_interval", "fail_timeout", "seed"}
    for key in shared:
        if key not in known:
            raise DeployError(f"[deployment]: unknown field {key!r}")
    entries = document.get("daemon")
    if not isinstance(entries, list) or not entries:
        raise DeployError("a deployment needs at least one [[daemon]] entry")

    daemons: List[DaemonSpec] = []
    seen_names: set = set()
    seen_endpoints: set = set()
    for index, entry in enumerate(entries):
        where = f"daemon[{index}]"
        if not isinstance(entry, dict):
            raise DeployError(f"{where}: must be a table/object")
        for key in entry:
            if key not in {"name", "host", "peer_port", "client_port",
                           "machine"}:
                raise DeployError(f"{where}: unknown field {key!r}")
        name = _require(entry, "name", str, where)
        if not name:
            raise DeployError(f"{where}: empty daemon name")
        if name in seen_names:
            raise DeployError(f"{where}: duplicate daemon name {name!r}")
        seen_names.add(name)
        host = _require(entry, "host", str, where)
        peer_port = _port(entry, "peer_port", where)
        client_port = _port(entry, "client_port", where)
        for port in (peer_port, client_port):
            endpoint = (host, port)
            if endpoint in seen_endpoints:
                raise DeployError(
                    f"{where}: address {host}:{port} already in use"
                )
            seen_endpoints.add(endpoint)
        machine = entry.get("machine", name)
        if not isinstance(machine, str) or not machine:
            raise DeployError(f"{where}: machine must be a non-empty string")
        daemons.append(
            DaemonSpec(
                name=name,
                host=host,
                peer_port=peer_port,
                client_port=client_port,
                machine=machine,
            )
        )

    keyfile = shared.get("keyfile")
    if keyfile is not None:
        if not isinstance(keyfile, str) or not keyfile:
            raise DeployError("[deployment]: keyfile must be a path string")
        if base_dir is not None and not Path(keyfile).is_absolute():
            keyfile = str(base_dir / keyfile)

    bind = shared.get("bind", "0.0.0.0")
    if not isinstance(bind, str) or not bind:
        raise DeployError("[deployment]: bind must be an address string")

    def _number(key: str, default: float) -> float:
        value = shared.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DeployError(f"[deployment]: {key} must be a number")
        if value <= 0:
            raise DeployError(f"[deployment]: {key} must be > 0")
        return float(value)

    seed = shared.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DeployError("[deployment]: seed must be an integer")

    hello_interval = _number("hello_interval", 0.25)
    fail_timeout = _number("fail_timeout", 1.5)
    if hello_interval >= fail_timeout:
        raise DeployError(
            f"[deployment]: hello_interval ({hello_interval}) must be"
            f" below fail_timeout ({fail_timeout})"
        )

    return Deployment(
        daemons=tuple(daemons),
        keyfile=keyfile,
        bind=bind,
        hello_interval=hello_interval,
        fail_timeout=fail_timeout,
        seed=seed,
    )


def load_deployment(path: Union[str, Path]) -> Deployment:
    """Load and validate a deployment file (TOML, or JSON by suffix)."""
    source = Path(path)
    try:
        raw = source.read_bytes()
    except OSError as exc:
        raise DeployError(f"cannot read deployment file {path}: {exc}")
    if source.suffix.lower() == ".json":
        try:
            document = json.loads(raw)
        except ValueError as exc:
            raise DeployError(f"{path} is not valid JSON: {exc}")
    else:
        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise DeployError(f"{path} is not valid TOML: {exc}")
    return parse_deployment(document, base_dir=source.parent)
