"""The deployment launcher (:mod:`repro.transport.launch`).

These tests spawn real ``python -m repro.transport.daemon CONFIG
--machine M`` processes on loopback — the cheapest honest exercise of
the multi-host deployment path: config file → subprocesses reading the
same file → listeners up → clean teardown, plus the fail-fast paths
(dead child, impossible config).
"""

from __future__ import annotations

import os
import socket
import sys

import pytest

from repro.errors import DeployError
from repro.transport.auth import FrameAuth, generate_keyfile
from repro.transport.launch import LaunchedDeployment, _child_env


def free_ports(count: int):
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def write_config(tmp_path, daemons: int, keyfile=None) -> str:
    ports = free_ports(2 * daemons)
    lines = ["[deployment]", 'bind = "127.0.0.1"']
    if keyfile is not None:
        lines.insert(1, f'keyfile = "{keyfile}"')
    for index in range(daemons):
        lines += [
            "[[daemon]]",
            f'name = "d{index}"',
            'host = "127.0.0.1"',
            f"peer_port = {ports[2 * index]}",
            f"client_port = {ports[2 * index + 1]}",
        ]
    config = tmp_path / "deploy.toml"
    config.write_text("\n".join(lines) + "\n")
    return config


def test_launch_two_daemons_ready_and_stop(tmp_path):
    config = write_config(tmp_path, 2)
    with LaunchedDeployment(config, log_dir=tmp_path / "logs") as launched:
        launched.wait_ready(timeout=30.0)
        assert sorted(launched.hosted_daemons()) == ["d0", "d1"]
        assert all(code is None for code in launched.poll().values())
        # Each child read the launcher's own file, for its own machine.
        for machine, process in launched.processes.items():
            assert process.args == [
                sys.executable, "-m", "repro.transport.daemon",
                str(config), "--machine", machine,
            ]
        # Listeners really accept.
        for spec in launched.deployment.daemons:
            with socket.create_connection(spec.client_address, timeout=2.0):
                pass
    # Context exit stopped every child.
    codes = launched.poll()
    assert all(code is not None for code in codes.values())
    assert (tmp_path / "logs" / "d0.log").exists()


def test_launch_subset_of_machines(tmp_path):
    config = write_config(tmp_path, 2)
    with LaunchedDeployment(config, machines=["d1"]) as launched:
        launched.wait_ready(timeout=30.0)
        assert launched.hosted_daemons() == ["d1"]
        # d0 was not launched: nothing listens there.
        with pytest.raises(OSError):
            socket.create_connection(
                launched.deployment.spec("d0").client_address, timeout=0.5
            )


def test_unknown_machine_is_refused(tmp_path):
    config = write_config(tmp_path, 1)
    with pytest.raises(DeployError, match="unknown machine"):
        LaunchedDeployment(config, machines=["nope"])


def test_dead_child_fails_wait_ready_fast(tmp_path):
    # A keyfile that does not exist makes the daemon exit at startup;
    # wait_ready must surface that immediately, not burn the timeout.
    config = write_config(tmp_path, 1, keyfile="missing.key")
    launched = LaunchedDeployment(config)
    launched.start()
    try:
        with pytest.raises(DeployError, match="exited with code"):
            launched.wait_ready(timeout=20.0)
    finally:
        launched.stop()


def test_double_start_is_refused(tmp_path):
    config = write_config(tmp_path, 1)
    with LaunchedDeployment(config) as launched:
        with pytest.raises(DeployError, match="already started"):
            launched.start()


def test_child_env_prepends_src(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "/existing")
    env = _child_env()
    # Children import the same code we run.
    head, rest = env["PYTHONPATH"].split(os.pathsep, 1)
    assert os.path.isdir(os.path.join(head, "repro"))
    assert rest == "/existing"


@pytest.mark.parametrize(
    "deployment_keyed,imposter",
    [(True, "wrong_key"), (True, "keyless"), (False, "keyed")],
    ids=[
        "wrong_key_client",
        "keyless_client",
        "keyed_client_vs_keyless_deployment",
    ],
)
def test_authenticated_deployment_end_to_end(tmp_path, deployment_keyed, imposter):
    """Key file in config → daemons speak MAC'd frames.  A client whose
    key setting differs from the deployment's is cut off within the
    timeout, and the honest client still round-trips afterwards in the
    same deployment."""
    import asyncio

    from repro.transport.client import TcpSpreadClient
    from repro.transport.rtclock import RealtimeClock
    from repro.errors import ReproError

    keyfile = tmp_path / "deploy.key"
    generate_keyfile(keyfile)
    wrong_key = tmp_path / "wrong.key"
    generate_keyfile(wrong_key)
    honest_auth = FrameAuth.from_keyfile(keyfile) if deployment_keyed else None
    imposter_auth = {
        "wrong_key": FrameAuth.from_keyfile(wrong_key),
        "keyless": None,
        "keyed": FrameAuth.from_keyfile(keyfile),
    }[imposter]
    config = write_config(
        tmp_path, 1, keyfile=keyfile if deployment_keyed else None
    )
    with LaunchedDeployment(config, log_dir=tmp_path / "logs") as launched:
        launched.wait_ready(timeout=30.0)
        spec = launched.deployment.daemons[0]

        async def imposter_is_cut_off():
            clock = RealtimeClock(asyncio.get_running_loop())
            client = TcpSpreadClient(
                spec.client_address, "bad", clock=clock,
                auth=imposter_auth, reconnect=False,
            )
            try:
                await asyncio.wait_for(client.connect(timeout=3.0), 6.0)
            except (ReproError, OSError, asyncio.TimeoutError):
                return True
            finally:
                await client.close()
            return False

        assert asyncio.run(imposter_is_cut_off())

        async def honest_round_trip():
            clock = RealtimeClock(asyncio.get_running_loop())
            client = TcpSpreadClient(
                spec.client_address, "ok", clock=clock, auth=honest_auth
            )
            pid = await client.connect()
            await client.close()
            return str(pid)

        assert asyncio.run(honest_round_trip()) == "#ok#d0"
