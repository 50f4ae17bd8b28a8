"""Deployment config parsing (:mod:`repro.transport.deploy`).

A deployment file is shared state across machines, so parsing is
all-or-nothing: every malformed field must raise a
:class:`~repro.errors.DeployError` naming the offender, and a parsed
:class:`Deployment` must give every machine the same daemon list,
address map and timers.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import DeployError
from repro.transport.deploy import (
    DaemonSpec,
    Deployment,
    load_deployment,
    parse_deployment,
)

GOOD_TOML = """
[deployment]
keyfile = "deploy.key"
bind = "127.0.0.1"
hello_interval = 0.5
fail_timeout = 2.0
seed = 7

[[daemon]]
name = "d0"
host = "10.0.0.1"
peer_port = 4803
client_port = 4813

[[daemon]]
name = "d1"
host = "10.0.0.2"
peer_port = 4803
client_port = 4813
machine = "box-b"
"""


def good_document() -> dict:
    return {
        "deployment": {"bind": "127.0.0.1"},
        "daemon": [
            {
                "name": "d0",
                "host": "127.0.0.1",
                "peer_port": 4803,
                "client_port": 4813,
            },
        ],
    }


def test_toml_round_trip(tmp_path):
    config = tmp_path / "deploy.toml"
    config.write_text(GOOD_TOML)
    deployment = load_deployment(config)
    assert [d.name for d in deployment.daemons] == ["d0", "d1"]
    assert deployment.spec("d1").peer_address == ("10.0.0.2", 4803)
    assert deployment.bind == "127.0.0.1"
    assert deployment.hello_interval == 0.5
    assert deployment.fail_timeout == 2.0
    assert deployment.seed == 7
    # Relative keyfile is anchored at the config's directory.
    assert deployment.keyfile == str(tmp_path / "deploy.key")
    # Default machine is the daemon name; explicit machine groups.
    assert deployment.machines() == {"d0": ["d0"], "box-b": ["d1"]}


def test_json_is_accepted_by_suffix(tmp_path):
    config = tmp_path / "deploy.json"
    config.write_text(json.dumps(good_document()))
    deployment = load_deployment(config)
    assert deployment.spec("d0").client_address == ("127.0.0.1", 4813)
    assert deployment.keyfile is None


def test_spread_config_derives_timeouts():
    deployment = parse_deployment(good_document())
    config = deployment.spread_config()
    assert config.daemons == ("d0",)
    assert config.gather_timeout == deployment.fail_timeout * 2
    assert config.sync_timeout == deployment.fail_timeout * 4


def test_transport_map_covers_every_daemon():
    document = good_document()
    document["daemon"].append(
        {"name": "d1", "host": "127.0.0.1", "peer_port": 4804,
         "client_port": 4814}
    )
    table = parse_deployment(document).transport_map()
    assert table.peer("d1") == ("127.0.0.1", 4804)
    assert table.client("d0") == ("127.0.0.1", 4813)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.pop("daemon"), "at least one"),
        (lambda d: d["daemon"][0].pop("name"), "missing required field"),
        (lambda d: d["daemon"][0].update(name=""), "empty daemon name"),
        (lambda d: d["daemon"][0].update(peer_port="4803"), "must be int"),
        (lambda d: d["daemon"][0].update(peer_port=0), "outside 1-65535"),
        (lambda d: d["daemon"][0].update(peer_port=65536), "outside 1-65535"),
        (lambda d: d["daemon"][0].update(peer_port=True), "must be int"),
        (lambda d: d["daemon"][0].update(bogus=1), "unknown field"),
        (lambda d: d["deployment"].update(bogus=1), "unknown field"),
        # Packing is the only daemon path: the old switch is refused.
        (lambda d: d["deployment"].update(packing=True), "unknown field"),
        (lambda d: d["deployment"].update(keyfile=""), "keyfile"),
        (lambda d: d["deployment"].update(bind=""), "bind"),
        (lambda d: d["deployment"].update(hello_interval=0), "> 0"),
        (lambda d: d["deployment"].update(fail_timeout="x"), "number"),
        (lambda d: d["deployment"].update(seed=True), "integer"),
        (lambda d: d["daemon"][0].update(machine=""), "machine"),
        # The daemon's own check, raised before any process starts.
        (
            lambda d: d["deployment"].update(hello_interval=2.0, fail_timeout=1.0),
            r"hello_interval \(2.0\) must be below fail_timeout \(1.0\)",
        ),
    ],
)
def test_malformed_documents_are_refused(mutate, match):
    document = good_document()
    mutate(document)
    with pytest.raises(DeployError, match=match):
        parse_deployment(document)


def test_duplicate_daemon_names_are_refused():
    document = good_document()
    document["daemon"].append(dict(document["daemon"][0], peer_port=5000,
                                   client_port=5001))
    with pytest.raises(DeployError, match="duplicate daemon name"):
        parse_deployment(document)


def test_colliding_endpoints_are_refused():
    document = good_document()
    document["daemon"].append(
        dict(document["daemon"][0], name="d1", client_port=4803)
    )
    with pytest.raises(DeployError, match="already in use"):
        parse_deployment(document)
    # Same ports on *different hosts* is fine (the common WAN layout).
    document["daemon"][1].update(host="10.0.0.2", client_port=4813)
    parse_deployment(document)


def test_unreadable_and_invalid_files(tmp_path):
    with pytest.raises(DeployError, match="cannot read"):
        load_deployment(tmp_path / "missing.toml")
    bad_toml = tmp_path / "bad.toml"
    bad_toml.write_text("[deployment\n")
    with pytest.raises(DeployError, match="not valid TOML"):
        load_deployment(bad_toml)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    with pytest.raises(DeployError, match="not valid JSON"):
        load_deployment(bad_json)


def test_example_config_parses():
    from pathlib import Path

    example = (
        Path(__file__).resolve().parents[2]
        / "examples" / "deploy_loopback.toml"
    )
    deployment = load_deployment(example)
    assert len(deployment.daemons) == 3
    assert deployment.keyfile.endswith("deploy.key")
    assert len(deployment.machines()) == 3


def test_spec_lookup_failure():
    deployment = Deployment(
        daemons=(
            DaemonSpec(
                name="d0", host="h", peer_port=1, client_port=2,
                machine="d0",
            ),
        )
    )
    with pytest.raises(DeployError):
        deployment.spec("nope")
