"""The daemon CLI (:mod:`repro.transport.daemon`): a deployment file and
the machine to host.

A defect in the file or an unknown machine is an argparse usage error
(exit 2) that names it, raised before any listener opens — not a
traceback in a half-started daemon.
"""

from __future__ import annotations

import pytest

from repro.transport import daemon as daemon_cli

TWO_DAEMONS = """
[deployment]
bind = "127.0.0.1"
fail_timeout = 2.0

[[daemon]]
name = "d0"
host = "127.0.0.1"
peer_port = 4803
client_port = 4813

[[daemon]]
name = "d1"
host = "127.0.0.1"
peer_port = 4804
client_port = 4814
"""


def write(tmp_path, text: str) -> str:
    config = tmp_path / "deploy.toml"
    config.write_text(text)
    return str(config)


def hosting(monkeypatch, argv):
    """Run the CLI with the daemon host stubbed out: (deployment, hosted)."""
    calls = []

    async def fake_run(deployment, hosted):
        calls.append((deployment, list(hosted)))

    monkeypatch.setattr(daemon_cli, "run", fake_run)
    assert daemon_cli.main(argv) == 0
    (call,) = calls
    return call


def usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as excinfo:
        daemon_cli.main(argv)
    assert excinfo.value.code == 2  # argparse usage error, not a traceback
    return capsys.readouterr().err


def test_the_cli_takes_only_a_config_and_a_machine():
    parser = daemon_cli.build_parser()
    options = {s for action in parser._actions for s in action.option_strings}
    assert options == {"-h", "--help", "--machine"}
    positional = [a.dest for a in parser._actions if not a.option_strings]
    assert positional == ["config"]


def test_good_specs_parse(tmp_path, monkeypatch):
    config = write(tmp_path, TWO_DAEMONS)
    deployment, hosted = hosting(monkeypatch, [config, "--machine", "d1"])
    assert hosted == ["d1"]
    # Every machine gets every address and the same timers.
    addresses = deployment.transport_map()
    assert addresses.peer("d0") == ("127.0.0.1", 4803)
    assert addresses.client("d1") == ("127.0.0.1", 4814)
    spread = deployment.spread_config()
    assert spread.daemons == ("d0", "d1")
    assert spread.gather_timeout == 4.0
    # Without --machine one process hosts the whole file.
    __, hosted = hosting(monkeypatch, [config])
    assert hosted == ["d0", "d1"]


def test_duplicate_daemon_names_are_usage_errors(tmp_path, capsys):
    config = write(tmp_path, TWO_DAEMONS.replace('"d1"', '"d0"'))
    assert "duplicate daemon name 'd0'" in usage_error([config], capsys)


def test_unknown_host_selection_is_a_usage_error(tmp_path, capsys):
    config = write(tmp_path, TWO_DAEMONS)
    err = usage_error([config, "--machine", "d9"], capsys)
    assert "unknown machine 'd9'" in err


@pytest.mark.parametrize(
    "text, defect",
    [
        (None, "cannot read deployment file"),
        ("[deployment\n", "not valid TOML"),
        (TWO_DAEMONS.replace("4804", "0"), "peer_port 0 outside 1-65535"),
        (
            TWO_DAEMONS.replace("fail_timeout = 2.0", "hello_interval = 3.0"),
            "hello_interval (3.0) must be below fail_timeout (1.5)",
        ),
    ],
    ids=["missing", "toml", "port", "timers"],
)
def test_malformed_files_are_usage_errors(tmp_path, capsys, text, defect):
    config = write(tmp_path, text) if text else str(tmp_path / "none.toml")
    assert defect in usage_error([config], capsys)
