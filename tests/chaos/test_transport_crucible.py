"""The crucible's TCP backend: seeded determinism, faithful replay and
the empty-schedule acceptance bar.

Determinism is schedule-level (wall-clock byte timing varies run to
run): the full fault sequence — kinds, offsets from the window start,
targets, shape values — derives purely from the seed, and a schedule fed
back in is re-based onto the new run's window.  And with *no* schedule
armed, the whole netem layer must be an invisible wire: a clean run with
zero injected faults and every invariant green.
"""

import pytest

from repro.chaos import crucible, wansoak
from repro.chaos.harness import MODULES
from repro.chaos.transport_crucible import (
    TransportCrucible,
    generate_wan_schedule,
)
from repro.sim.rng import DeterministicRng
from repro.transport.host import loopback_available
from repro.transport.netem import NetemSchedule


def wan(seed, windows=4):
    return generate_wan_schedule(
        DeterministicRng(seed, label="wan"),
        start=1.0,
        end=8.0,
        daemons=("d0", "d1", "d2"),
        members=("m0", "m1", "m2"),
        windows=windows,
    )


def test_same_seed_generates_the_identical_schedule():
    assert wan(0).describe() == wan(0).describe()
    assert wan(17).describe() == wan(17).describe()


def test_different_seeds_generate_different_schedules():
    assert wan(0).describe() != wan(1).describe()


def test_schedule_times_stay_inside_the_window():
    for seed in range(5):
        schedule = wan(seed)
        times = [action.at for action in schedule.actions]
        assert times, "a WAN schedule is never empty"
        assert min(times) >= 1.0
        assert max(times) <= 8.0
        # Self-repairing: the last actions restore clean pass-through.
        assert schedule.describe()[-1].startswith("t=8.0")


def test_crucible_modules_are_the_paper_triple():
    assert MODULES == ("cliques", "ckd", "tgdh")


def _run(seed, module, **kwargs):
    """One quick run on a fresh deployment: (result, the netem actions
    that fired)."""
    if not loopback_available():  # pragma: no cover - sandboxed platforms
        pytest.skip("loopback sockets unavailable")
    deployment = TransportCrucible(seed, module)
    try:
        return deployment.execute(quick=True, **kwargs), deployment.netem.fired
    finally:
        deployment.close()


def test_empty_schedule_run_is_clean_with_zero_faults():
    result, fired = _run(0, "cliques", schedule=NetemSchedule())
    assert result.ok, result.violations
    assert fired == []
    assert result.violations == []
    # The netem layer proxied every wire yet injected nothing.
    faults = (
        result.netem["faults_loss"]
        + result.netem["faults_corrupt"]
        + result.netem["faults_truncate"]
        + result.netem["conn_resets"]
        + result.netem["blackholed_bytes"]
    )
    assert faults == 0
    assert result.netem["bytes_fwd"] > 0  # traffic really crossed it
    assert result.traffic_sent > 0


def _offsets(actions, origin):
    """A fault sequence with its clock anchor factored out."""
    return [
        (
            round(action.at - origin, 6),
            action.kind,
            action.links,
            action.direction,
            action.fields,
        )
        for action in sorted(actions, key=lambda a: (a.at, a.kind))
    ]


def test_seeded_quick_run_holds_invariants_and_replays_schedule():
    result, fired = _run(3, "cliques")
    assert result.ok, result.violations
    armed = result.schedule_obj
    assert _offsets(fired, armed.origin) == _offsets(armed.actions, armed.origin)
    # Replay: the first run's schedule carries that run's absolute
    # times.  Fed back in, it is re-based onto the new window — whose
    # start differs, group establishment took a different wall time — so
    # every netem.fire lands at the same offset from the window start.
    replay, refired = _run(3, "cliques", schedule=armed)
    assert replay.ok, replay.violations
    assert replay.schedule_obj.origin != armed.origin
    assert _offsets(refired, replay.schedule_obj.origin) == _offsets(
        fired, armed.origin
    )


def test_cli_runs_one_quick_tcp_seed():
    assert crucible.main(
        ["--backend", "tcp", "--quick", "--seeds", "1", "--module", "cliques"]
    ) == 0


@pytest.mark.parametrize(
    "main,argv",
    [
        (crucible.main, ["--backend", "tcp", "--quick", "--seeds", "1",
                         "--module", "cliques"]),
        (wansoak.main, ["--smoke", "--check", "--output", "unwritten.json"]),
    ],
    ids=["crucible", "wansoak"],
)
def test_a_wedged_deployment_fails_the_cli(main, argv, monkeypatch):
    """A timeout is a failure on every entry point.  The builtin
    TimeoutError is an OSError: at the parent both CLIs caught it as
    "sockets unavailable" and exited 0, --check included."""
    if not loopback_available():  # pragma: no cover - sandboxed platforms
        pytest.skip("loopback sockets unavailable")

    def wedged(self, seed, module, trace_cap=None):
        raise TimeoutError("condition not met within 30.0s")

    monkeypatch.setattr(TransportCrucible, "__init__", wedged)
    with pytest.raises(TimeoutError):
        main(argv)
