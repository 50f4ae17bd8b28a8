"""The crucible end to end: seeded runs hold every invariant, replay is
byte-identical, and the ddmin shrinker minimizes failing schedules of
either backend's type."""

import json
from dataclasses import replace

import pytest

from repro.chaos.crucible import _is_netem_repair, _is_repair, soak
from repro.chaos.harness import MODULES, generate_churn, generate_schedule, run_chaos
from repro.chaos.shrink import shrink_schedule
from repro.net.fault import FaultSchedule
from repro.net.link import LinkModel
from repro.sim.rng import DeterministicRng
from repro.transport.netem import NetemSchedule


# -- seeded runs ------------------------------------------------------------------


@pytest.mark.parametrize("module", MODULES)
def test_quick_chaos_run_holds_invariants(module):
    result = run_chaos(5, module, quick=True)
    assert result.ok, result.violations
    # The storm actually stormed: faults fired and the HMAC layer saw
    # (and rejected) corrupted traffic, yet nothing reached the app.
    assert result.stats["fault.fire"] > 0
    assert result.stats["net.corrupt"] > 0


def test_same_seed_replays_to_identical_trace():
    first = run_chaos(2, "cliques", quick=True)
    second = run_chaos(2, "cliques", quick=True)
    assert first.fingerprint == second.fingerprint
    assert first.schedule == second.schedule
    assert first.stats == second.stats


def test_different_seeds_diverge():
    first = run_chaos(2, "cliques", quick=True)
    second = run_chaos(3, "cliques", quick=True)
    assert first.fingerprint != second.fingerprint


def test_explicit_schedule_overrides_generated_one():
    quiet = FaultSchedule()  # no faults at all
    result = run_chaos(2, "cliques", quick=True, schedule=quiet, churn=[])
    assert result.ok
    assert result.stats["fault.fire"] == 0
    assert result.stats["secure.data"] > 0  # traffic still flowed


def test_soak_document_shape():
    document = soak([4], ["ckd"], quick=True, progress=False)
    assert document["summary"]["runs"] == 1
    assert document["summary"]["passed"] == 1
    assert document["summary"]["per_module"]["ckd"]["passed"] == 1
    run = document["runs"][0]
    assert run["seed"] == 4 and run["module"] == "ckd"
    json.dumps(document)  # JSON-serializable end to end


# -- schedule generation ----------------------------------------------------------


def test_generated_schedule_is_self_repairing():
    rng = DeterministicRng(99, label="chaos")
    schedule = generate_schedule(
        rng.child("schedule"), 1.0, 9.0, daemons=["d0", "d1", "d2", "d3"]
    )
    kinds = [a.kind for a in schedule.actions]
    # Opens adversarial, closes clean.
    links = [a for a in schedule.actions if a.kind == "set_link"]
    assert links[0].link.adversarial and not links[-1].link.adversarial
    # The final repair block runs at the window end.
    tail = [a for a in schedule.actions if a.at == 9.0]
    assert {a.kind for a in tail} == {"resume", "restore", "heal", "set_link"}
    # Crash faults only ever target the spare daemon.
    for action in schedule.actions:
        if action.kind == "crash":
            assert action.targets == ("d3",)
    assert kinds == [a.kind for a in sorted(schedule.actions, key=lambda a: a.at)]


def test_generated_churn_stays_inside_window():
    rng = DeterministicRng(5, label="chaos")
    plan = generate_churn(rng.child("churn"), 1.0, 9.0)
    for op in plan:
        assert 1.0 < op.at < 9.0
    joins = [op for op in plan if op.op == "join"]
    leaves = [op for op in plan if op.op == "leave"]
    if leaves:
        assert joins and leaves[0].at > joins[0].at


# -- the shrinker -----------------------------------------------------------------
#
# One shrinker serves both backends' schedule types; the unit tests run
# it on synthetic predicates (no simulator, no sockets) over each.


def minimal_predicate(culprit_kinds):
    """Failing iff the candidate still contains every culprit kind."""

    def failing(schedule) -> bool:
        kinds = {a.kind for a in schedule.actions}
        return culprit_kinds <= kinds

    return failing


def _noisy_sim_schedule():
    return (
        FaultSchedule()
        .set_link(0.0, LinkModel.chaotic())
        .stall(1.0, "d1")
        .partition(2.0, [["d0"], ["d1", "d2"]])
        .crash(3.0, "d3")
        .resume(4.0, "d1")
        .recover(5.0, "d3")
        .heal(6.0)
        .set_link(6.0, LinkModel.ethernet_100base_t())
    )


def _noisy_tcp_schedule():
    return (
        NetemSchedule(origin=0.5)
        .shape(0.5, latency=0.01)
        .stall(1.0, ["peer:d0>d1"])
        .blackhole(2.0, ["peer:d1>d2"])
        .reset(3.0, ["client:m0"])
        .resume(4.0, ["peer:d0>d1"])
        .heal(5.0, ["peer:d1>d2"])
        .clear(6.0)
        .reset(6.0)
    )


#: (noisy schedule, its repair predicate, the two culprit kinds, the
#: repair kinds that must survive, one fault to repeat for the budget
#: test) per schedule type.
SHRINKABLE = {
    "sim": (
        _noisy_sim_schedule, _is_repair, {"partition", "crash"},
        {"resume", "recover", "heal", "set_link"},
        lambda s, i: s.stall(float(i), f"d{i % 4}"),
    ),
    "tcp": (
        _noisy_tcp_schedule, _is_netem_repair, {"blackhole", "stall"},
        {"resume", "heal", "clear", "reset"},
        lambda s, i: s.stall(float(i), [f"peer:d{i % 3}>d{(i + 1) % 3}"]),
    ),
}


@pytest.mark.parametrize("backend", sorted(SHRINKABLE))
def test_shrinker_reduces_to_the_culprits(backend):
    make, is_repair, culprits, repairs, __ = SHRINKABLE[backend]
    schedule = make()
    minimal = shrink_schedule(
        schedule, minimal_predicate(culprits), keep=is_repair
    )
    assert type(minimal) is type(schedule)
    shrunk_kinds = [a.kind for a in minimal.actions if not is_repair(a)]
    # 1-minimal: exactly the two culprit actions survive (plus repairs).
    assert sorted(shrunk_kinds) == sorted(culprits)
    assert {a.kind for a in minimal.actions if is_repair(a)} == repairs
    # Whatever else the schedule carries (a netem origin) rides along.
    assert minimal == replace(schedule, actions=minimal.actions)


def test_netem_repair_keeps_the_end_of_window_reset_only():
    schedule = _noisy_tcp_schedule()
    kept = [(a.at, a.kind) for a in schedule.actions if _is_netem_repair(a)]
    assert kept == [(4.0, "resume"), (5.0, "heal"), (6.0, "clear"), (6.0, "reset")]


def test_shrinker_single_culprit():
    schedule = (
        FaultSchedule()
        .stall(1.0, "d1")
        .sever(2.0, ["d0"], ["d1"])
        .stall(3.0, "d2")
        .restore(4.0)
        .resume(5.0, "d1", "d2")
    )
    minimal = shrink_schedule(
        schedule, minimal_predicate({"sever"}), keep=_is_repair
    )
    culprits = [a for a in minimal.actions if not _is_repair(a)]
    assert [a.kind for a in culprits] == ["sever"]


def test_shrinker_rejects_non_failing_schedule():
    schedule = FaultSchedule().stall(1.0, "d1")
    with pytest.raises(ValueError):
        shrink_schedule(schedule, lambda s: False)


@pytest.mark.parametrize("backend", sorted(SHRINKABLE))
def test_shrinker_respects_run_budget(backend):
    make, __, __, __, add_fault = SHRINKABLE[backend]
    schedule = type(make())()
    for i in range(16):
        add_fault(schedule, i)
    calls = {"n": 0}

    def failing(candidate) -> bool:
        calls["n"] += 1
        return len(candidate.actions) >= 1

    shrink_schedule(schedule, failing, max_runs=10)
    assert calls["n"] <= 10


@pytest.mark.parametrize("backend", sorted(SHRINKABLE))
def test_shrinker_keeps_candidate_schedules_time_sorted(backend):
    """Every candidate the predicate sees must be a valid schedule:
    actions in time order, repairs retained."""
    make, is_repair, culprits, repairs, __ = SHRINKABLE[backend]
    seen = []

    def failing(candidate) -> bool:
        seen.append(candidate.actions)
        return culprits <= {a.kind for a in candidate.actions}

    shrink_schedule(make(), failing, keep=is_repair)
    for actions in seen:
        assert [a.at for a in actions] == sorted(a.at for a in actions)
        assert {a.kind for a in actions if is_repair(a)} == repairs


# -- shrinking an injected regression, end to end ---------------------------------


def test_shrinker_on_injected_regression():
    """Plant a 'regression': a schedule that never repairs its sever.

    The convergence invariant fails; the shrinker must strip the noise
    (stalls, crash) and keep the unrepaired sever that causes it.
    """
    base = run_chaos(2, "cliques", quick=True)  # healthy baseline
    assert base.ok
    start = 2.0
    broken = (
        FaultSchedule()
        .stall(start + 0.2, "d3")
        .crash(start + 0.4, "d3")
        .sever(start + 0.6, ["d0"], ["d1", "d2"])  # never restored
        .recover(start + 1.0, "d3")
        .resume(start + 1.2, "d3")
    )

    def failing(candidate: FaultSchedule) -> bool:
        return not run_chaos(
            2, "cliques", quick=True, schedule=candidate, churn=[]
        ).ok

    assert failing(broken), "the injected regression must reproduce"
    minimal = shrink_schedule(broken, failing, keep=_is_repair, max_runs=30)
    kinds = [a.kind for a in minimal.actions if not _is_repair(a)]
    assert kinds == ["sever"]
