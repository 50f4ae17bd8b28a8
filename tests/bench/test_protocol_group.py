"""``ProtocolGroup`` is a pump over the production key-agreement
modules: it must reproduce the independent hand-driven reference groups
of ``tests/{cliques,ckd,tgdh}/conftest.py`` number for number, cover the
operations they never drove, and know no protocol by name."""

from __future__ import annotations

import pytest

from repro.bench import keyagree
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.errors import ModuleNotFoundError_
from repro.secure.policy import default_registry, register_module, unregister_module
from repro.sim.rng import stable_seed
from repro.testbed import ProtocolGroup
from repro.tgdh.context import TGDHContext
from tests.ckd.conftest import CKDTestGroup
from tests.cliques.conftest import CliquesTestGroup
from tests.secure.test_policy_enforcement import HashChainModule
from tests.tgdh.conftest import TGDHTestGroup

PARAMS = DHParams.tiny_test()
SEED = 5


class _SeededTGDHGroup(TGDHTestGroup):
    """The hand-driven TGDH group, seeded the way the pump seeds every
    member: the long-term pair is drawn from the member's source first."""

    def _new_context(self, name: str) -> TGDHContext:
        source = DeterministicSource(stable_seed(self.seed, name))
        DHKeyPair.generate(self.params, source)
        ctx = self.contexts[name] = TGDHContext(name, self.params, source=source)
        return ctx


REFERENCES = {
    "cliques": CliquesTestGroup,
    "ckd": CKDTestGroup,
    "tgdh": _SeededTGDHGroup,
}


def _grow(group: ProtocolGroup, reference, size: int) -> None:
    while len(group.members) < size:
        (name,) = group.join().joined
        if reference.contexts:
            reference.join(name)
        else:
            reference.create(name)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33])
@pytest.mark.parametrize("operation", ["join", "controller_leave", "leave"])
@pytest.mark.parametrize("protocol", sorted(REFERENCES))
def test_pump_reproduces_the_hand_driven_reference(protocol, operation, n):
    group = ProtocolGroup(protocol, params=PARAMS, seed=SEED)
    reference = REFERENCES[protocol](PARAMS, SEED)
    _grow(group, reference, n)
    if operation != "join":  # a join is the growth's last step
        controller = group.key_controller
        leaver = controller if operation == "controller_leave" else next(
            m for m in reversed(group.members) if m != controller
        )
        assert group.leave(leaver).left == (leaver,)
        reference.leave(leaver)

    assert sorted(group.members) == sorted(reference.contexts)
    for name in group.members:
        # Every label of every member's whole-life counter, and the key.
        assert (
            group.counter_of(name).snapshot()
            == reference.contexts[name].counter.snapshot()
        ), name
        assert group.modules[name].secret() == reference.contexts[name].secret()


@pytest.mark.parametrize("protocol", default_registry().names())
def test_every_module_survives_merge_partition_and_restart(protocol):
    """The operations the hand-driven groups never covered for all three
    modules: each ends with every member ready on one secret (the pump
    asserts it) that no earlier view of the path ever held."""
    group = ProtocolGroup(protocol, params=PARAMS, seed=SEED)
    group.grow_to(5)
    seen = {group.secret()}
    steps = [
        lambda: group.merge(3),
        lambda: group.partition("m1", "m6"),
        lambda: group.partition(group.key_controller, merge=2),
        group.restart,
        group.leave,
        group.join,
    ]
    for step in steps:
        record = step()
        assert set(record.serial) <= set(group.members)
        assert set(record.windows) == set(group.members)
        secret = group.secret()
        assert secret not in seen
        seen.add(secret)


def test_a_registered_third_party_module_is_benched_with_no_bench_code():
    register_module("hashchain", HashChainModule)
    try:
        group = ProtocolGroup("hashchain")
        group.grow_to(4)
        assert group.key_controller == "m0"
        cell = keyagree.run_cell("hashchain", "join", 4, iterations=1, params=PARAMS)
        # No counter, no message: nothing serial to count or to time.
        assert cell["exp_counts"] == {} and cell["counts_identical"]
    finally:
        unregister_module("hashchain")
    with pytest.raises(ModuleNotFoundError_, match="known:.*'cliques'"):
        ProtocolGroup("hashchain")
