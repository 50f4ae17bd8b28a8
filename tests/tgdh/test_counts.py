"""TGDH exponentiation counts: the O(log n) claim, counter-verified.

The tree stays complete under sequential shallowest-leaf joins, so for a
group of size ``n`` the height is exactly ``h = ceil(log2 n)`` and the
measured per-member serial costs pin to closed forms:

* JOIN  — sponsor ``2h`` (h node keys + h blinded keys), joiner ``h+1``
  (announce + climb);
* LEAVE — sponsor ``2(h-1)``;
* either event, every other member — ``d+1`` node keys and nothing
  else, where ``d`` is the depth of its lowest common ancestor with the
  sponsor's leaf: the levels below that ancestor kept both their inputs
  (sibling blinded key, child secret), so their secrets are reused.

Contrast: a Cliques join costs the controller ``n+1`` and the joiner
``2n-1`` (Table 2); the crossover is already at n=8.  These tests are
the goldens behind ``BENCH_tgdh.json``.
"""

import math
import os

import pytest

from tests.tgdh.conftest import TGDHTestGroup

SIZES = [4, 8, 16, 32, 64]


def grown(n: int) -> TGDHTestGroup:
    group = TGDHTestGroup()
    group.grow_to(n)
    return group


def windows(group: TGDHTestGroup, exclude=()):
    managers = {
        name: ctx.counter.window()
        for name, ctx in group.contexts.items()
        if name not in set(exclude)
    }
    return managers, {name: cm.__enter__() for name, cm in managers.items()}


def close(managers):
    for manager in managers.values():
        manager.__exit__(None, None, None)


# -- join ---------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_join_sponsor_cost_is_2_log_n(n):
    group = grown(n - 1)
    managers, wins = windows(group)
    sponsor = group.join("zzz")
    close(managers)
    h = math.ceil(math.log2(n))
    assert wins[sponsor].total == 2 * h
    assert wins[sponsor].get("node_key") == h
    assert wins[sponsor].get("blind_key") == h


@pytest.mark.parametrize("n", SIZES)
def test_join_new_member_cost_is_log_n_plus_1(n):
    group = grown(n - 1)
    group.join("zzz")
    h = math.ceil(math.log2(n))
    counter = group.contexts["zzz"].counter
    assert counter.total == h + 1
    assert counter.get("blind_key") == 1
    assert counter.get("node_key") == h


@pytest.mark.parametrize("n", SIZES)
def test_join_no_member_exceeds_2_log_n(n):
    group = grown(n - 1)
    managers, wins = windows(group)
    group.join("zzz")
    close(managers)
    h = math.ceil(math.log2(n))
    assert max(w.total for w in wins.values()) <= 2 * h


# -- leave --------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_leave_sponsor_cost_is_2_log_n_minus_2(n):
    group = grown(n)
    managers, wins = windows(group, exclude=["m001"])
    sponsor = group.leave("m001")
    close(managers)
    h = math.ceil(math.log2(n))
    assert wins[sponsor].total == 2 * (h - 1)


@pytest.mark.parametrize("n", SIZES)
def test_leave_no_member_exceeds_2_log_n(n):
    group = grown(n)
    managers, wins = windows(group, exclude=["m001"])
    group.leave("m001")
    close(managers)
    h = math.ceil(math.log2(n))
    assert max(w.total for w in wins.values()) <= 2 * h


# -- every other member --------------------------------------------------------


def lca_depth(tree, a: str, b: str) -> int:
    """Depth of the lowest common ancestor of two leaves: node ids are
    root-to-node bit paths, so it is their longest common prefix."""
    return len(os.path.commonprefix(
        [tree.node_id(tree.leaf(a)), tree.node_id(tree.leaf(b))]
    ))


def promoting_leaver(group: TGDHTestGroup) -> str:
    """A member whose sibling is a subtree, so its leave promotes
    several leaves and shifts their node addresses."""
    tree = group.tree_of()
    return next(
        name for name in group.members
        if not tree.sibling(tree.leaf(name)).is_leaf
    )


@pytest.mark.parametrize("event", ["join", "leave", "leave-promoting"])
@pytest.mark.parametrize("n", SIZES)
def test_other_members_pay_only_the_path_above_the_sponsor(n, event):
    group = grown(n - 1 if event == "join" else n)
    leaver = "m001"
    if event == "leave-promoting":
        group.leave(leaver)  # now some leaf's sibling is a subtree
        leaver = promoting_leaver(group)
    newcomer_or_leaver = "zzz" if event == "join" else leaver
    managers, wins = windows(group, exclude=[newcomer_or_leaver])
    sponsor = group.join("zzz") if event == "join" else group.leave(leaver)
    close(managers)
    tree = group.tree_of()
    others = [name for name in wins if name != sponsor]
    assert others
    for name in others:
        expected = lca_depth(tree, name, sponsor) + 1
        assert wins[name].get("node_key") == expected, name
        assert wins[name].total == expected, name


# -- the scalability claim ----------------------------------------------------


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_tgdh_beats_cliques_linear_join_cost(n):
    """The paper-level claim: from n=8 on, the worst-paid TGDH member
    does strictly less serial work than the Cliques join controller
    (n+1, Table 2) — and the gap widens with n."""
    group = grown(n - 1)
    managers, wins = windows(group)
    group.join("zzz")
    close(managers)
    worst = max(
        max(w.total for w in wins.values()),
        group.contexts["zzz"].counter.total,
    )
    assert worst < n + 1


def test_join_cost_growth_is_logarithmic_not_linear():
    """Doubling n adds a constant (2 exps) to the sponsor cost instead
    of doubling it."""
    costs = {}
    for n in SIZES:
        group = grown(n - 1)
        managers, wins = windows(group)
        sponsor = group.join("zzz")
        close(managers)
        costs[n] = wins[sponsor].total
    deltas = [costs[b] - costs[a] for a, b in zip(SIZES, SIZES[1:])]
    assert all(delta == 2 for delta in deltas), costs
