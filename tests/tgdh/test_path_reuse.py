"""A member reuses a path secret only when both of its inputs — the
sibling's blinded key and the child's secret — are unchanged.  These
tests check that reuse never serves a stale key and never keeps a key
the member no longer needs.

The oracle knows nothing of the contexts' caches or the tree's blinded
keys: it rebuilds every node secret from the final tree's shape and the
members' leaf shares with plain ``pow``.
"""

import random
from typing import Dict, Tuple

import pytest

from repro.tgdh.tree import TGDHNode

from tests.tgdh.conftest import TGDHTestGroup


def oracle_secrets(group: TGDHTestGroup) -> Dict[int, int]:
    """Every node's secret by ``id(node)`` in the first member's tree."""
    p, q, g = group.params.p, group.params.q, group.params.g
    secrets: Dict[int, int] = {}

    def walk(node: TGDHNode) -> int:
        if node.is_leaf:
            secret = group.contexts[node.member]._my_secret
        else:
            left, right = walk(node.left), walk(node.right)
            secret = pow(pow(g, right % q, p), left % q, p)
        secrets[id(node)] = secret
        return secret

    walk(group.tree_of().root)
    return secrets


def path_memo(group: TGDHTestGroup, name: str) -> Dict[Tuple[int, int], int]:
    """What ``name`` should hold once it has the key: one entry per
    ancestor, keyed by that level's (sibling blinded key, child secret)."""
    p, q, g = group.params.p, group.params.q, group.params.g
    secrets = oracle_secrets(group)
    tree = group.tree_of()
    node = tree.leaf(name)
    memo = {}
    while node.parent is not None:
        sibling = tree.sibling(node)
        blinded = pow(g, secrets[id(sibling)] % q, p)
        memo[(blinded, secrets[id(node)])] = secrets[id(node.parent)]
        node = node.parent
    return memo


def check(group: TGDHTestGroup) -> None:
    secrets = oracle_secrets(group)
    p, q, g = group.params.p, group.params.q, group.params.g
    root = group.tree_of().root
    for name, ctx in group.contexts.items():
        assert ctx.secret() == secrets[id(root)], name
    stack = [root]
    while stack:  # every published blinded key matches its secret
        node = stack.pop()
        if node.blinded is not None:
            assert node.blinded == pow(g, secrets[id(node)] % q, p)
        if not node.is_leaf:
            stack += [node.left, node.right]


def random_history(seed: int, events: int = 24):
    """Yield ``(group, kind)`` after each of a seeded random sequence of
    joins, leaves, batch merges, multi-leaves, compound events and
    refreshes.  Names are never reused."""
    rng = random.Random(seed)
    group = TGDHTestGroup(seed=seed)
    fresh = iter(f"x{i:03d}" for i in range(1000))
    group.create(next(fresh))
    for _ in range(rng.randint(1, 6)):
        group.join(next(fresh))
    for _ in range(events):
        n = len(group.members)
        kind = rng.choice(["join", "leave", "merge", "partition", "compound",
                           "refresh"])
        if kind in ("leave", "partition", "compound") and n < 3:
            kind = "join"
        departed = []
        if kind in ("leave", "partition", "compound"):
            count = 1 if kind == "leave" else rng.randint(1, min(3, n - 1))
            departed = rng.sample(group.members, count)
        arrived = []
        if kind in ("join", "merge", "compound"):
            count = 1 if kind == "join" else rng.randint(1, 3)
            arrived = [next(fresh) for _ in range(count)]
        if kind == "refresh":
            group.refresh()
        else:
            group.event(departed=departed, arrived=arrived)
        yield group, kind


@pytest.mark.parametrize("seed", range(12))
def test_every_member_holds_the_oracle_root_after_every_event(seed):
    kinds = set()
    for group, kind in random_history(seed):
        check(group)
        kinds.add(kind)
    assert len(kinds) >= 4, kinds


@pytest.mark.parametrize("seed", range(4))
def test_a_member_with_the_key_holds_only_its_path_secrets(seed):
    for group, _ in random_history(seed):
        for name, ctx in group.contexts.items():
            assert ctx._secret_cache == path_memo(group, name), name


def test_reset_drops_the_path_secrets():
    group = TGDHTestGroup()
    group.grow_to(5)
    ctx = group.contexts["m001"]
    assert ctx._secret_cache
    ctx.reset()
    assert ctx._secret_cache == {}
