"""The TGDH member context: key-tree state machine + cryptography.

One :class:`TGDHContext` lives in each group member, mirroring
:class:`~repro.cliques.context.CliquesContext` in shape (pure functions
from tokens to tokens, no I/O) while implementing the tree-based group
Diffie-Hellman protocol.

Mathematical shape
------------------
Leaves hold fresh private shares ``k`` drawn from ``[2, q-1]``; every
node ``v`` has a blinded key ``BK_v = g^{k_v} mod p``.  An internal
node's secret is the two-party DH key of its children::

    k_parent = BK_sibling ^ (k_child mod q)  mod p

so a member climbs from its leaf to the root with one exponentiation
per level, needing only the *public* blinded keys of its copath.  The
root secret is the group key; all members derive the byte-identical
integer.

Exponentiation accounting
-------------------------
Two labels cover every operation (counted on the member's
:class:`~repro.crypto.counters.ExpCounter` through the
:func:`~repro.crypto.bigint.mod_exp` choke point, so the PR-2
fixed-base tables apply to every ``g^x`` for free):

* ``blind_key`` — ``g^k`` (fixed-base: the generator's table);
* ``node_key`` — ``BK ^ k`` (variable base, one per tree level).

Costs per event, height ``h = O(log n)``:

* JOIN, sponsor:    h+1 node_key + h+1 blind_key  (refresh + path)
* JOIN, new member: h+1 node_key + 1 blind_key    (announce + path)
* LEAVE, sponsor:   h   node_key + h   blind_key
* JOIN or LEAVE, every other member: d+1 node_key, where ``d`` is the
  depth of its lowest common ancestor with the sponsor's leaf

against Cliques' / CKD's O(n) — the scalability gap the three-way
bench (``BENCH_tgdh.json``) measures.

A member keeps the secrets of its leaf-to-root path between events,
keyed by the two inputs each was computed from (the sibling's blinded
key and the child's secret).  Below that common ancestor neither input
changed, so those levels are reused, not recomputed.  Keys are inputs,
not node addresses, because a leave promotes a subtree and shifts the
addresses inside it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHParams
from repro.crypto.random_source import RandomSource, SystemSource
from repro.errors import ControllerError, TGDHError, TokenError
from repro.tgdh.tokens import TGDHJoinToken, TGDHTreeToken, TGDHUpdateToken
from repro.tgdh.tree import TGDHTree


class TGDHContext:
    """Per-member TGDH state and operations.

    Parameters mirror the Cliques/CKD contexts so the module factories
    are interchangeable; ``long_term`` and ``directory`` are accepted
    for signature compatibility (TGDH as reproduced here is the plain
    contributory protocol — member authentication runs at the secure
    session layer, §8).
    """

    def __init__(
        self,
        name: str,
        params: DHParams,
        long_term=None,
        directory=None,
        source: Optional[RandomSource] = None,
        counter: Optional[ExpCounter] = None,
    ) -> None:
        self.name = name
        self.params = params
        self.long_term = long_term
        self.directory = directory
        self.source = source if source is not None else SystemSource()
        self.counter = counter if counter is not None else ExpCounter()

        self.group: Optional[str] = None
        self.tree = TGDHTree()
        self.epoch = 0
        self._my_secret: Optional[int] = None
        self._group_secret: Optional[int] = None
        # Path secrets keyed by (sibling's blinded key, child's secret),
        # the inputs they were computed from.  Kept across agreements
        # and trimmed to the current leaf-to-root path whenever a climb
        # reaches the root.
        self._secret_cache: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def members(self) -> List[str]:
        return self.tree.members()

    @property
    def controller(self) -> Optional[str]:
        """The sponsor seat: the rightmost leaf (refresh performer)."""
        return None if self.tree.empty else self.tree.rightmost_leaf()

    @property
    def is_controller(self) -> bool:
        return not self.tree.empty and self.controller == self.name

    @property
    def has_key(self) -> bool:
        return self._group_secret is not None

    def secret(self) -> int:
        if self._group_secret is None:
            raise TGDHError(f"{self.name}: no group secret established")
        return self._group_secret

    def reset(self) -> None:
        """Drop all group key state."""
        self.group = None
        self.tree = TGDHTree()
        self.epoch = 0
        self._my_secret = None
        self._group_secret = None
        self._secret_cache = {}

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _fresh_share(self) -> int:
        return self.params.random_exponent(self.source)

    def _blind(self, secret: int) -> int:
        """``g^secret`` — fixed-base fast path applies (generator table)."""
        return self.params.exp(
            self.params.g, secret % self.params.q, self.counter, "blind_key"
        )

    def _begin_agreement(self) -> None:
        self._group_secret = None

    def _climb(self, publish_all: bool = False) -> Dict[str, int]:
        """Compute as much of the leaf-to-root key path as the available
        blinded keys allow.

        Returns the blinded keys this member newly computed and must
        publish.  In the gossip rounds exactly one member per stale node
        publishes — the rightmost leaf of its subtree — but the event
        sponsor passes ``publish_all`` so its broadcast tree carries every
        blinded key it can compute (the single-round TGDH join/leave).
        Sets the group secret when the root is reached.  A level whose
        sibling blinded key and child secret are both unchanged reuses
        its cached secret instead of exponentiating again.
        """
        if self._my_secret is None:
            raise TGDHError(f"{self.name}: no private leaf share")
        publish: Dict[str, int] = {}
        node = self.tree.leaf(self.name)
        secret = self._my_secret
        if node.blinded is None:
            node.blinded = self._blind(secret)
            publish[self.tree.node_id(node)] = node.blinded
        path: Dict[Tuple[int, int], int] = {}
        while node.parent is not None:
            parent = node.parent
            sibling = self.tree.sibling(node)
            if sibling.blinded is None:
                # Blocked: that subtree's own sponsor will publish.
                return publish
            inputs = (sibling.blinded, secret)
            cached = self._secret_cache.get(inputs)
            if cached is None:
                cached = self.params.exp(
                    sibling.blinded,
                    secret % self.params.q,
                    self.counter,
                    "node_key",
                )
                self._secret_cache[inputs] = cached
            path[inputs] = secret = cached
            if parent.blinded is None and parent.parent is not None:
                # The root's blinded key is never needed by anyone.
                if publish_all or self.tree.rightmost_leaf(parent) == self.name:
                    parent.blinded = self._blind(secret)
                    publish[self.tree.node_id(parent)] = parent.blinded
            node = parent
        self._secret_cache = path
        self._group_secret = secret
        return publish

    def _require_group(self, group: str) -> None:
        if self.group != group:
            raise TokenError(
                f"{self.name}: token for group {group!r} but context is in"
                f" {self.group!r}"
            )

    def _maybe_update(self, publish: Dict[str, int]) -> Optional[TGDHUpdateToken]:
        if not publish:
            return None
        return TGDHUpdateToken(
            group=self.group,
            sender=self.name,
            epoch=self.epoch,
            members=tuple(self.members),
            blinded=publish,
        )

    # ------------------------------------------------------------------
    # group creation and join announce
    # ------------------------------------------------------------------

    def create_first(self, group: str) -> None:
        """Become the first (and only) member: a single-leaf tree whose
        root secret is the leaf share itself."""
        if self.group is not None:
            raise TGDHError(f"{self.name}: already in group {self.group!r}")
        self.group = group
        self._my_secret = self._fresh_share()
        self.tree = TGDHTree.single(self.name)
        self._group_secret = self._my_secret
        self._secret_cache = {}
        self.epoch = 1

    def make_join_request(self, group: str) -> TGDHJoinToken:
        """Stateless member: draw a fresh leaf share and announce its
        blinded key (one ``blind_key`` exponentiation)."""
        if self.group is not None:
            raise TGDHError(
                f"{self.name}: cannot join {group!r}; already in {self.group!r}"
            )
        self._my_secret = self._fresh_share()
        return TGDHJoinToken(
            group=group, sender=self.name, blinded=self._blind(self._my_secret)
        )

    # ------------------------------------------------------------------
    # sponsor operations
    # ------------------------------------------------------------------

    def sponsor_for(
        self, departed: Sequence[str], arrived: Sequence[str]
    ) -> str:
        """The member that performs this event — a pure function of the
        current tree and the deltas, so every member elects the same
        sponsor without communicating."""
        if self.tree.empty:
            raise TGDHError(f"{self.name}: no tree to elect a sponsor from")
        plan = self.tree.clone()
        return plan.apply_event(departed, {m: None for m in arrived})

    def start_event(
        self, departed: Sequence[str], arrived_blinded: Dict[str, int]
    ) -> TGDHTreeToken:
        """Sponsor step: restructure the tree, refresh the own leaf share
        (forward/backward secrecy), recompute the path, broadcast.

        ``arrived_blinded`` maps each arriving member to the blinded key
        from its join announce.
        """
        if self.group is None:
            raise TGDHError(f"{self.name}: not in any group")
        sponsor = self.tree.apply_event(departed, dict(arrived_blinded))
        if sponsor != self.name:
            raise ControllerError(
                f"{self.name} is not the sponsor of this event ({sponsor} is)"
            )
        self._begin_agreement()
        self._my_secret = self._fresh_share()
        leaf = self.tree.leaf(self.name)
        leaf.blinded = None
        self.tree.invalidate_up(leaf)
        self._climb(publish_all=True)  # results land in the serialized tree
        self.epoch += 1
        return TGDHTreeToken(
            group=self.group,
            sender=self.name,
            epoch=self.epoch,
            members=tuple(self.members),
            tree=self.tree.serialize(),
        )

    def refresh(self) -> TGDHTreeToken:
        """Voluntary re-key by the sponsor seat (rightmost leaf): a fresh
        leaf share changes every secret on the path to the root."""
        if not self.is_controller:
            raise ControllerError(f"{self.name} is not the group sponsor")
        self._begin_agreement()
        self._my_secret = self._fresh_share()
        leaf = self.tree.leaf(self.name)
        leaf.blinded = None
        self.tree.invalidate_up(leaf)
        self._climb(publish_all=True)
        self.epoch += 1
        return TGDHTreeToken(
            group=self.group,
            sender=self.name,
            epoch=self.epoch,
            members=tuple(self.members),
            tree=self.tree.serialize(),
        )

    # ------------------------------------------------------------------
    # token processing
    # ------------------------------------------------------------------

    def process_tree(self, token: TGDHTreeToken) -> Optional[TGDHUpdateToken]:
        """Adopt the sponsor's restructured tree and climb.  Returns the
        update token of blinded keys this member must publish (if any)."""
        if self.group is None:
            # Fresh joiner / merge loser: learns its group from the tree.
            if self._my_secret is None:
                raise TokenError(
                    f"{self.name}: tree token before any join announce"
                )
            self.group = token.group
            self.epoch = token.epoch - 1
        self._require_group(token.group)
        if token.epoch != self.epoch + 1:
            raise TokenError(
                f"{self.name}: tree token epoch {token.epoch} does not follow"
                f" local epoch {self.epoch}"
            )
        tree = TGDHTree.deserialize(token.tree)
        if self.name not in tree:
            raise TokenError(f"{self.name} is not a leaf of the broadcast tree")
        self.tree = tree
        self.epoch = token.epoch
        self._begin_agreement()
        return self._maybe_update(self._climb())

    def process_update(self, token: TGDHUpdateToken) -> Optional[TGDHUpdateToken]:
        """Merge published blinded keys and resume the climb."""
        if self.group is None:
            raise TokenError(f"{self.name}: update token before any tree")
        self._require_group(token.group)
        if token.epoch != self.epoch:
            raise TokenError(
                f"{self.name}: update for epoch {token.epoch} but local epoch"
                f" is {self.epoch}"
            )
        for address, blinded in token.blinded.items():
            node = self.tree.find(address)
            if node is None:
                raise TokenError(
                    f"{self.name}: update names unknown tree node {address!r}"
                )
            if node.blinded is not None and node.blinded != blinded:
                raise TokenError(
                    f"{self.name}: conflicting blinded key for node {address!r}"
                )
            node.blinded = blinded
        if self._group_secret is not None:
            return None  # already done; nothing further to contribute
        return self._maybe_update(self._climb())
