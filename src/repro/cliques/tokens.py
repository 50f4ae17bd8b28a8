"""Cliques protocol tokens (the messages the protocol exchanges).

Tokens are plain value objects; the secure layer serializes them into
group-communication messages.  Every token carries the group name, the
sender, the *epoch* (how many key agreements this group has completed —
guards against stale tokens after cascaded events) and the member list
the sender believes is current.

Entry values are "authenticated partial keys": ``p_i ^ prod(K_i,c)`` where
``p_i = alpha^(product of all shares / N_i)`` and each ``K_i,c`` is the
long-term pairwise Diffie-Hellman key between member ``i`` and a
controller ``c`` that signed the value into the group.  The ``auth_tags``
set records which controllers' ``K`` factors are folded in, so a member
can strip them all with a single exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple


@dataclass(frozen=True)
class AuthenticatedEntry:
    """A partial key with the set of long-term-key factors folded in."""

    value: int
    auth_tags: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class _BaseToken:
    group: str
    sender: str
    epoch: int
    members: Tuple[str, ...]

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes (for the network model)."""
        return 64 + 64 * max(1, len(self.members))


@dataclass(frozen=True)
class UpflowToken(_BaseToken):
    """JOIN step 1: controller -> joining member.

    ``entries`` maps each *existing* member to its (possibly
    authenticated) partial key raised to the controller's fresh factor;
    ``full_value`` is ``alpha^(product of existing shares, refreshed)``
    from which the joiner computes the new group secret.
    """

    entries: Dict[str, AuthenticatedEntry] = field(default_factory=dict)
    full_value: int = 0

    def wire_size(self) -> int:
        return 64 + 80 * (len(self.entries) + 1)


@dataclass(frozen=True)
class DownflowToken(_BaseToken):
    """JOIN step 2 / LEAVE step 1 / MERGE step 5: broadcast of the new
    authenticated partial keys, one per member (except the sender).

    On receipt, member ``i`` computes the group secret as
    ``entries[i] ^ (N_i * inverse(prod K))``.
    """

    entries: Dict[str, AuthenticatedEntry] = field(default_factory=dict)
    operation: str = "join"  # "join" | "leave" | "merge" | "refresh"

    def wire_size(self) -> int:
        return 64 + 80 * max(1, len(self.entries))


@dataclass(frozen=True)
class MergeChainToken(_BaseToken):
    """MERGE steps 1-2: the partial secret travelling down the chain of
    new members; each appends its share and forwards."""

    value: int = 0
    chain: Tuple[str, ...] = ()  # merging members, in chain order
    position: int = 0  # index of the next chain member to process

    def wire_size(self) -> int:
        return 64 + 64 + 16 * len(self.chain)


@dataclass(frozen=True)
class MergeCollectToken(_BaseToken):
    """MERGE step 3: the last new member broadcasts the partial secret;
    every other member factors out its share and responds."""

    value: int = 0

    def wire_size(self) -> int:
        return 128


@dataclass(frozen=True)
class MergeResponseToken(_BaseToken):
    """MERGE step 4: member -> new controller, the partial secret with the
    responder's share factored out."""

    value: int = 0
    responder: str = ""

    def wire_size(self) -> int:
        return 128
