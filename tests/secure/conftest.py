"""Full-stack harness: secure clients over flush/daemon/network/kernel."""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.cliques.directory import KeyDirectory
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.secure.dataprotect import SealedMessage
from repro.secure.events import SecureDataEvent, SecureMembershipEvent
from repro.secure.session import CryptoCostModel, SecureClient
from repro.spread.flush import FlushClient
from repro.sim.rng import stable_seed

from tests.spread.conftest import Cluster


class SecureHarness:
    """A cluster plus secure members sharing one key directory."""

    def __init__(
        self,
        daemon_count: int = 3,
        seed: int = 11,
        params: Optional[DHParams] = None,
        cost_model: Optional[CryptoCostModel] = None,
    ):
        self.cluster = Cluster(daemon_count=daemon_count, seed=seed)
        self.cluster.settle()
        self.params = params if params is not None else DHParams.tiny_test()
        self.directory = KeyDirectory()
        self.members: Dict[str, SecureClient] = {}
        self.cost_model = cost_model
        self._seed = seed

    @property
    def kernel(self):
        return self.cluster.kernel

    @property
    def network(self):
        return self.cluster.network

    def member(self, name: str, daemon: str) -> SecureClient:
        raw = self.cluster.client(name, daemon)
        flush = FlushClient(raw, auto_flush=False)
        source = DeterministicSource(stable_seed(self._seed, name))
        keypair = DHKeyPair.generate(self.params, source)
        secure = SecureClient(
            flush=flush,
            params=self.params,
            long_term=keypair,
            directory=self.directory,
            random_source=source,
            cost_model=self.cost_model,
        )
        secure.publish_key()
        self.members[name] = secure
        return secure

    # -- predicates -----------------------------------------------------------

    def keyed(self, names: List[str], group: str = "g") -> bool:
        return all(self.members[n].has_key(group) for n in names)

    def same_key(self, names: List[str], group: str = "g") -> bool:
        fingerprints = set()
        for name in names:
            session = self.members[name].sessions.get(group)
            if session is None or not session.has_key:
                return False
            fingerprints.add(session._session_keys.fingerprint())
        return len(fingerprints) == 1

    def secure_members_of(self, name: str, group: str = "g") -> set:
        events = [
            e for e in self.members[name].queue
            if isinstance(e, SecureMembershipEvent) and str(e.group) == group
        ]
        if not events:
            return set()
        return {str(m) for m in events[-1].members}

    def payloads_of(self, name: str, group: str = "g") -> List[bytes]:
        return [
            e.payload for e in self.members[name].queue
            if isinstance(e, SecureDataEvent) and str(e.group) == group
        ]

    def run(self, duration: float) -> None:
        self.cluster.run(duration)

    def run_until(self, predicate, timeout: float = 20.0) -> None:
        self.cluster.run_until(predicate, timeout=timeout)

    def wait_view(self, names: List[str], group: str = "g", timeout: float = 20.0):
        """Wait until all named members have a confirmed secure view
        containing exactly those members, with equal keys."""
        expected = {str(self.members[n].pid) for n in names}

        def done():
            return all(
                self.secure_members_of(n, group) == expected for n in names
            ) and self.same_key(names, group)

        self.run_until(done, timeout=timeout)


def hand_up(member: SecureClient, *events) -> None:
    """Deliver ``events`` to ``member`` as its flush layer does."""
    for event in events:
        member.flush._emit(event)


def wire_tap(member: SecureClient) -> List[SealedMessage]:
    """Every sealed message that reaches ``member``'s Spread connection
    from now on, in arrival order: an ``on_event`` tap below the flush
    layer, where an attacker sniffing the wire sees the traffic."""
    sniffed: List[SealedMessage] = []

    def tap(event) -> None:
        inner = getattr(getattr(event, "payload", None), "payload", None)
        if isinstance(inner, SealedMessage):
            sniffed.append(inner)

    member.flush.client.on_event(tap)
    return sniffed


@pytest.fixture
def harness():
    return SecureHarness()
