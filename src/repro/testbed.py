"""Experiment testbeds.

Two levels, matching how the paper measures:

* :class:`ProtocolGroup` — drives the *pure* key agreement protocols in
  memory (no network), for exponentiation counting and CPU-time modeling
  (Tables 2-4, Figure 4).
* :class:`SecureTestbed` — the full simulated deployment: three daemons
  (as in the paper's setup: two machines with one member each, the third
  carrying the rest), flush layer, secure clients, and a crypto cost
  model charging virtual time per exponentiation (Figure 3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.ckd.protocol import CKDContext
from repro.cliques.context import CliquesContext
from repro.cliques.directory import KeyDirectory
from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.secure.events import SecureMembershipEvent
from repro.secure.session import CryptoCostModel, SecureClient
from repro.sim.kernel import Kernel
from repro.sim.rng import stable_seed
from repro.sim.trace import Tracer
from repro.spread.client import SpreadClient
from repro.spread.config import SpreadConfig
from repro.spread.daemon import SpreadDaemon
from repro.spread.flush import FlushClient
from repro.spread.membership import STATE_OP
from repro.tgdh.context import TGDHContext
from repro.tgdh.tokens import TGDHTreeToken


# ---------------------------------------------------------------------------
# pure protocol driver
# ---------------------------------------------------------------------------


class ProtocolGroup:
    """Runs whole key agreement operations in memory, with counters.

    ``protocol`` is "cliques", "ckd" or "tgdh".  Member names are "m0",
    "m1", ... in join order.
    """

    PROTOCOLS = ("cliques", "ckd", "tgdh")

    def __init__(
        self,
        protocol: str = "cliques",
        params: Optional[DHParams] = None,
        seed: int = 0,
    ) -> None:
        if protocol not in self.PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self.params = params if params is not None else DHParams.tiny_test()
        self.directory = KeyDirectory()
        self.contexts: Dict[str, object] = {}
        self.members: List[str] = []  # join order
        self.group_name = "bench-group"
        self._seed = seed
        self._next_index = 0

    # -- membership helpers ---------------------------------------------------

    def _make_context(self, name: str):
        source = DeterministicSource(stable_seed(self._seed, name))
        keypair = DHKeyPair.generate(self.params, source)
        self.directory.register(name, keypair.public)
        cls = {
            "cliques": CliquesContext,
            "ckd": CKDContext,
            "tgdh": TGDHContext,
        }[self.protocol]
        ctx = cls(
            name=name,
            params=self.params,
            long_term=keypair,
            directory=self.directory,
            source=source,
            counter=ExpCounter(),
        )
        self.contexts[name] = ctx
        return ctx

    def _fresh_name(self) -> str:
        name = f"m{self._next_index}"
        self._next_index += 1
        return name

    def counter_of(self, name: str) -> ExpCounter:
        return self.contexts[name].counter

    @property
    def key_controller(self) -> str:
        """The member holding the controller role (protocol-specific):
        Cliques keys the newest member, CKD the oldest, TGDH the member
        at the tree's sponsor seat (its rightmost leaf)."""
        if self.protocol == "cliques":
            return self.members[-1]
        if self.protocol == "tgdh":
            return self.contexts[self.members[0]].controller
        return self.members[0]

    # -- operations --------------------------------------------------------------

    def create(self) -> str:
        first = self._fresh_name()
        ctx = self._make_context(first)
        ctx.create_first(self.group_name)
        self.members = [first]
        return first

    def grow_to(self, size: int) -> None:
        """Sequential joins until the group has ``size`` members."""
        if not self.members:
            self.create()
        while len(self.members) < size:
            self.join()

    def _tgdh_converge(self, token: TGDHTreeToken) -> None:
        """Deliver the sponsor's broadcast (and any follow-up blinded-key
        gossip) until every member holds the root secret."""
        queue = [token]
        while queue:
            current = queue.pop(0)
            for member in self.members:
                if member == current.sender:
                    continue
                ctx = self.contexts[member]
                out = (
                    ctx.process_tree(current)
                    if isinstance(current, TGDHTreeToken)
                    else ctx.process_update(current)
                )
                if out is not None:
                    queue.append(out)

    def join(self) -> str:
        name = self._fresh_name()
        joiner = self._make_context(name)
        if self.protocol == "tgdh":
            announce = joiner.make_join_request(self.group_name)
            if not self.members:
                joiner.create_first(self.group_name)
            else:
                sponsor_name = self.contexts[self.members[0]].sponsor_for(
                    [], [name]
                )
                token = self.contexts[sponsor_name].start_event(
                    [], {name: announce.blinded}
                )
                self.members.append(name)
                self._tgdh_converge(token)
                return name
        elif self.protocol == "cliques":
            controller = self.contexts[self.members[-1]]
            upflow = controller.prep_join(name)
            downflow = joiner.process_upflow(upflow)
            for member in self.members:
                self.contexts[member].process_downflow(downflow)
        else:
            controller = self.contexts[self.members[0]]
            hello = controller.start_join(name)
            response = joiner.process_hello(hello)
            keydist = controller.process_response(response)
            for member in self.members[1:] + [name]:
                self.contexts[member].process_keydist(keydist)
        self.members.append(name)
        return name

    def leave(self, name: Optional[str] = None) -> str:
        """Remove a member (default: the key controller — the paper's
        benchmarked case for Cliques).  Returns the leaver's name."""
        leaver = name if name is not None else self.key_controller
        if self.protocol == "tgdh":
            remaining = [m for m in self.members if m != leaver]
            sponsor_name = self.contexts[remaining[0]].sponsor_for([leaver], [])
            del self.contexts[leaver]
            self.members = remaining
            token = self.contexts[sponsor_name].start_event([leaver], {})
            self._tgdh_converge(token)
            return leaver
        if self.protocol == "cliques":
            remaining = [m for m in self.members if m != leaver]
            performer = self.contexts[remaining[-1]]
            downflow = performer.leave([leaver])
            for member in remaining[:-1]:
                self.contexts[member].process_downflow(downflow)
        else:
            remaining = [m for m in self.members if m != leaver]
            if leaver == self.members[0]:
                new_controller = self.contexts[remaining[0]]
                hello = new_controller.start_takeover([leaver])
                keydist = None
                if hello is not None:
                    for member in remaining[1:]:
                        response = self.contexts[member].process_hello(hello)
                        keydist = new_controller.process_response(response)
                if keydist is not None:
                    for member in remaining[1:]:
                        self.contexts[member].process_keydist(keydist)
            else:
                controller = self.contexts[self.members[0]]
                keydist = controller.leave([leaver])
                for member in remaining[1:]:
                    self.contexts[member].process_keydist(keydist)
        del self.contexts[leaver]
        self.members = remaining
        return leaver

    def secrets_agree(self) -> bool:
        secrets = {self.contexts[m].secret() for m in self.members}
        return len(secrets) == 1


# ---------------------------------------------------------------------------
# full-stack testbed
# ---------------------------------------------------------------------------


class SecureTestbed:
    """The paper's experimental deployment, simulated.

    Three machines, each with a Spread daemon; two carry one member
    each, the third carries all remaining members (Section 6).  The
    crypto cost model charges virtual time for every serial
    exponentiation so end-to-end timings include the dominant cost.
    """

    def __init__(
        self,
        daemon_count: int = 3,
        link: Optional[LinkModel] = None,
        cost_model: Optional[CryptoCostModel] = None,
        params: Optional[DHParams] = None,
        seed: int = 42,
        config_overrides: Optional[dict] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.kernel = Kernel(seed=seed, tracer=self.tracer)
        self.network = Network(
            self.kernel, default_link=link or LinkModel.ethernet_100base_t()
        )
        names = tuple(f"d{i}" for i in range(daemon_count))
        self.config = SpreadConfig(daemons=names, **(config_overrides or {}))
        self.daemons: Dict[str, SpreadDaemon] = {}
        for name in names:
            daemon = SpreadDaemon(self.kernel, name, self.network, self.config)
            daemon.start()
            self.daemons[name] = daemon
        self.params = params if params is not None else DHParams.tiny_test()
        self.cost_model = cost_model or CryptoCostModel()
        self.directory = KeyDirectory()
        self.members: Dict[str, SecureClient] = {}
        self._seed = seed
        self.settle()

    # -- plumbing ---------------------------------------------------------------

    def run(self, duration: float) -> None:
        self.kernel.run(until=self.kernel.now + duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> None:
        self.kernel.run_until(predicate, timeout=timeout)

    def settle(self, timeout: float = 30.0) -> None:
        def converged() -> bool:
            alive = [d for d in self.daemons.values() if d.alive]
            views = {d.view for d in alive}
            return len(views) == 1 and all(
                d.engine.state == STATE_OP for d in alive
            )

        self.run_until(converged, timeout=timeout)

    # -- members ------------------------------------------------------------------

    def add_member(
        self, name: str, daemon: str, group: str = "g", module: str = "cliques"
    ) -> SecureClient:
        raw = SpreadClient(self.kernel, name, self.daemons[daemon])
        raw.connect()
        flush = FlushClient(raw, auto_flush=False)
        source = DeterministicSource(stable_seed(self._seed, name))
        keypair = DHKeyPair.generate(self.params, source)
        member = SecureClient(
            flush=flush,
            params=self.params,
            long_term=keypair,
            directory=self.directory,
            random_source=source,
            cost_model=self.cost_model,
        )
        member.publish_key()
        member.join(group, module=module)
        self.members[name] = member
        return member

    def placement(self, index: int) -> str:
        """The paper's placement: member 0 on d0, member 1 on d1, all
        further members on d2."""
        if index == 0:
            return "d0"
        if index == 1:
            return "d1"
        return "d2"

    def keyed(self, names: List[str], group: str = "g") -> bool:
        return all(self.members[n].has_key(group) for n in names)

    def secure_view_of(self, name: str, group: str = "g") -> set:
        events = [
            e for e in self.members[name].queue
            if isinstance(e, SecureMembershipEvent) and str(e.group) == group
        ]
        return {str(m) for m in events[-1].members} if events else set()

    def wait_secure_view(
        self, names: List[str], group: str = "g", timeout: float = 120.0
    ) -> None:
        expected = {str(self.members[n].pid) for n in names}
        self.run_until(
            lambda: all(
                self.secure_view_of(n, group) == expected for n in names
            ),
            timeout=timeout,
        )

    # -- experiment primitives -------------------------------------------------------

    def grow_group(self, size: int, group: str = "g", module: str = "cliques") -> List[str]:
        """Build an n-member secure group with the paper's placement."""
        names = []
        for index in range(size):
            name = f"m{index}"
            self.add_member(name, self.placement(index), group, module)
            names.append(name)
            self.wait_secure_view(names, group)
        return names

    def timed_join(self, names: List[str], group: str = "g",
                   module: str = "cliques") -> float:
        """Virtual seconds from a join request until every member holds
        the confirmed new key."""
        index = len(names)
        name = f"m{index}"
        start = self.kernel.now
        self.add_member(name, self.placement(index), group, module)
        names.append(name)
        self.wait_secure_view(names, group)
        return self.kernel.now - start

    def timed_leave(self, names: List[str], group: str = "g") -> float:
        """Virtual seconds from a leave request until every remaining
        member holds the confirmed new key.  Removes the newest member
        (for Cliques this is the controller — the paper's case)."""
        leaver = names.pop()
        start = self.kernel.now
        self.members[leaver].leave(group)
        self.wait_secure_view(names, group)
        duration = self.kernel.now - start
        # Tear the departed client down fully (outside the timed window)
        # so the name can be reused by later joins.
        self.members[leaver].disconnect()
        del self.members[leaver]
        self.run(0.01)
        return duration
