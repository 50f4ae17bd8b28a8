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

import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cliques.directory import KeyDirectory
from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.errors import KeyAgreementError
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.secure.events import KeyOperation, SecureMembershipEvent
from repro.secure.handlers.base import KeyAgreementModule, ViewChange
from repro.secure.policy import default_registry
from repro.secure.session import CryptoCostModel, SecureClient
from repro.sim.kernel import Kernel
from repro.sim.rng import stable_seed
from repro.sim.trace import Tracer
from repro.spread.client import SpreadClient
from repro.spread.config import SpreadConfig
from repro.spread.daemon import SpreadDaemon
from repro.spread.events import MembershipEvent
from repro.spread.flush import FlushClient
from repro.spread.membership import STATE_OP


# ---------------------------------------------------------------------------
# pure protocol driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operation:
    """What one membership operation cost — the one rule every table,
    figure and BENCH file shares.

    ``serial`` are the members whose handler emitted a message during
    the operation, in order of first emission: they sit on the critical
    path (everyone else only absorbs a broadcast, in parallel across
    machines), and ``serial[0]`` started the protocol run.  ``windows``
    holds every member's exponentiation-counter window over the
    operation; ``seconds`` is the wall time spent inside the serial
    members' handler calls.
    """

    joined: Tuple[str, ...]
    left: Tuple[str, ...]
    serial: Tuple[str, ...]
    windows: Dict[str, ExpCounter]
    seconds: float

    @property
    def counts(self) -> Dict[str, int]:
        """The serial members' merged per-label counter window."""
        merged = ExpCounter()
        for name in self.serial:
            merged.merge(self.windows[name])
        return merged.snapshot()

    @property
    def total(self) -> int:
        """Serial exponentiations: the sum of :attr:`counts`."""
        return sum(self.windows[name].total for name in self.serial)


class ProtocolGroup:
    """Runs whole key agreement operations in memory, with counters.

    A FIFO pump over the production modules: every member is a
    :class:`~repro.secure.handlers.base.KeyAgreementModule` built by the
    registry exactly as :meth:`SecureClient.join` builds it, handed the
    :class:`ViewChange` the session would hand it, with its
    :class:`OutMessage` results routed (multicast to the view, unicast
    to ``target``) until nobody has anything left to say.  ``protocol``
    is any registered module name; members are "m0", "m1", ... in join
    order.
    """

    def __init__(
        self,
        protocol: str = "cliques",
        params: Optional[DHParams] = None,
        seed: int = 0,
    ) -> None:
        self.registry = default_registry()
        if protocol not in self.registry.names():
            self.registry.create(protocol)  # raises, listing the known names
        self.protocol = protocol
        self.params = params if params is not None else DHParams.tiny_test()
        self.directory = KeyDirectory()
        self.modules: Dict[str, KeyAgreementModule] = {}
        self.counters: Dict[str, ExpCounter] = {}
        self.members: List[str] = []  # join order
        self.group_name = "bench-group"
        self._seed = seed
        self._next_index = 0

    # -- membership helpers ---------------------------------------------------

    def _add_member(self) -> str:
        name = f"m{self._next_index}"
        self._next_index += 1
        source = DeterministicSource(stable_seed(self._seed, name))
        keypair = DHKeyPair.generate(self.params, source)
        self.directory.register(name, keypair.public)
        self.counters[name] = ExpCounter()
        self.modules[name] = self.registry.create(
            self.protocol,
            member=name,
            params=self.params,
            long_term=keypair,
            directory=self.directory,
            source=source,
            counter=self.counters[name],
        )
        self.members.append(name)
        return name

    def counter_of(self, name: str) -> ExpCounter:
        return self.counters[name]

    @property
    def key_controller(self) -> str:
        """The member whose module holds the controller role."""
        return next(m for m in self.members if self.modules[m].is_controller)

    def secret(self) -> int:
        """The one group secret every member holds."""
        unready = [m for m in self.members if not self.modules[m].ready]
        secrets = {self.modules[m].secret() for m in self.members if m not in unready}
        if unready or len(secrets) != 1:
            raise KeyAgreementError(
                f"no agreed key: {unready} not ready, {len(secrets)} secrets held"
            )
        return secrets.pop()

    # -- the pump ----------------------------------------------------------------

    def _pump(
        self,
        operation: KeyOperation,
        departing: Tuple[str, ...] = (),
        arriving: int = 0,
        entry: str = "on_view",
    ) -> Operation:
        """Apply the membership change, hand every member of the new view
        its :class:`ViewChange` (through ``on_view``, or ``on_restart``),
        and deliver tokens until quiescent."""
        previous = frozenset(self.members)
        for name in departing:
            self.members.remove(name)
            del self.modules[name], self.counters[name]
        joined = tuple(self._add_member() for _ in range(arriving))
        spent = dict.fromkeys(self.members, 0.0)
        serial: List[str] = []
        queue = deque()

        def call(name: str, handler, *args) -> None:
            start = time.perf_counter()
            out = handler(*args)
            spent[name] += time.perf_counter() - start
            if out and name not in serial:
                serial.append(name)
            queue.extend((name, message) for message in out)

        view = dict(
            group=self.group_name,
            members=tuple(sorted(self.members)),
            joined=frozenset(joined),
            left=frozenset(departing),
            operation=operation,
        )
        with ExitStack() as stack:
            windows = {
                name: stack.enter_context(self.counters[name].window())
                for name in self.members
            }
            for name in self.members:
                mine = frozenset() if name in joined else previous
                call(
                    name,
                    getattr(self.modules[name], entry),
                    ViewChange(me=name, previous_members=mine, **view),
                )
            while queue:
                sender, message = queue.popleft()
                for name in (
                    self.members if message.is_multicast else (message.target,)
                ):
                    call(name, self.modules[name].on_token, sender, message.token)
        self.secret()  # quiescent: everyone must be ready, on one secret
        return Operation(
            joined=joined,
            left=tuple(departing),
            serial=tuple(serial),
            windows=windows,
            seconds=sum(spent[name] for name in serial),
        )

    # -- operations --------------------------------------------------------------

    def join(self) -> Operation:
        return self._pump(KeyOperation.JOIN, arriving=1)

    def grow_to(self, size: int) -> None:
        """Sequential joins until the group has ``size`` members."""
        while len(self.members) < size:
            self.join()

    def leave(self, name: Optional[str] = None) -> Operation:
        """Remove one member (default: the key controller — the paper's
        benchmarked case for Cliques)."""
        return self.partition(name or self.key_controller)

    def merge(self, count: int = 1) -> Operation:
        """``count`` fresh members arrive in one network event.  (As in a
        session, the view's smallest name must belong to a member that
        holds key state — the modules' merge anchor.)"""
        return self._pump(KeyOperation.MERGE, arriving=count)

    def partition(self, *names: str, merge: int = 0) -> Operation:
        """The named members drop out in one network event (Table 1: a
        leave), with ``merge`` new members arriving in the same view
        (Table 1: leave then merge)."""
        operation = KeyOperation.LEAVE_THEN_MERGE if merge else KeyOperation.LEAVE
        return self._pump(operation, departing=names, arriving=merge)

    def restart(self) -> Operation:
        """Cascade recovery: re-key the current view from scratch."""
        return self._pump(KeyOperation.NONE, entry="on_restart")


def measure(protocol: str, operation: str, n: int, **group_args) -> Operation:
    """One operation on a fresh group at the paper's size convention
    (``n`` is the size a "join" ends at and a leave starts at):
    "controller_leave" removes the key controller, "leave" the newest
    member that is not."""
    group = ProtocolGroup(protocol, **group_args)
    if operation == "join":
        group.grow_to(n - 1)
        return group.join()
    group.grow_to(n)
    controller = group.key_controller
    if operation == "controller_leave":
        return group.leave(controller)
    return group.leave(next(m for m in reversed(group.members) if m != controller))


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

    def plain_join(
        self, clients: list, *names: str, group: str = "g", flush: bool = True
    ) -> Tuple[float, int]:
        """Members with no security join ``group``: each of ``names``
        connects at the paper's placement (the next index of
        ``clients``), as an auto-flushing :class:`FlushClient` or, with
        ``flush=False``, a raw (EVS) :class:`SpreadClient`, and joins;
        then run until every client in ``clients`` (the new ones
        appended) sees a view of ``len(clients)`` members.  Returns the
        virtual seconds and datagrams from the first join request."""
        start, sent = self.kernel.now, self.network.datagrams_sent
        for name in names:
            raw = SpreadClient(
                self.kernel, name, self.daemons[self.placement(len(clients))]
            )
            raw.connect()
            client = FlushClient(raw, auto_flush=True) if flush else raw
            clients.append(client)
            client.join(group)
        self.wait_plain_view(clients, group)
        return self.kernel.now - start, self.network.datagrams_sent - sent

    def wait_plain_view(
        self, clients: list, group: str = "g", timeout: float = 60.0
    ) -> None:
        """Run until every client's last view of ``group`` has
        ``len(clients)`` members."""

        def size(client) -> int:
            views = [
                e for e in client.queue
                if isinstance(e, MembershipEvent) and str(e.group) == group
            ]
            return len(views[-1].members) if views else 0

        self.run_until(
            lambda: all(size(c) == len(clients) for c in clients), timeout=timeout
        )

    # -- experiment primitives -------------------------------------------------------

    def grow_group(self, size: int, group: str = "g", module: str = "cliques") -> List[str]:
        """Build an n-member secure group with the paper's placement."""
        names: List[str] = []
        for __ in range(size):
            self.timed_join(names, group, module)
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
