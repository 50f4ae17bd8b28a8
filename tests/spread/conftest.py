"""Shared fixtures for group communication tests: a small cluster."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.net.link import LinkModel
from repro.net.network import Network
from repro.sim.kernel import Kernel
from repro.sim.trace import Tracer
from repro.spread.client import SpreadClient
from repro.spread.config import SpreadConfig
from repro.spread.daemon import SpreadDaemon
from repro.spread.membership import STATE_OP


class Cluster:
    """A kernel + network + daemons test harness."""

    def __init__(self, daemon_count: int = 3, seed: int = 1, **config_overrides):
        self.tracer = Tracer()
        self.kernel = Kernel(seed=seed, tracer=self.tracer)
        self.network = Network(self.kernel, default_link=LinkModel.ethernet_100base_t())
        names = tuple(f"d{i}" for i in range(daemon_count))
        self.config = SpreadConfig(daemons=names, **config_overrides)
        self.daemons: Dict[str, SpreadDaemon] = {}
        for name in names:
            daemon = SpreadDaemon(self.kernel, name, self.network, self.config)
            daemon.start()
            self.daemons[name] = daemon
        self.clients: Dict[str, SpreadClient] = {}

    def run(self, duration: float) -> None:
        self.kernel.run(until=self.kernel.now + duration)

    def run_until(self, predicate, timeout: float = 10.0) -> None:
        self.kernel.run_until(predicate, timeout=timeout)

    # -- daemon state -------------------------------------------------------

    def alive_daemons(self) -> List[SpreadDaemon]:
        return [d for d in self.daemons.values() if d.alive]

    def converged(self, names=None) -> bool:
        """All (named) alive daemons share one view and are operational."""
        daemons = (
            [self.daemons[n] for n in names] if names else self.alive_daemons()
        )
        daemons = [d for d in daemons if d.alive]
        if not daemons:
            return True
        views = {d.view for d in daemons}
        if len(views) != 1:
            return False
        members = set(daemons[0].view_members)
        expected = {d.name for d in daemons}
        return members == expected and all(
            d.engine.state == STATE_OP for d in daemons
        )

    def settle(self, timeout: float = 10.0) -> None:
        """Run until all alive daemons converge into one view."""
        self.run_until(lambda: self.converged(), timeout=timeout)

    def settle_components(self, *components, timeout: float = 10.0) -> None:
        """Run until each named component converges separately."""
        self.run_until(
            lambda: all(self.converged(names) for names in components),
            timeout=timeout,
        )

    # -- clients ---------------------------------------------------------------

    def client(self, private_name: str, daemon_name: str) -> SpreadClient:
        client = SpreadClient(self.kernel, private_name, self.daemons[daemon_name])
        client.connect()
        self.clients[private_name] = client
        return client


class Lockstep:
    """Reference-model harness for an ordering engine's garbage
    collection: every member runs the trimming pipeline and an untrimmed
    reference (the same class with ``_trim`` stubbed) fed the same
    inputs.  One lossy, reordering, duplicating "network" carries the
    trimming pipelines' output; the reference's must match it except for
    retransmissions ``check_redundant`` accepts as needed by nobody.

    Subclasses provide ``build(reference, name, deliver, send)`` and
    ``check_redundant(name, destination, message)``.
    """

    def __init__(self, size):
        self.names = tuple("abcd"[:size])
        self.wire = []  # in-flight (source, destination, payload)
        self.real, self.ref = {}, {}
        self.real_out = {n: [] for n in self.names}
        self.ref_out = {n: [] for n in self.names}
        self.real_got = {n: [] for n in self.names}
        self.ref_got = {n: [] for n in self.names}
        for n in self.names:
            self.real[n] = self.build(
                False, n, self.real_got[n].append,
                lambda d, p, n=n: self.real_out[n].append((d, p)),
            )
            self.ref[n] = self.build(
                True, n, self.ref_got[n].append,
                lambda d, p, n=n: self.ref_out[n].append((d, p)),
            )

    def step(self, name, call):
        """Apply one input to both of ``name``'s pipelines, compare what
        they did, and put what the trimming one sent on the wire."""
        call(self.real[name])
        call(self.ref[name])
        assert self.real_got[name] == self.ref_got[name]
        sent, reference = self.real_out[name], self.ref_out[name]
        extra = list(reference)
        for item in sent:
            extra.remove(item)  # everything we sent, the reference sent
        for destination, message in extra:
            self.check_redundant(name, destination, message)
        for destination, payload in sent:
            for target in self.names if destination is None else (destination,):
                if target != name:
                    self.wire.append((name, target, payload))
        sent.clear()
        reference.clear()

    def check_cuts(self):
        for n in self.names:
            assert self.real[n].cut() == self.ref[n].cut()

    def flush_together(self, key):
        """Everyone moves to the next view on the union of the cuts
        (ordered by ``key``); both worlds must deliver the same."""
        union = {}
        for pipeline in self.real.values():
            union.update((key(m), m) for m in pipeline.cut()[0])
        complement = [union[k] for k in sorted(union)]
        for n in self.names:
            self.real[n].flush_with(complement, self.names)
            self.ref[n].flush_with(complement, self.names)
            assert self.real_got[n] == self.ref_got[n]


@pytest.fixture
def cluster():
    c = Cluster()
    c.settle()
    return c


@pytest.fixture
def cluster5():
    c = Cluster(daemon_count=5)
    c.settle()
    return c
