"""The simulated network: nodes, links, partitions.

A :class:`Network` connects named :class:`~repro.sim.process.SimProcess`
nodes.  Datagrams are unicast; multicast to a set of destinations is
modelled as independent unicasts (Spread itself uses unicast on the WAN
and the paper's testbed is a small switched LAN, so this is faithful for
the quantities measured).

Partitions are expressed as a set of disjoint components over node names;
a datagram whose source and destination are in different components is
silently dropped, which is exactly how an asynchronous network failure
presents to the endpoints.  Healing the partition restores full
connectivity and lets daemon membership merge the components.

One-way (asymmetric) partitions are expressed separately as *severed*
directed pairs (:meth:`Network.sever`): datagrams from a severed source
to a severed destination are dropped while the reverse direction keeps
flowing — the half-open link failure mode that stresses failure
detectors hardest.  :meth:`Network.restore` (or a full :meth:`heal`)
repairs them.

Adversarial link behaviour (duplication, corruption, bounded
reordering, delay spikes) is configured per link on
:class:`~repro.net.link.LinkModel`; the network applies it per datagram
from its deterministic RNG stream and traces every injected fault.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.errors import PartitionError, UnknownAddressError
from repro.net.corrupt import corrupt_payload
from repro.net.link import LinkModel
from repro.sim.kernel import Kernel
from repro.sim.process import SimProcess
from repro.types import PRIORITY_NETWORK

DEFAULT_DATAGRAM_SIZE = 256


class Network:
    """A latency/loss/partition-modelled datagram network."""

    def __init__(
        self,
        kernel: Kernel,
        default_link: Optional[LinkModel] = None,
    ) -> None:
        self.kernel = kernel
        self.default_link = default_link or LinkModel()
        self._nodes: Dict[str, SimProcess] = {}
        self._links: Dict[Tuple[str, str], LinkModel] = {}
        # None means fully connected; otherwise node -> component index.
        self._component_of: Optional[Dict[str, int]] = None
        # Directed (source, destination) pairs currently cut one-way.
        self._severed: Set[Tuple[str, str]] = set()
        self._rng = kernel.rng.child("network")
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.datagrams_duplicated = 0
        self.datagrams_corrupted = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0

    # -- topology -------------------------------------------------------------

    def add_node(self, node: SimProcess) -> None:
        """Register a node; its process name is its address."""
        self._nodes[node.name] = node

    def node(self, name: str) -> SimProcess:
        """Look up a node by address."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownAddressError(name) from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def set_link(self, a: str, b: str, model: LinkModel) -> None:
        """Override the link model between two nodes (symmetric)."""
        self._links[(a, b)] = model
        self._links[(b, a)] = model

    def set_default_link(self, model: LinkModel) -> None:
        """Swap the default link model for every non-overridden pair —
        how a fault schedule opens and closes an adversarial chaos
        window at run time."""
        self.default_link = model
        self.kernel.tracer.record(
            "net.link_change",
            adversarial=model.adversarial,
            loss_rate=model.loss_rate,
            corrupt_rate=model.corrupt_rate,
            duplicate_rate=model.duplicate_rate,
            reorder_rate=model.reorder_rate,
            spike_rate=model.spike_rate,
        )

    def link_between(self, a: str, b: str) -> LinkModel:
        """The link model in effect between two nodes."""
        return self._links.get((a, b), self.default_link)

    # -- partitions -------------------------------------------------------------

    def partition(self, components: Sequence[Iterable[str]]) -> None:
        """Split the network into disjoint components.

        Nodes not named in any component keep full connectivity with every
        component they were implicitly grouped with -- to avoid surprises
        we instead place all unnamed nodes into their own extra component
        together, which matches the common "cut these machines off" use.
        """
        component_of: Dict[str, int] = {}
        for index, group in enumerate(components):
            for name in group:
                if name in component_of:
                    raise PartitionError(f"node {name!r} in two components")
                component_of[name] = index
        rest = [name for name in self._nodes if name not in component_of]
        rest_index = len(components)
        for name in rest:
            component_of[name] = rest_index
        self._component_of = component_of
        self.kernel.tracer.record(
            "net.partition",
            components=[sorted(g) for g in components] + [sorted(rest)],
        )

    def heal(self) -> None:
        """Restore full connectivity (components and one-way severs)."""
        self._component_of = None
        self._severed.clear()
        self.kernel.tracer.record("net.heal")

    def sever(
        self, sources: Iterable[str], destinations: Iterable[str]
    ) -> None:
        """Cut the network one way: datagrams from any of ``sources`` to
        any of ``destinations`` are dropped; the reverse direction (and
        everything else) keeps flowing.  An asymmetric partition — the
        half-open failure mode where one side still hears the other."""
        sources = list(sources)
        destinations = list(destinations)
        if not sources or not destinations:
            raise PartitionError("sever needs non-empty sources and destinations")
        for source in sources:
            for destination in destinations:
                if source == destination:
                    raise PartitionError(
                        f"cannot sever node {source!r} from itself"
                    )
                self._severed.add((source, destination))
        self.kernel.tracer.record(
            "net.sever",
            sources=sorted(set(sources)),
            destinations=sorted(set(destinations)),
        )

    def restore(self) -> None:
        """Repair all one-way severs (components stay as they are)."""
        self._severed.clear()
        self.kernel.tracer.record("net.restore")

    def reachable(self, a: str, b: str) -> bool:
        """True when a datagram from ``a`` can currently reach ``b``.

        Directional: one-way severs block ``a -> b`` without blocking
        ``b -> a``.
        """
        if a == b:
            return True
        if (a, b) in self._severed:
            return False
        if self._component_of is None:
            return True
        return self._component_of.get(a, -1) == self._component_of.get(b, -2)

    @property
    def partitioned(self) -> bool:
        return self._component_of is not None or bool(self._severed)

    def component_members(self, name: str) -> Set[str]:
        """Names of all nodes currently reachable from ``name``."""
        return {other for other in self._nodes if self.reachable(name, other)}

    # -- datagram service ---------------------------------------------------------

    def send(
        self,
        source: str,
        destination: str,
        payload: Any,
        size: Optional[int] = None,
    ) -> None:
        """Queue one datagram for delivery (or loss) after the link delay."""
        if destination not in self._nodes:
            raise UnknownAddressError(destination)
        sender = self._nodes.get(source)
        if sender is not None and sender.stalled:
            # A stalled (live-but-silent) process transmits nothing; the
            # send replays when it resumes, as if the kernel had held
            # the process off-CPU mid-syscall.
            sender.defer_while_stalled(
                lambda: self.send(source, destination, payload, size)
            )
            return
        self.datagrams_sent += 1
        wire_size = size if size is not None else _size_of(payload)
        self.bytes_sent += wire_size
        tracer = self.kernel.tracer
        if (source, destination) in self._severed:
            self.datagrams_dropped += 1
            if tracer.enabled:
                tracer.record(
                    "net.drop_sever", source=source, destination=destination
                )
            return
        if not self.reachable(source, destination):
            self.datagrams_dropped += 1
            if tracer.enabled:
                tracer.record(
                    "net.drop_partition", source=source, destination=destination
                )
            return
        link = self.link_between(source, destination)
        if link.is_lost(self._rng):
            self.datagrams_dropped += 1
            if tracer.enabled:
                tracer.record(
                    "net.drop_loss", source=source, destination=destination
                )
            return
        if link.is_corrupted(self._rng):
            self.datagrams_corrupted += 1
            payload = corrupt_payload(payload, self._rng)
            if tracer.enabled:
                tracer.record(
                    "net.corrupt",
                    source=source,
                    destination=destination,
                    payload_kind=type(payload).__name__,
                )
        delay = link.delay_for(wire_size, self._rng) + link.extra_delay(self._rng)
        self.kernel.call_later(
            delay,
            lambda: self._deliver(source, destination, payload, wire_size),
            priority=PRIORITY_NETWORK,
            label=f"net:{source}->{destination}",
        )
        if link.is_duplicated(self._rng):
            # The duplicate rides an independent (often longer) delay,
            # so it can arrive out of order relative to later sends.
            self.datagrams_duplicated += 1
            dup_delay = link.delay_for(wire_size, self._rng) + link.extra_delay(
                self._rng
            )
            if link.reorder_window > 0:
                dup_delay += self._rng.uniform(0.0, link.reorder_window)
            if tracer.enabled:
                tracer.record(
                    "net.duplicate", source=source, destination=destination
                )
            self.kernel.call_later(
                dup_delay,
                lambda: self._deliver(source, destination, payload, wire_size),
                priority=PRIORITY_NETWORK,
                label=f"net:{source}->{destination}:dup",
            )

    def multicast(
        self,
        source: str,
        destinations: Iterable[str],
        payload: Any,
        size: Optional[int] = None,
    ) -> None:
        """Send the same payload to several destinations (skipping source)."""
        for destination in destinations:
            if destination != source:
                self.send(source, destination, payload, size)

    def _deliver(
        self, source: str, destination: str, payload: Any, wire_size: int = 0
    ) -> None:
        node = self._nodes.get(destination)
        if node is None:
            self.datagrams_dropped += 1
            return
        # A partition that formed while the datagram was in flight cuts it
        # off too; this models the switch going dark, and keeps partition
        # semantics clean (no stragglers from the other side).
        if not self.reachable(source, destination):
            self.datagrams_dropped += 1
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.record(
                    "net.drop_partition_inflight",
                    source=source,
                    destination=destination,
                )
            return
        self.datagrams_delivered += 1
        self.bytes_delivered += wire_size
        node.deliver(source, payload)


def _size_of(payload: Any) -> int:
    """Best-effort wire size estimate for a payload object."""
    size = getattr(payload, "wire_size", None)
    if callable(size):
        return int(size())
    if isinstance(size, int):
        return size
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode())
    return DEFAULT_DATAGRAM_SIZE
