"""Daemon-model security: one key for the whole daemon group.

The paper contrasts two architectures (§5): the *client model* (keys per
application group, implemented in :mod:`repro.secure.session`) and the
*daemon model*, where the daemons themselves share a single group key
and seal **all** inter-daemon data traffic with it.  Its advantage is
cost: daemon views change far more rarely than application group
memberships, so "the number of key agreements occurring in the system
as a whole would be drastically reduced"; its drawback is that one
compromised daemon key exposes every group until the daemons re-key.
The paper leaves the daemon integration as future work (§8); this
module implements it on the daemon's one extension hook,
``SpreadDaemon.security`` (contract in :mod:`repro.spread.daemon`).

Protocol (per installed daemon view): the smallest-named daemon of the
view generates a fresh daemon-group secret and distributes it to each
member over a pairwise channel keyed by their long-term Diffie-Hellman
keys — idempotent per view, resent on a timer until acknowledged, so it
tolerates message loss and crashes (a failed controller simply means a
new view, which restarts the distribution).  Data messages sent while
the view's key is pending are queued and sealed on arrival of the key.
The long-term pairwise secret is computed once per peer: a re-key costs
the controller no exponentiation after the first.

Membership control traffic (hellos, gather/propose/sync/install) stays
in the clear by default; with ``seal_control=True`` it is additionally
sealed under *static* pairwise channels derived from the daemons'
long-term keys — channels that exist across views and partitions, so
the membership protocol itself can run confidentially even between
components that share no current view.  That is the "security of the
membership change events themselves" the paper projects for the daemon
integration (§8).

Sealed inner messages are transport wire frames
(:func:`~repro.transport.wire.encode_frame` /
:func:`~repro.transport.wire.decode_frame`): this layer has no codec of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cliques.directory import KeyDirectory
from repro.crypto.bigint import int_to_bytes
from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.kdf import derive_keys
from repro.crypto.random_source import (
    DeterministicSource,
    RandomSource,
    SystemSource,
)
from repro.errors import ReproError
from repro.secure.dataprotect import DataProtector, SealedMessage
from repro.sim.rng import stable_seed
from repro.spread.messages import DataMessage, Packed
from repro.transport.wire import decode_frame, encode_frame
from repro.types import ViewId


@dataclass(frozen=True)
class DaemonKeyOffer:
    """The view controller's sealed daemon-group secret for one daemon."""

    view_id: ViewId
    sealed: SealedMessage

    def wire_size(self) -> int:
        return 32 + self.sealed.wire_size()


@dataclass(frozen=True)
class DaemonKeyAck:
    """A member's acknowledgement that it installed the view's key."""

    view_id: ViewId
    sender: str

    def wire_size(self) -> int:
        return 48


@dataclass(frozen=True)
class DaemonSealedData:
    """An inter-daemon data message sealed under the daemon-group key."""

    view_id: ViewId
    sealed: SealedMessage

    def wire_size(self) -> int:
        return 32 + self.sealed.wire_size()


@dataclass(frozen=True)
class DaemonSealedControl:
    """A membership/control message sealed under the static pairwise
    channel of two daemons (available across views and partitions)."""

    sender: str
    sealed: SealedMessage

    def wire_size(self) -> int:
        return 32 + self.sealed.wire_size()


class DaemonSecurity:
    """The daemon-model security layer for one daemon."""

    RESEND_INTERVAL = 0.05

    def __init__(
        self,
        daemon,
        params: DHParams,
        long_term: DHKeyPair,
        directory: KeyDirectory,
        source: Optional[RandomSource] = None,
        counter: Optional[ExpCounter] = None,
        seal_control: bool = False,
    ) -> None:
        self.daemon = daemon
        self.params = params
        self.long_term = long_term
        self.directory = directory
        self.source = source if source is not None else SystemSource()
        self.counter = counter if counter is not None else ExpCounter()
        # Also seal membership control traffic (hellos, gathers,
        # proposals, cuts, installs) under static pairwise channels —
        # "the security of the membership change events themselves"
        # that the paper projects for the daemon integration (§8).
        self.seal_control = seal_control
        # Long-term pairwise DH secret per peer (both channels derive
        # from it) and the static control channels: they never change.
        self._shared: Dict[str, int] = {}
        self._control_channels: Dict[str, DataProtector] = {}

        self.view: Optional[ViewId] = None
        self.members: Tuple[str, ...] = ()
        self._protector: Optional[DataProtector] = None
        self._group_secret: Optional[int] = None
        self._pairwise: Dict[str, DataProtector] = {}  # this view's offers
        self._queue: List[Tuple[str, object]] = []
        self._unacked: Set[str] = set()
        self.keys_established = 0  # distinct daemon views keyed

    # -- identity / state -------------------------------------------------------

    @property
    def me(self) -> str:
        return self.daemon.name

    @property
    def ready(self) -> bool:
        return self._protector is not None

    @property
    def is_controller(self) -> bool:
        return bool(self.members) and min(self.members) == self.me

    def publish_key(self) -> None:
        """Register this daemon's long-term public key."""
        self.directory.register(self.me, self.long_term.public)

    # -- pairwise channels --------------------------------------------------------

    def _shared_secret(self, other: str) -> int:
        shared = self._shared.get(other)
        if shared is None:
            shared = self._shared[other] = self.params.exp(
                self.directory.lookup(other),
                self.long_term.private,
                self.counter,
                "daemon_pairwise",
            )
        return shared

    def _channel(self, other: str, purpose: str, epoch_label: str) -> DataProtector:
        # Key derivation context must be identical at both endpoints:
        # order the pair deterministically.
        low, high = sorted((self.me, other))
        keys = derive_keys(self._shared_secret(other), f"{purpose}|{low}|{high}", 0)
        return DataProtector(keys, epoch_label=epoch_label)

    def _offer_protector(self, other: str) -> DataProtector:
        """The pairwise channel carrying this view's key offer."""
        protector = self._pairwise.get(other)
        if protector is None:
            protector = self._pairwise[other] = self._channel(
                other, "daemon-offer", f"daemon-offer|{self.view}"
            )
        return protector

    def _control_protector(self, other: str) -> DataProtector:
        """The view-independent pairwise channel for control traffic."""
        protector = self._control_channels.get(other)
        if protector is None:
            protector = self._control_channels[other] = self._channel(
                other, "daemon-control", "daemon-control"
            )
        return protector

    # -- hook: on_install ------------------------------------------------------------

    def on_install(self, view: ViewId, members: Tuple[str, ...]) -> None:
        """A new daemon view (a recovered daemon's singleton included):
        discard the old key and offers, negotiate a new key."""
        self.view = view
        self.members = tuple(members)
        self._protector = None
        self._group_secret = None
        self._pairwise = {}
        self._queue = []
        self._unacked = set()
        if not self.is_controller:
            return  # wait for the controller's offer
        # A singleton keys itself at once (no traffic to seal, but the
        # accounting stays uniform).
        self._install_secret(self.params.random_exponent(self.source))
        self._unacked = {m for m in self.members if m != self.me}
        if self._unacked:
            self._send_offers()
            self.daemon.timers.add(
                "daemon-key-resend", self._resend_offers, self.RESEND_INTERVAL,
                period=self.RESEND_INTERVAL,
            )
            self.daemon.timers.start("daemon-key-resend")

    def _install_secret(self, secret: int) -> None:
        self._group_secret = secret
        keys = derive_keys(secret, f"daemon-group|{self.view}", 0)
        self._protector = DataProtector(
            keys, epoch_label=f"daemon-group|{self.view}"
        )
        self.keys_established += 1
        self.daemon.kernel.tracer.record(
            "daemon_security.keyed", me=self.me, view=str(self.view)
        )
        self._flush_queue()

    def _send_offers(self) -> None:
        for member in sorted(self._unacked):
            sealed = self._offer_protector(member).seal(
                "__daemons__",
                self.me,
                int_to_bytes(self._group_secret),
                self.source,
            )
            self.daemon.transport.send(
                self.me, member, DaemonKeyOffer(view_id=self.view, sealed=sealed)
            )

    def _resend_offers(self) -> None:
        if not self._unacked or not self.is_controller:
            self.daemon.timers.cancel("daemon-key-resend")
            return
        self._send_offers()

    # -- hook: intercept -----------------------------------------------------------------

    def intercept(self, source: str, payload) -> Optional[object]:
        """Called by the daemon for every received payload.

        Returns what the daemon should process — the payload itself, or
        the inner message of a sealed one — or ``None`` when this layer
        consumed it (key offers and acks, stale or rejected seals).
        """
        if isinstance(payload, DaemonKeyOffer):
            self._on_offer(source, payload)
            return None
        if isinstance(payload, DaemonKeyAck):
            self._on_ack(payload)
            return None
        if isinstance(payload, DaemonSealedData):
            return self._on_sealed_data(source, payload)
        if isinstance(payload, DaemonSealedControl):
            try:
                protector = self._control_protector(payload.sender)
                (frame,) = protector.unseal((payload.sealed,))
                return decode_frame(frame)
            except ReproError:
                self.daemon.kernel.tracer.record(
                    "daemon_security.reject_control", me=self.me, source=source
                )
                return None
        return payload

    def _on_offer(self, source: str, offer: DaemonKeyOffer) -> None:
        if offer.view_id != self.view:
            return  # stale or ahead; a matching install will come
        if self.ready:
            # Duplicate (resend): just re-ack.
            self._ack(source)
            return
        try:
            (secret_bytes,) = self._offer_protector(source).unseal((offer.sealed,))
        except ReproError:
            return  # corrupt or cross-view offer
        self._install_secret(int.from_bytes(secret_bytes, "big"))
        self._ack(source)

    def _ack(self, controller: str) -> None:
        self.daemon.transport.send(
            self.me, controller, DaemonKeyAck(view_id=self.view, sender=self.me)
        )

    def _on_ack(self, ack: DaemonKeyAck) -> None:
        if ack.view_id != self.view:
            return
        self._unacked.discard(ack.sender)
        if not self._unacked:
            self.daemon.timers.cancel("daemon-key-resend")

    def _on_sealed_data(
        self, source: str, payload: DaemonSealedData
    ) -> Optional[object]:
        if payload.view_id != self.view or self._protector is None:
            return None  # other daemon view; our pipeline ignores it anyway
        try:
            (frame,) = self._protector.unseal((payload.sealed,))
            message = decode_frame(frame)
        except ReproError:
            self.daemon.kernel.tracer.record(
                "daemon_security.reject", me=self.me, source=source
            )
            return None
        # Coalesced envelopes travel the sealed channel whole: one seal,
        # one unseal for the entire batch.
        return message if isinstance(message, (DataMessage, Packed)) else None

    # -- hook: outbound ------------------------------------------------------------------

    def outbound(self, destination: str, payload) -> Optional[object]:
        """Called by the daemon for every payload it sends to a peer.

        Data (a :class:`DataMessage` or :class:`Packed` envelope of them)
        is sealed under the view's daemon-group key, or queued — ``None``
        — while that key is agreed.  Control is sealed under the static
        pairwise channel when ``seal_control`` is on, else sent as is.
        """
        if isinstance(payload, (DataMessage, Packed)):
            if self._protector is None or payload.view_id != self.view:
                if payload.view_id == self.view:
                    self._queue.append((destination, payload))
                return None
            sealed = self._protector.seal(
                "__daemons__", self.me, encode_frame(payload), self.source
            )
            return DaemonSealedData(view_id=self.view, sealed=sealed)
        if not self.seal_control:
            return payload
        sealed = self._control_protector(destination).seal(
            "__daemon-control__", self.me, encode_frame(payload), self.source
        )
        return DaemonSealedControl(sender=self.me, sealed=sealed)

    def _flush_queue(self) -> None:
        queued, self._queue = self._queue, []
        transport = self.daemon.transport
        for destination, message in queued:
            payload = self.outbound(destination, message)
            if payload is not None and transport.has_node(destination):
                transport.send(self.me, destination, payload)


def secure_all_daemons(
    daemons,
    params: Optional[DHParams] = None,
    seed: int = 0,
    seal_control: bool = False,
) -> Dict[str, DaemonSecurity]:
    """Attach daemon-model security to every daemon of a deployment,
    sharing one key directory."""
    params = params if params is not None else DHParams.paper_512()
    directory = KeyDirectory()
    layers: Dict[str, DaemonSecurity] = {}
    for name, daemon in sorted(daemons.items()):
        source = DeterministicSource(stable_seed(seed, name))
        keypair = DHKeyPair.generate(params, source)
        security = DaemonSecurity(
            daemon, params, keypair, directory, source=source,
            seal_control=seal_control,
        )
        security.publish_key()
        layers[name] = security
    for name, daemon in daemons.items():
        daemon.security = layers[name]
        layers[name].on_install(daemon.view, daemon.view_members)
    return layers
