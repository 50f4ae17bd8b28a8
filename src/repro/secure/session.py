"""The secure group session layer: secure Spread's event loop.

:class:`SecureClient` is the application's connection; it owns one
:class:`SecureGroupSession` per joined group.  The session is the
paper's "event handling loop" (§5.2): it consumes flush-layer events,
maps memberships to key operations (Table 1), drives the group's key
agreement module, runs the cascade/confirmation machinery of
:mod:`repro.secure.cascade`, and seals/unseals application data.  It
does no I/O: each event in returns the *effects* it decided on, in
order (:mod:`repro.secure.events`), and the client performs them.

Sealed messages that reach a session in one loop turn are unsealed as
one *run*: the first one asks for an end-of-turn ``unseal`` timer, and
any other event the session takes (or a rekey retiring the key) drains
the run first, so deliveries keep their order against everything else
the session emits.

Timing hook: a :class:`CryptoCostModel` can charge virtual time for the
modular exponentiations each protocol step performs, so simulated
end-to-end timings (Figure 3) include the serial crypto path exactly as
the real system's wall clock did.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cliques.directory import KeyDirectory
from repro.crypto.counters import ExpCounter
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.kdf import derive_keys
from repro.crypto.random_source import RandomSource, SystemSource
from repro.errors import (
    ConnectionClosedError,
    ControllerError,
    NoGroupKeyError,
    ReproError,
    SecureGroupError,
    SendBlockedError,
    StaleKeyError,
)
from repro.secure.cascade import (
    AgreementEnvelope,
    KeyConfirm,
    RefreshAnnounce,
    RestartRequest,
)
from repro.secure.dataprotect import DataProtector, SealedMessage
from repro.secure.events import (
    FLUSH_OK,
    KeyOperation,
    RekeyStartedEvent,
    SecureDataEvent,
    SecureMembershipEvent,
    Send,
    Timer,
    classify_event,
)
from repro.secure.handlers.base import KeyAgreementModule, OutMessage, ViewChange
from repro.secure.policy import AllowAllPolicy, ModuleRegistry, default_registry
from repro.spread.events import (
    DataEvent,
    FlushRequestEvent,
    GroupViewId,
    MembershipEvent,
    SelfLeaveEvent,
)
from repro.spread.client import EventQueue
from repro.spread.flush import FlushClient
from repro.sim.trace import Tracer
from repro.types import GroupId, MembershipCause, ProcessId, ServiceType

STATE_IDLE = "idle"
STATE_AGREEING = "agreeing"
STATE_CONFIRMED = "confirmed"

#: Virtual seconds an agreement attempt may sit un-confirmed before the
#: watchdog multicasts a restart round.  Generous against real token
#: round-trips (milliseconds on the paper's LAN) so it only trips on
#: genuinely wedged agreements — e.g. members whose operation
#: classification diverged after an asymmetric failure.
AGREEMENT_WATCHDOG = 5.0


class CryptoCostModel:
    """Charges virtual time for modular exponentiations.

    ``exp_cost`` is seconds per exponentiation — e.g. 0.0025 for the
    paper's 450 MHz Pentium II with a 512-bit modulus, 0.012 for the
    SUN Ultra-2.  Zero cost sends protocol messages immediately.
    """

    def __init__(self, exp_cost: float = 0.0) -> None:
        self.exp_cost = exp_cost

    def delay(self, exponentiations: int) -> float:
        return exponentiations * self.exp_cost


class SecureGroupSession:
    """Security state and event loop for one member of one group."""

    def __init__(
        self,
        group: str,
        module: KeyAgreementModule,
        me: str,
        tracer: Tracer,
        random_source: RandomSource,
        cost_model: Optional[CryptoCostModel] = None,
        cipher: str = "blowfish-cbc",
    ) -> None:
        self.group = group
        self.module = module
        self.me = me
        self._tracer = tracer
        self._random = random_source
        self.cost_model = cost_model or CryptoCostModel()
        # Bulk cipher suite for this group (§5.1 drop-in modularity).
        self.cipher = cipher

        self.state = STATE_IDLE
        self.view: Optional[MembershipEvent] = None
        # The view's member names, built once per view: every key
        # confirmation checks against them.
        self._member_names: frozenset = frozenset()
        self.attempt = 0
        self.operation = KeyOperation.NONE
        self._confirms: Dict[str, str] = {}  # sender -> fingerprint
        self._protector: Optional[DataProtector] = None
        self._session_keys = None
        self._confirm_sent = False
        self.rekeys_completed = 0
        # Observability counters (repro.obs.metrics.collect_session):
        # sealed/unsealed totals count SealedMessage wire bytes, so the
        # cross-layer conservation inequalities compare like with like.
        self.sealed_messages = 0
        self.sealed_bytes = 0
        self.unsealed_messages = 0
        self.unsealed_bytes = 0
        self.rejected_messages = 0
        # The unseal run: (group, sender, sealed) in arrival order, and
        # whether its end-of-turn drain is scheduled.
        self._run: List[Tuple[GroupId, str, SealedMessage]] = []
        self._drain_scheduled = False
        # What the call in progress decided, in order.
        self._effects: List[Any] = []

    # -- identity helpers -----------------------------------------------------

    @property
    def view_key(self) -> Optional[GroupViewId]:
        return self.view.view_id if self.view is not None else None

    @property
    def epoch_label(self) -> str:
        return f"{self.group}|{self.view_key}|{self.attempt}"

    @property
    def has_key(self) -> bool:
        return self.state == STATE_CONFIRMED

    @property
    def key_fingerprint(self) -> Optional[str]:
        """The confirmed group key's fingerprint, or None without one."""
        if self.state != STATE_CONFIRMED:
            return None
        return self._session_keys.fingerprint()

    def members(self) -> List[str]:
        return sorted(self._member_names)

    # -- application data ---------------------------------------------------------

    def _confirmed_protector(self) -> DataProtector:
        if self.state != STATE_CONFIRMED or self._protector is None:
            raise NoGroupKeyError(
                f"group {self.group!r} has no confirmed key"
                f" (state={self.state})"
            )
        return self._protector

    def seal(self, payload: bytes) -> SealedMessage:
        """Seal application data for the current secure view."""
        sealed = self._confirmed_protector().seal(
            self.group, self.me, payload, self._random
        )
        self._count_sealed((payload,), (sealed,))
        return sealed

    def seal_many(self, payloads: Sequence[bytes]) -> List[SealedMessage]:
        """Seal a batch of payloads in one pass.

        Identical to calling :meth:`seal` per payload, but the seal loop
        reuses the epoch cipher schedule, MAC midstates and header
        through :meth:`~repro.secure.dataprotect.DataProtector.seal_many`.
        """
        protector = self._confirmed_protector()
        if not payloads:
            return []
        sealed_batch = protector.seal_many(
            self.group, self.me, payloads, self._random
        )
        self._count_sealed(payloads, sealed_batch)
        return sealed_batch

    def _count_sealed(
        self, payloads: Sequence[bytes], sealed_batch: Sequence[SealedMessage]
    ) -> None:
        self.sealed_messages += len(sealed_batch)
        self.sealed_bytes += sum(s.wire_size() for s in sealed_batch)
        if self._tracer.enabled:
            for payload, sealed in zip(payloads, sealed_batch):
                self._tracer.record(
                    "secure.send",
                    me=self.me,
                    group=self.group,
                    epoch=sealed.epoch_label,
                    digest=hashlib.sha256(payload).hexdigest()[:16],
                )

    def refresh(self) -> List[Any]:
        """Voluntary re-key (controller only), per Section 4.4; returns
        its effects."""
        if self.state != STATE_CONFIRMED:
            raise NoGroupKeyError("cannot refresh while agreement in progress")
        if not self.module.is_controller:
            raise ControllerError(f"{self.me} is not the group controller")
        self._effects = effects = []
        self._multicast(RefreshAnnounce(self.view_key, self.attempt))
        self._begin_attempt(self.attempt + 1, KeyOperation.REFRESH)
        messages, exps = self._run_module(self.module.refresh)
        self._dispatch_module_messages(messages, exps)
        return effects

    # -- event intake (called by SecureClient) ----------------------------------------

    def handle_event(self, event: Any) -> List[Any]:
        """Take one flush-layer event or due :class:`Timer`; return the
        effects it causes, in the order they must be performed."""
        self._effects = effects = []
        if isinstance(event, DataEvent) and isinstance(event.payload, SealedMessage):
            self._on_sealed(event.group, str(event.sender), event.payload)
            return effects
        if isinstance(event, Timer):
            self._on_timer(event)
            return effects
        # Every other event follows the sealed data that arrived before
        # it: e.g. a view's data is delivered before its flush_ok.
        self._drain()
        if isinstance(event, FlushRequestEvent):
            # §5.4: the layer cannot know yet what the membership change
            # is, so it must always let it proceed.
            effects.append(FLUSH_OK)
        elif isinstance(event, MembershipEvent):
            if event.cause == MembershipCause.TRANSITIONAL:
                # EVS transitional signal: advisory; the re-key happens on
                # the regular membership that follows.
                effects.append(event)
            else:
                self._on_view(event)
        elif isinstance(event, SelfLeaveEvent):
            self.state = STATE_IDLE
            self.module.reset()
            self._retire_key()
            effects.append(event)
        elif isinstance(event, DataEvent):
            self._on_data(event)
        else:
            effects.append(event)
        return effects

    def _on_timer(self, timer: Timer) -> None:
        if timer.kind == "unseal":
            self._drain_scheduled = False
            self._drain()
        elif timer.kind == "crypto":
            self._effects.append(timer.data)
        elif self.state == STATE_AGREEING and timer.data == (
            self.view_key, self.attempt
        ):
            # This attempt wedged: any progress (a key confirmation, a
            # newer view, a restart) would have disarmed the watchdog.
            if self._tracer.enabled:
                self._tracer.record(
                    "secure.watchdog",
                    me=self.me,
                    group=self.group,
                    view=str(self.view_key),
                    attempt=self.attempt,
                )
            self._multicast(RestartRequest(self.view_key, self.attempt))

    # -- membership handling --------------------------------------------------------

    def _on_view(self, event: MembershipEvent) -> None:
        had_state = self.module.ready or self.state == STATE_AGREEING
        previous_complete = self.module.ready
        previous_members = self._member_names
        self.view = event
        self._member_names = members_now = frozenset(
            str(m) for m in event.members
        )
        self.operation = classify_event(event)
        self._begin_attempt(0, self.operation)
        if self._tracer.enabled:
            # Opens the view-change -> key-installed span; the matching
            # secure.confirmed (same me/group/view) closes it.
            self._tracer.record(
                "secure.rekey_started",
                me=self.me,
                group=self.group,
                view=str(event.view_id),
                operation=self.operation.value,
                members=sorted(members_now),
            )
        self._effects.append(
            RekeyStartedEvent(group=event.group, operation=self.operation)
        )

        view_change = self._view_change(previous_members)
        explained = (
            previous_members - {str(m) for m in event.left}
        ) | {str(m) for m in event.joined}
        # A cascaded membership can supersede an in-progress flush so
        # fast that this member never sees the intermediate view: the
        # new member set then cannot be derived from the one we hold.
        # Likewise a member that returns from another component (it left
        # and joined in one event) may never have held our last key.
        # Module state from the skipped era is unusable — restart.
        skipped_view = bool(previous_members) and explained != members_now
        returned = view_change.joined & view_change.left
        if had_state and (not previous_complete or skipped_view or returned):
            # Cascaded event: the previous agreement never finished here
            # (or a whole view was skipped).  Ask the whole view to
            # restart from scratch.
            self._multicast(RestartRequest(event.view_id, from_attempt=0))
            return
        messages, exps = self._run_module(lambda: self.module.on_view(view_change))
        self._dispatch_module_messages(messages, exps)
        if (
            not self.module.ready
            and not self.module.has_state
            and view_change.me == view_change.anchor
            and len(view_change.members) > 1
        ):
            # Pathological merge: the anchor member itself carries no key
            # state (e.g. it entered the group during the partition), so
            # no component can claim the base role.  Fall back to the
            # restart protocol, which needs no prior state.
            self._multicast(RestartRequest(event.view_id, from_attempt=0))
            return
        self._maybe_confirm()

    def _begin_attempt(self, attempt: int, operation: KeyOperation) -> None:
        # The run pending now arrived under the key about to be retired.
        self._drain()
        self.state = STATE_AGREEING
        self.attempt = attempt
        self.operation = operation
        self._confirms = {}
        self._confirm_sent = False
        self._retire_key()
        # A restart round in case this attempt wedges.
        self._effects.append(
            Timer(AGREEMENT_WATCHDOG, "watchdog", (self.view_key, attempt))
        )

    def _retire_key(self) -> None:
        """Drop the current key and evict its cached cipher schedule, so
        the shared cache never serves key material the group abandoned."""
        if self._protector is not None:
            self._protector.invalidate()
        self._protector = None
        self._session_keys = None

    def _view_change(self, previous_members: frozenset) -> ViewChange:
        """The key-agreement module's view of the current membership."""
        event = self.view
        return ViewChange(
            group=self.group,
            members=tuple(sorted(self._member_names)),
            joined=frozenset(str(m) for m in event.joined),
            left=frozenset(str(m) for m in event.left),
            me=self.me,
            previous_members=previous_members,
            operation=self.operation,
        )

    # -- data / control message handling ------------------------------------------------

    def _on_data(self, event: DataEvent) -> None:
        payload = event.payload
        sender = str(event.sender)
        if isinstance(payload, AgreementEnvelope):
            self._on_envelope(sender, payload)
        elif isinstance(payload, RestartRequest):
            self._on_restart_request(payload)
        elif isinstance(payload, RefreshAnnounce):
            self._on_refresh_announce(sender, payload)
        elif isinstance(payload, KeyConfirm):
            self._on_key_confirm(sender, payload)
        else:
            self._effects.append(event)

    def _on_envelope(self, sender: str, envelope: AgreementEnvelope) -> None:
        if envelope.view_key != self.view_key or envelope.attempt != self.attempt:
            return  # superseded agreement
        try:
            messages, exps = self._run_module(
                lambda: self.module.on_token(sender, envelope.token)
            )
        except ReproError:
            # A token the protocol state cannot absorb: recover by
            # restarting the agreement for this view.
            self._multicast(RestartRequest(self.view_key, self.attempt))
            return
        self._dispatch_module_messages(messages, exps)
        self._maybe_confirm()

    def _on_restart_request(self, request: RestartRequest) -> None:
        if request.view_key != self.view_key or request.from_attempt < self.attempt:
            return  # stale request
        # Accept requests from members *ahead* of us too (their attempt
        # counter advanced while ours stalled — e.g. a lost self-delivery
        # or a diverged operation classification): jumping to one past
        # the highest announced attempt is how the view reconverges.
        self._begin_attempt(request.from_attempt + 1, self.operation)
        messages, exps = self._run_module(
            lambda: self.module.on_restart(self._view_change(frozenset()))
        )
        self._dispatch_module_messages(messages, exps)
        self._maybe_confirm()

    def _on_refresh_announce(self, sender: str, announce: RefreshAnnounce) -> None:
        if sender == self.me:
            return  # we already bumped before broadcasting
        if announce.view_key != self.view_key or announce.from_attempt != self.attempt:
            return
        self._begin_attempt(self.attempt + 1, KeyOperation.REFRESH)

    def _on_key_confirm(self, sender: str, confirm: KeyConfirm) -> None:
        if confirm.view_key != self.view_key or confirm.attempt != self.attempt:
            return
        self._confirms[sender] = confirm.fingerprint
        self._maybe_complete()

    def _on_sealed(self, group: GroupId, sender: str, sealed: SealedMessage) -> None:
        """Add a sealed message to the run; the first schedules its drain.

        The tag binds ``sealed.sender`` to the epoch key, so a message
        that arrives from any other Spread sender is a replay."""
        if sealed.sender != sender:
            self._reject(group, sender, sealed, "sender_mismatch")
            return
        self._run.append((group, sender, sealed))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self._effects.append(Timer(0.0, "unseal"))

    def _drain(self) -> None:
        """Unseal and deliver the pending run, in arrival order.

        One :meth:`~repro.secure.dataprotect.DataProtector.unseal` call
        for the whole run; if it raises, the run is retried one message
        at a time so only the bad message is rejected.
        """
        run = self._run
        if not run:
            return
        self._run = []
        protector = self._protector
        if protector is None:
            # No key (superseded traffic); VS makes this benign.
            for group, sender, sealed in run:
                self._reject(group, sender, sealed, "no_key")
            return
        try:
            plaintexts = protector.unseal([sealed for _, _, sealed in run])
        except ReproError:
            for group, sender, sealed in run:
                try:
                    (plaintext,) = protector.unseal((sealed,))
                except ReproError as exc:
                    # Wrong epoch or MAC: drop, as a router would — but
                    # leave a trace so the chaos invariants can count
                    # every rejection and prove no corrupted payload
                    # ever reached the application.
                    stale = isinstance(exc, StaleKeyError)
                    self._reject(
                        group, sender, sealed, "stale_epoch" if stale else "mac_fail"
                    )
                else:
                    self._deliver(group, sender, sealed, plaintext)
            return
        for (group, sender, sealed), plaintext in zip(run, plaintexts):
            self._deliver(group, sender, sealed, plaintext)

    def _reject(
        self, group: GroupId, sender: str, sealed: SealedMessage, reason: str
    ) -> None:
        self.rejected_messages += 1
        if self._tracer.enabled:
            self._tracer.record(
                "secure.reject",
                me=self.me,
                group=str(group),
                sender=sender,
                epoch=sealed.epoch_label,
                reason=reason,
            )

    def _deliver(
        self, group: GroupId, sender: str, sealed: SealedMessage, plaintext: bytes
    ) -> None:
        self.unsealed_messages += 1
        self.unsealed_bytes += sealed.wire_size()
        if self._tracer.enabled:
            self._tracer.record(
                "secure.data",
                me=self.me,
                group=str(group),
                sender=sender,
                epoch=sealed.epoch_label,
                digest=hashlib.sha256(plaintext).hexdigest()[:16],
            )
        self._effects.append(
            SecureDataEvent(
                group=group,
                sender=ProcessId.parse(sender),
                payload=plaintext,
                epoch_label=sealed.epoch_label,
            )
        )

    # -- module plumbing ------------------------------------------------------------------

    def _run_module(self, call: Callable[[], List[OutMessage]]):
        counter = getattr(self.module, "counter", None)
        before = counter.total if counter is not None else 0
        messages = call()
        after = counter.total if counter is not None else 0
        return messages, after - before

    def _dispatch_module_messages(
        self, messages: List[OutMessage], exponentiations: int = 0
    ) -> None:
        if not messages:
            return
        if self._tracer.enabled:
            self._tracer.record(
                "keyagree.round",
                me=self.me,
                group=self.group,
                module=self.module.name,
                attempt=self.attempt,
                messages=len(messages),
                exponentiations=exponentiations,
            )
        # Label the round now: a restart or refresh inside the crypto
        # delay must not send these tokens as the next attempt's.
        send = Send(tuple(
            (
                None if message.is_multicast else message.target,
                AgreementEnvelope(self.view_key, self.attempt, message.token),
            )
            for message in messages
        ))
        delay = self.cost_model.delay(exponentiations)
        self._effects.append(Timer(delay, "crypto", send) if delay > 0 else send)

    def _multicast(self, payload: Any) -> None:
        self._effects.append(Send(((None, payload),)))

    # -- completion ----------------------------------------------------------------------

    def _maybe_confirm(self) -> None:
        """If the module just produced a key, derive session keys and
        broadcast our key confirmation."""
        if self._confirm_sent or not self.module.ready:
            return
        secret = self.module.secret()
        keys = derive_keys(
            secret, f"{self.group}|{self.view_key}|{self.cipher}", self.attempt
        )
        self._session_keys = keys
        self._confirm_sent = True
        self._multicast(
            KeyConfirm(self.view_key, self.attempt, keys.fingerprint())
        )
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self.state != STATE_AGREEING or self._session_keys is None:
            return
        needed = self._member_names
        if not needed.issubset(self._confirms.keys()):
            return
        mine = self._session_keys.fingerprint()
        if any(fp != mine for m, fp in self._confirms.items() if m in needed):
            # Fingerprint mismatch: somebody computed a different key.
            self._multicast(RestartRequest(self.view_key, self.attempt))
            return
        self._protector = DataProtector(
            self._session_keys, self.epoch_label, cipher=self.cipher
        )
        self.state = STATE_CONFIRMED
        self.rekeys_completed += 1
        if self._tracer.enabled:
            self._tracer.record(
                "secure.confirmed",
                me=self.me,
                group=self.group,
                view=str(self.view_key),
                attempt=self.attempt,
                members=self.members(),
                fingerprint=mine,
            )
        self._effects.append(
            SecureMembershipEvent(
                group=self.view.group,
                view_id=self.view.view_id,
                members=self.view.members,
                cause=self.view.cause,
                operation=self.operation,
                attempt=self.attempt,
                key_fingerprint=mine,
            )
        )


class SecureClient(EventQueue):
    """Secure Spread's application API.

    Wraps a :class:`~repro.spread.flush.FlushClient` with per-group
    security sessions.  The API mirrors the insecure client —
    ``join`` / ``leave`` / ``send`` / ``receive`` — plus ``refresh`` and
    per-group module selection, exactly the surface the paper describes.

    It is the one driver of its sessions: every flush-layer event goes
    to the group's session, and the effects that come back are
    performed here, in order, by :meth:`_perform`.
    """

    def __init__(
        self,
        flush: FlushClient,
        params: DHParams,
        long_term: DHKeyPair,
        directory: KeyDirectory,
        random_source: Optional[RandomSource] = None,
        registry: Optional[ModuleRegistry] = None,
        policy: Optional[AllowAllPolicy] = None,
        cost_model: Optional[CryptoCostModel] = None,
        counter: Optional[ExpCounter] = None,
    ) -> None:
        super().__init__()
        self.flush = flush
        self.params = params
        self.long_term = long_term
        self.directory = directory
        self.random_source = random_source or SystemSource()
        self.registry = registry or default_registry()
        self.policy = policy or AllowAllPolicy()
        self.cost_model = cost_model
        self.counter = counter if counter is not None else ExpCounter()
        self.sessions: Dict[str, SecureGroupSession] = {}
        flush.stack(self._route)

    # -- identity ---------------------------------------------------------------

    @property
    def pid(self) -> Optional[ProcessId]:
        return self.flush.pid

    @property
    def me(self) -> str:
        return str(self.flush.pid)

    def publish_key(self) -> None:
        """Register this member's long-term public key in the directory."""
        self.directory.register(self.me, self.long_term.public)

    # -- group operations -----------------------------------------------------------

    def join(
        self,
        group: str,
        module: Optional[str] = None,
        cipher: str = "blowfish-cbc",
    ) -> SecureGroupSession:
        """Join a secure group, choosing its key agreement module and
        bulk cipher suite (all members of a group must choose the same;
        a mismatch aborts at key confirmation rather than corrupting
        data)."""
        if not self.policy.may_join(self.me, group):
            raise SecureGroupError(
                f"policy denies {self.me} joining secure group {group!r}"
            )
        module_name = self.policy.module_for(group, module)
        handler = self.registry.create(
            module_name,
            member=self.me,
            params=self.params,
            long_term=self.long_term,
            directory=self.directory,
            source=self.random_source,
            counter=self.counter,
        )
        session = SecureGroupSession(
            group=group,
            module=handler,
            me=self.me,
            tracer=self.flush.client.kernel.tracer,
            random_source=self.random_source,
            cost_model=self.cost_model,
            cipher=cipher,
        )
        self.sessions[group] = session
        self.flush.join(group)
        return session

    def leave(self, group: str) -> None:
        self.flush.leave(group)

    def disconnect(self) -> None:
        self.flush.disconnect()

    def send(self, group: str, payload: bytes) -> None:
        """Encrypt-and-multicast application data."""
        self.flush.multicast(group, self._session(group).seal(payload))

    def send_many(self, group: str, payloads: Sequence[bytes]) -> None:
        """Encrypt-and-multicast a batch of payloads in one seal pass; the
        multicasts land back-to-back for the daemon to pack."""
        multicast = self.flush.multicast
        for sealed in self._session(group).seal_many(payloads):
            multicast(group, sealed)

    def refresh(self, group: str) -> None:
        """Force a key refresh (must be the group controller)."""
        session = self._session(group)
        self._perform(session, session.refresh())

    def has_key(self, group: str) -> bool:
        session = self.sessions.get(group)
        return session is not None and session.has_key

    def _session(self, group: str) -> SecureGroupSession:
        session = self.sessions.get(group)
        if session is None:
            raise NoGroupKeyError(f"not joined to secure group {group!r}")
        return session

    # -- events -------------------------------------------------------------------------

    def _route(self, event: Any) -> None:
        group = getattr(event, "group", None)
        session = self.sessions.get(str(group)) if group is not None else None
        if session is None and str(group).startswith("#") and isinstance(
            event, DataEvent
        ):
            # Private message to us: find the session by content — the
            # group it names, or (agreement envelopes) its token's group.
            payload = event.payload
            token = getattr(payload, "token", None)
            session = self.sessions.get(
                getattr(payload, "group", None)
            ) or self.sessions.get(getattr(token, "group", None))
        if session is not None:
            self._perform(session, session.handle_event(event))
        else:
            self._emit(event)

    def _perform(self, session: SecureGroupSession, effects: List[Any]) -> None:
        """Carry out a session's effects in the order it decided them."""
        for effect in effects:
            if isinstance(effect, Send):
                try:
                    for target, payload in effect.messages:
                        if target is None:
                            self.flush.multicast(session.group, payload)
                        else:
                            self.flush.unicast(
                                ProcessId.parse(target),
                                payload,
                                service=ServiceType.AGREED,
                            )
                except (SendBlockedError, ConnectionClosedError):
                    # Blocked: a newer membership is flushing, so this
                    # agreement is about to be superseded.  Closed: the
                    # transport client is mid-reconnect (real backend
                    # only) and its re-join will resync membership and
                    # restart agreement.  Either way, don't send.
                    pass
            elif isinstance(effect, Timer):
                self.flush.client.kernel.call_later(
                    effect.delay,
                    lambda timer=effect: self._perform(
                        session, session.handle_event(timer)
                    ),
                    label=f"secure.{session.group}.{effect.kind}",
                )
            elif effect is FLUSH_OK:
                self.flush.flush_ok(session.group)
            else:
                self._emit(effect)
