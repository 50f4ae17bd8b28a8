"""Totem-style token-ring total ordering.

The protocol family the real Spread descends from (Amir et al., "The
Totem single-ring ordering and membership protocol"): a token rotates
around the view members in name order; only the holder assigns global
sequence numbers, so all messages share one totally ordered sequence.

* **AGREED/CAUSAL/FIFO/RELIABLE** — delivered in global sequence order
  once contiguous (a single sequencer trivially subsumes the weaker
  levels).
* **SAFE** — the token carries every member's all-received-up-to (aru);
  a message is safe once the minimum aru passes it.  Delivery stays in
  global order, so an unstable SAFE message holds back its successors,
  exactly as in Totem.
* **Retransmission** — the token carries the holder's missing-sequence
  list; the next holder (or any member processing the token) rebroadcasts
  what it has.
* **Token loss** — the last holder retains the token and resends it if
  it observes no progress; daemon crashes surface as member silence and
  trigger a membership change, which installs a new ring.
* **Idle pacing** — an idle ring slows its rotation to one hop per
  heartbeat interval, so a quiet system is not saturated by token
  passes; traffic resumes full speed immediately (the holder flushes
  pending messages on token receipt, and a member with fresh messages
  while idle simply waits at most one paced hop).  A holder paces only
  when it already knew the ring stable before the token came, so the
  round that makes a SAFE message stable runs at full speed and every
  member delivers it within one round of the first.

**Steady-state garbage collection.**  ``received[seq]`` is dropped once
``seq <= min(stable_upto, delivered_upto)``: delivered here and held by
every member (the minimum aru passed it), so no ``rtr`` entry can
legitimately name it.  A silent or partitioned member freezes
``stable_upto``, so retention is bounded by failure detection
(``fail_timeout``, after which the view changes and the ring is
replaced), not by the view's lifetime.

Interface-compatible with :class:`repro.spread.ordering.ViewPipeline`,
selected with ``SpreadConfig(ordering="ring")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.spread.messages import DataMessage
from repro.types import ServiceType, ViewId

DeliverFn = Callable[[DataMessage], None]
SendFn = Callable[[Optional[str], object], None]
ScheduleFn = Callable[[float, Callable[[], None]], None]


def _is_safe(service: ServiceType) -> bool:
    return bool(service & ServiceType.SAFE)


@dataclass(frozen=True)
class RingToken:
    """The rotating token: sequencing state plus repair requests."""

    view_id: ViewId
    round: int
    seq: int  # highest global sequence number assigned so far
    aru: Dict[str, int]  # member -> all-received-up-to
    rtr: Tuple[int, ...]  # sequences the previous holder was missing

    def wire_size(self) -> int:
        return 64 + 16 * len(self.aru) + 8 * len(self.rtr)


class RingPipeline:
    """Per-view token-ring ordering engine for one daemon."""

    def __init__(
        self,
        view_id: ViewId,
        members: Iterable[str],
        me: str,
        deliver: DeliverFn,
        start_lamport: int = 0,
        send: Optional[SendFn] = None,
        schedule: Optional[ScheduleFn] = None,
        idle_delay: float = 0.02,
        token_timeout: float = 0.1,
    ) -> None:
        self.view_id = view_id
        self.members: Tuple[str, ...] = tuple(sorted(members))
        self.me = me
        self._deliver = deliver
        self._send = send if send is not None else (lambda dest, payload: None)
        self._schedule = schedule if schedule is not None else (lambda d, fn: None)
        self.idle_delay = idle_delay
        # A full idle rotation must not look like token loss.
        self.token_timeout = max(
            token_timeout, 2.5 * idle_delay * max(1, len(self.members))
        )

        # Global sequencing state.  ``lamport`` doubles as the global
        # high watermark so SyncInfo/start_lamport chaining works
        # unchanged across engines.
        self.base = start_lamport
        self.lamport = start_lamport
        self.send_seq = 0  # per-sender count (hello compatibility)
        self.delivered_upto = start_lamport
        self.received: Dict[int, DataMessage] = {}
        self.my_aru = start_lamport
        self.stable_upto = start_lamport
        self._trimmed = start_lamport  # every seq <= this has left received
        self._pending: List[Tuple] = []
        self._last_round_seen = 0
        self._held_token: Optional[RingToken] = None  # for loss recovery
        self.wants_prompt_hello = False  # ring does not use prompt hellos
        self.closed = False
        self.token_rotations = 0

    # ------------------------------------------------------------------
    # ring bootstrap
    # ------------------------------------------------------------------

    @property
    def alone(self) -> bool:
        return len(self.members) == 1

    def start_token(self) -> None:
        """Inject the initial token (called by the lowest-named member
        at view installation)."""
        if self.alone or self.members[0] != self.me:
            return
        token = RingToken(
            view_id=self.view_id,
            round=1,
            seq=self.base,
            aru={member: self.base for member in self.members},
            rtr=(),
        )
        self.on_token(token)

    def _next_member(self) -> str:
        index = self.members.index(self.me)
        return self.members[(index + 1) % len(self.members)]

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def submit(
        self,
        service: ServiceType,
        kind: str,
        group: str,
        origin,
        origin_seq: int,
        payload,
    ) -> None:
        """Queue a message; it is sequenced when the token arrives (or
        immediately when we are alone)."""
        if self.alone:
            message = self._stamp(service, kind, group, origin, origin_seq, payload)
            self._ingest_sequenced(message)
            return
        self._pending.append((service, kind, group, origin, origin_seq, payload))

    def _stamp(
        self, service, kind, group, origin, origin_seq, payload
    ) -> DataMessage:
        self.lamport += 1
        self.send_seq += 1
        return DataMessage(
            sender_daemon=self.me,
            view_id=self.view_id,
            seq=self.send_seq,
            lamport=self.lamport,  # the GLOBAL ring sequence number
            service=service,
            kind=kind,
            group=group,
            origin=origin,
            origin_seq=origin_seq,
            payload=payload,
        )

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def ingest(self, message: DataMessage, now: float = 0.0) -> None:
        """Accept a sequenced broadcast (possibly duplicate/out of order)."""
        if message.view_id != self.view_id:
            return
        self._ingest_sequenced(message)

    def _ingest_sequenced(self, message: DataMessage) -> None:
        seq = message.lamport
        if seq <= self.delivered_upto or seq in self.received:
            return
        self.received[seq] = message
        self.lamport = max(self.lamport, seq)
        while (self.my_aru + 1) in self.received:
            self.my_aru += 1
        if self.alone:
            self.stable_upto = self.my_aru  # no token: ours is the only aru
        self._release()

    def _release(self) -> None:
        """Deliver in strict global order; unstable SAFE messages block."""
        while (self.delivered_upto + 1) in self.received:
            seq = self.delivered_upto + 1
            message = self.received[seq]
            if _is_safe(message.service) and seq > self.stable_upto:
                break
            self.delivered_upto = seq
            self._deliver(message)
        self._trim()

    def _trim(self) -> None:
        """Drop what is delivered here and stable everywhere; both lines
        move only on the way into ``_release``."""
        line = min(self.stable_upto, self.delivered_upto)
        while self._trimmed < line:
            self._trimmed += 1
            del self.received[self._trimmed]

    # ------------------------------------------------------------------
    # token handling
    # ------------------------------------------------------------------

    def on_token(self, token: RingToken) -> None:
        if self.closed or token.view_id != self.view_id:
            return
        if token.round <= self._last_round_seen:
            return  # duplicate / late retransmission of an old token
        self._last_round_seen = token.round
        self._held_token = None
        self.token_rotations += 1

        # 1. Repair: rebroadcast what the previous holder was missing.
        for seq in token.rtr:
            message = self.received.get(seq)
            if message is not None:
                self._send(None, message)

        # 2. Sequence and broadcast our pending messages.
        seq_counter = max(token.seq, self.lamport)
        pending, self._pending = self._pending, []
        for service, kind, group, origin, origin_seq, payload in pending:
            seq_counter += 1
            self.lamport = seq_counter
            self.send_seq += 1
            message = DataMessage(
                sender_daemon=self.me,
                view_id=self.view_id,
                seq=self.send_seq,
                lamport=seq_counter,
                service=service,
                kind=kind,
                group=group,
                origin=origin,
                origin_seq=origin_seq,
                payload=payload,
            )
            self._ingest_sequenced(message)
            self._send(None, message)

        # 3. Update stability and our aru.
        knew_stable = self.stable_upto >= seq_counter
        aru = dict(token.aru)
        aru[self.me] = self.my_aru
        for member in self.members:
            aru.setdefault(member, self.base)
        self.stable_upto = min(aru[m] for m in self.members)
        self._release()

        # 4. Compute our repair requests and pass the token on.
        missing = tuple(
            seq
            for seq in range(self.my_aru + 1, seq_counter + 1)
            if seq not in self.received
        )
        next_token = RingToken(
            view_id=self.view_id,
            round=token.round + 1,
            seq=seq_counter,
            aru=aru,
            rtr=missing,
        )
        # Pace only a round this daemon already knew stable: the round
        # that brings the news runs at full speed to every member.
        idle = not missing and not self._pending and knew_stable
        if idle:
            self._schedule(self.idle_delay, lambda: self._pass_token(next_token))
        else:
            self._pass_token(next_token)

    def _pass_token(self, token: RingToken) -> None:
        if self.closed or self.alone:
            return
        self._held_token = token
        self._send(self._next_member(), token)
        self._schedule(self.token_timeout, lambda: self._check_token_progress(token))

    def _check_token_progress(self, token: RingToken) -> None:
        """Resend the token if the ring made no progress since we passed
        it (token datagram lost on a lossy link)."""
        if self.closed or self._held_token is not token:
            return
        if self._last_round_seen >= token.round:
            return  # progressed
        self._send(self._next_member(), token)
        self._schedule(self.token_timeout, lambda: self._check_token_progress(token))

    # ------------------------------------------------------------------
    # engine-interface compatibility
    # ------------------------------------------------------------------

    def note_hello(self, sender: str, lamport: int, all_received: int,
                   sent_seq: int, now: float) -> None:
        """Heartbeats do not drive the ring's order; liveness is the
        daemon's concern."""

    def my_all_received(self) -> int:
        return self.my_aru

    def periodic(self, now: float, nack_age: float) -> None:
        """Gap repair rides the token; nothing to do on the nack timer."""

    def on_nack(self, nack) -> int:
        """The ring repairs via token rtr; stray NACKs are ignored."""
        return 0

    # ------------------------------------------------------------------
    # membership cut & flush
    # ------------------------------------------------------------------

    def cut(self):
        """(undelivered messages, delivered timestamp, fifo horizons)."""
        undelivered = tuple(
            self.received[seq]
            for seq in sorted(self.received)
            if seq > self.delivered_upto
        )
        fifo: Dict[str, int] = {member: 0 for member in self.members}
        return undelivered, self.delivered_upto, fifo

    def flush_with(
        self,
        union_messages: Iterable[DataMessage],
        synced_members: Optional[Iterable[str]] = None,
    ) -> List[Tuple]:
        """Ingest the union and force-deliver in global order.  Gaps that
        survive the union were assigned to messages nobody in this
        component holds; they are skipped (their sender travelled to
        another component or died).

        Returns the sends the token never reached, as ``submit``
        arguments: nobody else holds them, so the daemon submits them
        again in the next view."""
        for message in union_messages:
            if message.view_id == self.view_id:
                seq = message.lamport
                if seq > self.delivered_upto and seq not in self.received:
                    self.received[seq] = message
        for seq in sorted(self.received):
            if seq <= self.delivered_upto:
                continue
            self.delivered_upto = seq
            self._deliver(self.received[seq])
        self.closed = True
        unsequenced, self._pending = self._pending, []
        return unsequenced
