"""Per-view reliability and ordering pipeline.

One :class:`ViewPipeline` exists per daemon per installed view.  It
implements the service levels on top of the raw datagram network:

* **RELIABLE / FIFO** — per-sender sequence numbers; gaps are repaired
  by NACK-triggered retransmission; delivery is per-sender contiguous.
  (RELIABLE is delivered with FIFO's rule — a permitted strengthening.)
* **CAUSAL** — vector-based: each causal message carries its sender's
  delivery vector; it is delivered once its causal past has been.  No
  waiting on silent members, unlike AGREED.
* **AGREED** — Lamport-timestamp total order: a message is delivered
  once no view member can still contribute an earlier timestamp.
  Senders bump their clock on every send, and heartbeats carry clocks,
  so the order advances even under silence.
* **SAFE** — delivered once every view member has *acknowledged having
  ingested* everything up to the message's timestamp (acks ride on
  heartbeats).

(UNRELIABLE messages bypass the pipeline entirely — the daemon delivers
them on arrival.)

The pipeline also supports the membership protocol's flush: ``cut()``
reports everything ingested-but-undelivered plus the delivery horizons,
and ``flush_with`` ingests the membership coordinator's union and
force-delivers the remainder deterministically, which yields the EVS
same-set guarantee for daemons that move to the new view together.

**Steady-state garbage collection.**  The line ``cut()`` draws is
applied while the view lasts: a message leaves ``received`` (and so
``sent_buffer``) once it is delivered here and *stable* — its timestamp
at or under every member's advertised ``all_received``, i.e. ingested
everywhere, so no flush complement and no legitimate NACK can need it.
A silent or partitioned member freezes the line, so retention is
bounded by failure detection (``fail_timeout``, after which the view
changes and the pipeline is replaced), not by the view's lifetime.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.spread.messages import DataMessage, Nack
from repro.types import ServiceType, ViewId

DeliverFn = Callable[[DataMessage], None]
DeliverManyFn = Callable[[List[DataMessage]], None]


def _is_totally_ordered(service: ServiceType) -> bool:
    return bool(service & (ServiceType.AGREED | ServiceType.SAFE))


def _is_causal(service: ServiceType) -> bool:
    return bool(service & ServiceType.CAUSAL) and not _is_totally_ordered(
        service
    )


def _is_safe(service: ServiceType) -> bool:
    return bool(service & ServiceType.SAFE)


class _PeerState:
    """Receive-side state for one view member.

    A ``__slots__`` record: a pipeline exists per daemon per view and
    holds one of these per member, and its fields are read and written
    for every ordered message.
    """

    __slots__ = (
        "received",
        "contiguous",
        "max_seen",
        "fifo_delivered",
        "ordered_horizon",
        "all_received",
        "gap_since",
        "trimmed",
    )

    def __init__(self) -> None:
        self.received: Dict[int, DataMessage] = {}
        self.contiguous = 0  # highest seq with no gaps below it
        self.max_seen = 0
        self.fifo_delivered = 0
        # Highest timestamp T such that every message with ts <= T from
        # this peer has been ingested (drives AGREED release).
        self.ordered_horizon = 0
        # This peer's advertised "I ingested everything <= T" (SAFE).
        self.all_received = 0
        self.gap_since: Optional[float] = None
        # Low-water pointer: every seq <= trimmed has left ``received``.
        self.trimmed = 0


class ViewPipeline:
    """Ordering pipeline for one daemon within one installed view."""

    def __init__(
        self,
        view_id: ViewId,
        members: Iterable[str],
        me: str,
        deliver: DeliverFn,
        start_lamport: int = 0,
        send: Optional[Callable[[Optional[str], object], None]] = None,
        deliver_many: Optional[DeliverManyFn] = None,
    ) -> None:
        self.view_id = view_id
        self.members: Tuple[str, ...] = tuple(members)
        self.me = me
        self._deliver = deliver
        # Optional batch dispatch: a maximal in-order run released in one
        # pass goes out through a single callback instead of one call per
        # message.  Falls back to per-message delivery when absent.
        self._deliver_many = deliver_many
        # Transmission callback: send(None, payload) broadcasts to the
        # view; send(daemon, payload) unicasts.  Optional for tests that
        # drive the pipeline directly.
        self._send = send if send is not None else (lambda dest, payload: None)
        self.lamport = start_lamport
        self.send_seq = 0
        self.peers: Dict[str, _PeerState] = {m: _PeerState() for m in self.members}
        # Retransmission source: our own messages, self-ingested on send.
        self.sent_buffer: Dict[int, DataMessage] = self.peers[me].received
        # View membership is immutable, so the sorted iteration order
        # every deterministic scan needs is computed exactly once.
        self._sorted_names: Tuple[str, ...] = tuple(sorted(self.peers))
        # Totally-ordered holdback: heap of (lamport, sender, seq).
        self._order_heap: List[Tuple[int, str, int]] = []
        self._held: Dict[Tuple[str, int], DataMessage] = {}
        # Causal holdback: messages awaiting their causal past.
        self._causal_held: List[DataMessage] = []
        self.delivered_ts = 0
        # Set when an ingest makes prompt progress broadcasting worthwhile.
        self.wants_prompt_hello = False
        # Ordered-release deferral depth (see begin_ingest_batch): while
        # positive, _release is a no-op and the pending run drains once
        # at end_ingest_batch.
        self._release_deferred = 0
        self.closed = False

    # -- sending -----------------------------------------------------------

    def next_message(
        self,
        service: ServiceType,
        kind: str,
        group: str,
        origin,
        origin_seq: int,
        payload,
    ) -> DataMessage:
        """Stamp an outgoing message and ingest our own copy."""
        self.lamport += 1
        self.send_seq += 1
        causal_vector = None
        if _is_causal(service):
            # Our causal past: everything we have delivered per sender.
            peers = self.peers
            causal_vector = tuple(
                (name, peers[name].fifo_delivered)
                for name in self._sorted_names
                if peers[name].fifo_delivered > 0
            )
        message = DataMessage(
            sender_daemon=self.me,
            view_id=self.view_id,
            seq=self.send_seq,
            lamport=self.lamport,
            service=service,
            kind=kind,
            group=group,
            origin=origin,
            origin_seq=origin_seq,
            payload=payload,
            causal_vector=causal_vector,
        )
        self.ingest(message, now=0.0)
        return message

    def submit(
        self,
        service: ServiceType,
        kind: str,
        group: str,
        origin,
        origin_seq: int,
        payload,
    ) -> DataMessage:
        """Stamp, self-ingest and transmit an outgoing message — the
        engine-independent send entry point."""
        message = self.next_message(service, kind, group, origin, origin_seq, payload)
        self._send(None, message)
        return message

    # -- receiving ----------------------------------------------------------

    def ingest(self, message: DataMessage, now: float) -> None:
        """Accept one (possibly duplicate, possibly out-of-order) message."""
        if message.view_id != self.view_id:
            return  # stale traffic from an old view
        peer = self.peers.get(message.sender_daemon)
        if peer is None:
            return  # not a member of this view
        if message.seq <= peer.contiguous or message.seq in peer.received:
            return  # duplicate
        self.lamport = max(self.lamport, message.lamport)
        peer.received[message.seq] = message
        peer.max_seen = max(peer.max_seen, message.seq)
        # Advance the contiguous frontier and the ordered horizon.
        advanced = False
        while (peer.contiguous + 1) in peer.received:
            peer.contiguous += 1
            advanced = True
            contiguous_message = peer.received[peer.contiguous]
            peer.ordered_horizon = max(
                peer.ordered_horizon, contiguous_message.lamport
            )
            self._stage(contiguous_message)
        if peer.contiguous < peer.max_seen:
            if peer.gap_since is None:
                peer.gap_since = now
        else:
            peer.gap_since = None
        if advanced:
            self._release()
            self.wants_prompt_hello = True
            if len(self.members) == 1:
                self._trim()  # alone: no hello will ever move the line

    def _stage(self, message: DataMessage) -> None:
        """A message became per-sender contiguous; route it by service."""
        if _is_totally_ordered(message.service):
            heapq.heappush(
                self._order_heap,
                (message.lamport, message.sender_daemon, message.seq),
            )
            self._held[(message.sender_daemon, message.seq)] = message
        else:
            # RELIABLE / FIFO / CAUSAL share one per-sender holdback so
            # mixed-service streams keep their per-sender order; FIFO and
            # RELIABLE messages simply carry no causal vector and release
            # as soon as they are contiguous.
            peer = self.peers[message.sender_daemon]
            if (
                not self._causal_held
                and not message.causal_vector
                and message.seq == peer.fifo_delivered + 1
            ):
                # Fast path: contiguous FIFO/RELIABLE with no causal
                # backlog releases immediately — exactly what a holdback
                # scan would conclude, without touching the list.
                peer.fifo_delivered = message.seq
                self._deliver(message)
            else:
                self._causal_held.append(message)
                self._release_causal()

    def _causal_past_delivered(self, message: DataMessage) -> bool:
        if not message.causal_vector:
            return True
        for daemon, needed in message.causal_vector:
            peer = self.peers.get(daemon)
            if peer is None:
                continue  # departed sender: its past died with the view
            if peer.fifo_delivered < needed:
                return False
        return True

    def _release_causal(self) -> None:
        """Deliver held CAUSAL messages whose causal past is complete.

        A delivery can satisfy another held message's vector, so loop
        until a full pass releases nothing.  Each pass rebuilds the
        holdback from the survivors instead of ``list.remove``-ing
        per delivery (which made a release pass quadratic).
        """
        held = self._causal_held
        progressed = True
        while progressed and held:
            progressed = False
            remaining: List[DataMessage] = []
            for message in held:
                # Per-sender FIFO among causal messages too.
                peer = self.peers[message.sender_daemon]
                if message.seq == peer.fifo_delivered + 1 and (
                    self._causal_past_delivered(message)
                ):
                    peer.fifo_delivered = message.seq
                    self._deliver(message)
                    progressed = True
                else:
                    remaining.append(message)
            held[:] = remaining

    def begin_ingest_batch(self) -> None:
        """Defer ordered releases while a packed envelope is ingested.

        Each member ingest still advances frontiers and runs the FIFO
        fast path (per-sender order is protected by the seq chain), but
        the heap drain happens once at ``end_ingest_batch`` instead of
        once per member.  The delivery sequence is unchanged: the union
        of the per-member release prefixes equals the final prefix, and
        both drain in heap order.
        """
        self._release_deferred += 1

    def end_ingest_batch(self) -> None:
        self._release_deferred -= 1
        if self._release_deferred == 0:
            self._release()

    def note_hello(
        self, sender: str, lamport: int, all_received: int, sent_seq: int
    ) -> None:
        """Heartbeat progress: may release held totally-ordered messages."""
        peer = self.peers.get(sender)
        if peer is None:
            return
        self.lamport = max(self.lamport, lamport)
        peer.all_received = max(peer.all_received, all_received)
        if sent_seq > peer.max_seen:
            # The peer sent messages we never saw (lost tail): mark the
            # gap so the NACK timer requests retransmission.
            peer.max_seen = sent_seq
            if peer.gap_since is None:
                peer.gap_since = 0.0
        # The heartbeat's clock extends the ordered horizon only when no
        # sent message is still missing (otherwise an in-flight message
        # could carry a smaller timestamp).
        if peer.contiguous >= sent_seq:
            peer.ordered_horizon = max(peer.ordered_horizon, lamport)
        self._release()
        self._trim()

    def _trim(self) -> None:
        """Drop what is delivered here and stable everywhere.

        Per-sender sequence order is timestamp order, so each peer's
        low-water pointer only ever walks forward: amortised O(1) per
        message.  Everything below it is already invisible to ``ingest``
        (``seq <= contiguous``), ``gaps_older_than``, ``cut`` and
        ``flush_with``.
        """
        stable = min(self._ack_of(name) for name in self._sorted_names)
        for peer in self.peers.values():
            received = peer.received
            seq = peer.trimmed + 1
            limit = min(peer.fifo_delivered, peer.contiguous)
            while seq <= limit and received[seq].lamport <= stable:
                del received[seq]
                seq += 1
            peer.trimmed = seq - 1

    # -- delivery rules ------------------------------------------------------

    def _horizon_of(self, name: str) -> int:
        """A member's ordered horizon; our own is our Lamport clock (our
        next send is always stamped above it)."""
        if name == self.me:
            return max(self.peers[name].ordered_horizon, self.lamport)
        return self.peers[name].ordered_horizon

    def _ack_of(self, name: str) -> int:
        """A member's safe-delivery ack; ours is computed locally."""
        if name == self.me:
            return max(self.peers[name].all_received, self.my_all_received())
        return self.peers[name].all_received

    def _release(self) -> None:
        """Deliver every held message whose order is now determined.

        The delivery horizon (the minimum over all members' ordered
        horizons) cannot change while messages are being released — only
        ingest and heartbeats move it — so it is computed once per pass
        instead of once per message, and the maximal in-order run under
        it is dispatched as a single batch.
        """
        if self._release_deferred:
            return
        heap = self._order_heap
        if not heap:
            return
        names = self._sorted_names
        horizon_of = self._horizon_of
        horizon = min(horizon_of(name) for name in names)
        if heap[0][0] > horizon:
            return
        if self._causal_held:
            # Weaker-service messages are held back: each totally-ordered
            # delivery must interleave with causal releases per-message.
            self._release_interleaved(horizon)
            return
        # Fast path (no causal holdback): pop the maximal run under the
        # horizon in one pass.  Released totally-ordered messages cannot
        # add causal holdback, so the batch is exactly the sequence the
        # per-message loop would have delivered.
        held = self._held
        peers = self.peers
        ack_min: Optional[int] = None
        run: List[DataMessage] = []
        last_ts = 0
        while heap:
            ts, sender, seq = heap[0]
            if ts > horizon:
                break
            message = held[(sender, seq)]
            if _is_safe(message.service):
                if ack_min is None:
                    ack_min = min(self._ack_of(name) for name in names)
                if ack_min < ts:
                    break
            heapq.heappop(heap)
            del held[(sender, seq)]
            peer = peers[sender]
            if seq > peer.fifo_delivered:
                peer.fifo_delivered = seq
            last_ts = ts
            run.append(message)
        if not run:
            return
        if last_ts > self.delivered_ts:
            self.delivered_ts = last_ts
        deliver_many = self._deliver_many
        if deliver_many is not None:
            deliver_many(run)
        else:
            deliver = self._deliver
            for message in run:
                deliver(message)

    def _release_interleaved(self, horizon: int) -> None:
        """Per-message release for the mixed case: a causal holdback
        exists, so every totally-ordered delivery may free weaker
        messages that must go out in between."""
        heap = self._order_heap
        ack_min: Optional[int] = None
        while heap:
            ts, sender, seq = heap[0]
            if ts > horizon:
                break
            message = self._held[(sender, seq)]
            if _is_safe(message.service):
                if ack_min is None:
                    ack_min = min(
                        self._ack_of(name) for name in self._sorted_names
                    )
                if ack_min < ts:
                    break
            heapq.heappop(heap)
            del self._held[(sender, seq)]
            peer = self.peers[sender]
            # Per-sender order across service levels: anything weaker the
            # same sender sent earlier goes out first (its causal past is
            # a subset of what the total order has already established).
            earlier = sorted(
                (m for m in self._causal_held
                 if m.sender_daemon == sender and m.seq < seq),
                key=lambda m: m.seq,
            )
            for held_message in earlier:
                self._causal_held.remove(held_message)
                peer.fifo_delivered = max(peer.fifo_delivered, held_message.seq)
                self._deliver(held_message)
            peer.fifo_delivered = max(peer.fifo_delivered, seq)
            self.delivered_ts = max(self.delivered_ts, ts)
            self._deliver(message)
            self._release_causal()

    # -- progress reporting ----------------------------------------------------

    def my_all_received(self) -> int:
        """Min ordered horizon across peers: what we can ack for SAFE."""
        if not self.peers:
            return self.lamport
        return min(
            max(peer.ordered_horizon, self.lamport)
            if name == self.me
            else peer.ordered_horizon
            for name, peer in self.peers.items()
        )

    def gaps_older_than(self, now: float, age: float) -> Dict[str, List[int]]:
        """Senders with persistent sequence gaps -> missing seq lists."""
        result: Dict[str, List[int]] = {}
        for name, peer in self.peers.items():
            if name == self.me or peer.gap_since is None:
                continue
            if now - peer.gap_since >= age:
                missing = [
                    seq
                    for seq in range(peer.contiguous + 1, peer.max_seen + 1)
                    if seq not in peer.received
                ]
                if missing:
                    result[name] = missing
                peer.gap_since = now  # back off until the next period
        return result

    def retransmit(self, missing: Iterable[int]) -> List[DataMessage]:
        """Messages from our sent buffer matching a NACK."""
        return [
            self.sent_buffer[seq] for seq in missing if seq in self.sent_buffer
        ]

    def periodic(self, now: float, nack_age: float) -> None:
        """Timer hook: request retransmission of aged sequence gaps."""
        for sender, missing in self.gaps_older_than(now, nack_age).items():
            self._send(
                sender,
                Nack(
                    sender=self.me,
                    view_id=self.view_id,
                    target=sender,
                    missing=tuple(missing),
                ),
            )

    def on_nack(self, nack) -> int:
        """Answer a retransmission request from our sent buffer; returns
        how many of the requested sequences we still held."""
        messages = self.retransmit(nack.missing)
        for message in messages:
            self._send(nack.sender, message)
        return len(messages)

    def on_token(self, token) -> None:
        """Ring-engine tokens are not used by the Lamport engine."""

    # -- membership flush --------------------------------------------------------

    def cut(self) -> Tuple[Tuple[DataMessage, ...], int, Dict[str, int]]:
        """Everything a co-moving peer might still be missing, plus
        delivery horizons.

        The cut carries every retained message that is not yet *stable*
        (acknowledged-as-ingested by every view member, per the SAFE ack
        horizon) — whether or not it was delivered here.  Undelivered
        messages are needed to finish our own flush; delivered-but-
        unstable ones are needed because a daemon moving to the new view
        with us may have missed a message we already delivered (lost on
        the wire, sender unreachable for NACK repair), and the EVS
        same-set guarantee obliges the complement to hand it over.
        Stable messages are ingested everywhere by definition, so they
        are the cut's garbage-collection line, exactly as in Totem.
        """
        stable = (
            min(self._ack_of(name) for name in self.peers)
            if self.peers
            else 0
        )
        unstable: List[DataMessage] = []
        delivered_fifo: Dict[str, int] = {}
        for name, peer in self.peers.items():
            delivered_fifo[name] = peer.fifo_delivered
            for seq in sorted(peer.received):
                message = peer.received[seq]
                if seq > peer.fifo_delivered or message.lamport > stable:
                    unstable.append(message)
        # Held totally-ordered messages have seq <= fifo_delivered only
        # after delivery, so the scan above already includes them.
        return tuple(unstable), self.delivered_ts, delivered_fifo

    def flush_with(
        self,
        union_messages: Iterable[DataMessage],
        synced_members: Optional[Iterable[str]] = None,
    ) -> None:
        """Ingest the coordinator's union, then force-deliver the rest.

        All daemons that shared this view and move together receive the
        same union, so they deliver the same set in the same
        deterministic order: per-sender contiguous remainders first
        (senders sorted), then held totally-ordered messages by
        (timestamp, sender).

        ``synced_members`` are the old-view members whose messages the
        union is complete for (they contributed a cut).  For them, a gap
        means the message never existed in this component and delivery
        continues past it; for anyone else (partitioned away mid-view),
        delivery stops at the first gap to preserve FIFO.
        """
        synced = set(synced_members) if synced_members is not None else set(
            self.peers
        )
        for message in union_messages:
            self.ingest(message, now=0.0)
        # Force out held causal messages: at the cut their missing causal
        # past is on the other side of the membership change and will
        # never arrive here (deterministic order: sender, then seq).
        for message in sorted(
            self._causal_held, key=lambda m: (m.sender_daemon, m.seq)
        ):
            peer = self.peers[message.sender_daemon]
            peer.fifo_delivered = max(peer.fifo_delivered, message.seq)
            self._deliver(message)
        self._causal_held.clear()
        for name in sorted(self.peers):
            peer = self.peers[name]
            expected = peer.contiguous
            for seq in sorted(peer.received):
                if seq <= peer.fifo_delivered or seq <= peer.contiguous:
                    continue
                if name not in synced and seq != expected + 1:
                    break  # real gap from an unreachable sender
                expected = seq
                message = peer.received[seq]
                if _is_totally_ordered(message.service):
                    key = (name, seq)
                    if key not in self._held:
                        self._held[key] = message
                        heapq.heappush(
                            self._order_heap, (message.lamport, name, seq)
                        )
                else:
                    peer.fifo_delivered = seq
                    self._deliver(message)
        while self._order_heap:
            ts, sender, seq = heapq.heappop(self._order_heap)
            message = self._held.pop((sender, seq))
            self.peers[sender].fifo_delivered = max(
                self.peers[sender].fifo_delivered, seq
            )
            self.delivered_ts = max(self.delivered_ts, ts)
            self._deliver(message)
        self.closed = True
