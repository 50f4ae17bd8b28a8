"""The Spread daemon: ordering, groups, membership, client service.

One daemon runs per simulated machine.  Clients connect to their local
daemon over a same-machine IPC channel; daemons talk to each other over
the simulated network.  The daemon composes:

* a :class:`~repro.spread.ordering.ViewPipeline` per installed view,
* the :class:`~repro.spread.groups.GroupTable` of lightweight groups,
* the :class:`~repro.spread.membership.MembershipEngine`,
* heartbeat / failure-detection / retransmission timers.

Failure model: daemons are fail-stop and may recover with a fresh
incarnation (volatile state lost); the network may partition and merge.

The daemon is written against two seams rather than concrete backends
(contracts tabled in ``docs/TRANSPORT.md``; both backends satisfy them
structurally, so the sim path never depends on the transport package):

* a **transport** providing ``add_node`` / ``has_node`` / ``send``
  datagram service — :class:`repro.net.network.Network` in simulation,
  :class:`repro.transport.tcp.TcpTransport` over real sockets; and
* a **clock** providing the :class:`~repro.sim.kernel.Kernel`
  scheduling surface — the kernel itself in simulation,
  :class:`repro.transport.rtclock.RealtimeClock` on an asyncio loop.

Extensions attach through one hook, ``SpreadDaemon.security`` (``None``
by default; :mod:`repro.ext.daemon_model` is the one user).  The daemon
makes exactly three calls on it:

* ``on_install(view, members)`` — at every installed view, and with the
  fresh singleton view when the daemon recovers;
* ``outbound(destination, payload) -> payload | None`` — on every
  daemon-to-daemon send; returns what goes on the wire, or ``None`` when
  the extension queued it (it then sends through ``daemon.transport``
  itself);
* ``intercept(source, payload) -> payload | None`` — on every received
  datagram; returns what the daemon processes, or ``None`` when the
  extension consumed it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SpreadError
from repro.net.corrupt import CorruptedDatagram
from repro.sim.kernel import Kernel
from repro.sim.process import SimProcess
from repro.spread.config import SpreadConfig
from repro.spread.events import (
    DataEvent,
    GroupViewId,
    MembershipEvent,
    SelfLeaveEvent,
)
from repro.spread.groups import GroupTable, daemon_of
from repro.spread.membership import MembershipEngine, STATE_OP
from repro.spread.messages import (
    DataMessage,
    GatherAnnounce,
    Hello,
    Install,
    KIND_APP,
    KIND_DISCONNECT,
    KIND_GROUP_JOIN,
    KIND_GROUP_LEAVE,
    Nack,
    PACK_MAX_BYTES,
    PACK_MAX_MESSAGES,
    Packed,
    Propose,
    SyncInfo,
)
from repro.spread.ordering import ViewPipeline
from repro.spread.ring import RingPipeline, RingToken
from repro.types import (
    DaemonId,
    GroupId,
    MembershipCause,
    ProcessId,
    ServiceType,
    ViewId,
)

UNRELIABLE_SEQ = 0  # sentinel: message bypasses the ordering pipeline

# How long buffered messages and a prompt hello wait for the flush (the
# count and byte budgets, PACK_MAX_*, live with ``Packed``).  0.0 means
# one virtual instant (one loop turn on TCP): per-daemon delivery order
# stays byte-identical to the unpacked path on deterministic links, and
# an instant sends one prompt hello, after its data.
PACK_DELAY = 0.0


class SpreadDaemon(SimProcess):
    """A group communication daemon."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        transport,
        config: SpreadConfig,
    ) -> None:
        super().__init__(kernel, name)
        if name not in config.daemons:
            raise SpreadError(f"daemon {name!r} missing from configuration")
        #: The transport seam: the sim Network or a TcpTransport.
        self.transport = transport
        self.config = config
        self.daemon_id = DaemonId(name)
        self.incarnation = 0
        #: The extension hook (contract in the module docstring).
        self.security = None
        self._init_volatile_state()
        transport.add_node(self)

    def _make_pipeline(self, view: ViewId, members, start_lamport: int):
        """Build the configured total-order engine for a view."""
        def send(destination, payload):
            if destination is None:
                self._broadcast_view(payload)
            else:
                self._send_to_daemon(destination, payload)

        if self.config.ordering == "ring":
            return RingPipeline(
                view,
                members,
                self.name,
                self._deliver_ordered,
                start_lamport=start_lamport,
                send=send,
                schedule=lambda delay, fn: self.after(delay, fn,
                                                      label=f"{self.name}.ring"),
                idle_delay=self.config.hello_interval,
                token_timeout=self.config.fail_timeout,
            )
        return ViewPipeline(
            view,
            members,
            self.name,
            self._deliver_ordered,
            start_lamport=start_lamport,
            send=send,
            deliver_many=self._deliver_ordered_run,
        )

    def _init_volatile_state(self) -> None:
        self.clients: Dict[str, "object"] = {}  # private name -> client
        # private name -> interned pid string (built once at connect;
        # the delivery fan-out would otherwise re-render it per event).
        self._client_pids: Dict[str, str] = {}
        self.groups = GroupTable()
        self.view = ViewId(epoch=0, counter=self.incarnation, coordinator=self.name)
        self.view_members: Tuple[str, ...] = (self.name,)
        self.pipeline = self._make_pipeline(self.view, self.view_members, 0)
        self.last_heard: Dict[str, float] = {}
        self._view_mismatch_since: Dict[str, float] = {}
        self._pending_ops: List[Callable[[], None]] = []
        self.engine = MembershipEngine(
            me=self.name,
            config=self.config,
            send=self._engine_send,
            broadcast_all=self._broadcast_everyone,
            make_sync=self._make_sync,
            commit=self._commit_install,
            schedule=self._engine_schedule,
            alive_set=self._alive_set,
            trace=self.kernel.tracer.record,
        )
        self.engine.incarnation = self.incarnation
        self.views_installed = 0
        # Observability counters (repro.obs.metrics.collect_daemon).
        # Cheap always-on totals: unlike the trace they survive a
        # disabled tracer.  Volatile by design — a recovered daemon's
        # deliveries start from zero like everything else it knows.
        self.flush_cuts = 0
        self.retransmissions = 0
        # NACKed sequences we no longer held: requests under the
        # stability line (see spread/ordering.py), a protocol error
        # unless the NACK simply crossed its own repair on the wire.
        self.stale_nacks = 0
        self.messages_delivered = 0
        self.remote_bytes_delivered = 0
        self.client_messages_delivered = 0
        self.client_bytes_delivered = 0
        # Sender-side coalescing: per-destination buffers of reliable
        # DataMessages awaiting one wire datagram.  Only the Lamport
        # engine packs — the ring engine's token pacing already batches
        # its own transmissions.
        self._packing = bool(self.config.packing) and (
            self.config.ordering == "lamport"
        )
        self._pack_buffers: Dict[str, List[DataMessage]] = {}
        self._pack_bytes: Dict[str, int] = {}
        self._pack_flush_pending = False
        # Packing / batch-delivery attribution counters
        # (repro.obs.metrics.collect_daemon): envelopes vs the messages
        # coalesced into them, and ordered-delivery run lengths.
        self.packed_datagrams = 0
        self.packed_messages = 0
        self.delivery_runs = 0
        self.delivered_in_runs = 0
        self.longest_run = 0
        # Active client-push sink: while a delivery run is dispatching,
        # pushes collect here (grouped by consecutive client) and flush
        # as one kernel event per group instead of one per message.
        self._push_batch: Optional[List[Tuple[object, List[Any]]]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.timers.add("hello", self._send_hello, self.config.hello_interval,
                        period=self.config.hello_interval)
        self.timers.add("failcheck", self._check_failures,
                        self.config.hello_interval,
                        period=self.config.hello_interval)
        self.timers.add("nack", self._check_gaps, self.config.nack_timeout,
                        period=self.config.nack_timeout)
        self.timers.start("hello")
        self.timers.start("failcheck")
        self.timers.start("nack")
        self._send_hello()

    def on_crash(self) -> None:
        for client in list(self.clients.values()):
            client.daemon_down()
        self.clients = {}
        self._client_pids = {}

    def on_recover(self) -> None:
        self.incarnation += 1
        self._init_volatile_state()
        if self.security is not None:
            self.security.on_install(self.view, self.view_members)
        self.on_start()

    # ------------------------------------------------------------------
    # engine plumbing
    # ------------------------------------------------------------------

    def _engine_send(self, destination: str, payload: Any) -> None:
        if destination == self.name:
            return
        self._send_to_daemon(destination, payload)

    def _broadcast_everyone(self, payload: Any) -> None:
        """Send to every configured daemon (membership control plane)."""
        for daemon in self.config.daemons:
            if daemon != self.name and self.transport.has_node(daemon):
                self._send_to_daemon(daemon, payload)

    def _broadcast_view(self, payload: Any) -> None:
        """Send to the other members of the current view (data plane)."""
        for daemon in self.view_members:
            if daemon != self.name and self.transport.has_node(daemon):
                self._send_to_daemon(daemon, payload)

    def _send_to_daemon(self, destination: str, payload: Any) -> None:
        """Daemon-to-daemon send, via the coalescing buffer when packing
        is on: reliable current-view data messages wait (at most
        ``PACK_DELAY``) for companions bound to the same destination;
        everything else transmits immediately."""
        if (
            self._packing
            and type(payload) is DataMessage
            and payload.seq != UNRELIABLE_SEQ
            and payload.view_id == self.view
        ):
            self._pack_enqueue(destination, payload)
            return
        self._transmit(destination, payload)

    def _transmit(self, destination: str, payload: Any) -> None:
        """The wire send, through the extension hook when one is set."""
        if self.security is not None:
            payload = self.security.outbound(destination, payload)
            if payload is None:
                return  # queued by the extension
        self.transport.send(self.name, destination, payload)

    # -- sender-side coalescing (data-plane fast path) -------------------

    def _pack_enqueue(self, destination: str, message: DataMessage) -> None:
        buffers = self._pack_buffers
        buffer = buffers.get(destination)
        if buffer is None:
            buffer = buffers[destination] = []
            self._pack_bytes[destination] = 0
        buffer.append(message)
        total = self._pack_bytes[destination] + message.wire_size()
        self._pack_bytes[destination] = total
        if len(buffer) >= PACK_MAX_MESSAGES or total >= PACK_MAX_BYTES:
            self._flush_destination(destination)
            return
        self._arm_flush()

    def _flush_destination(self, destination: str) -> None:
        messages = self._pack_buffers.pop(destination, None)
        if not messages:
            return
        self._pack_bytes.pop(destination, None)
        if len(messages) == 1:
            # A lone message travels exactly as on the unpacked path.
            self._transmit(destination, messages[0])
            return
        envelope = Packed(
            sender=self.name,
            view_id=messages[0].view_id,
            messages=tuple(messages),
        )
        self.packed_datagrams += 1
        self.packed_messages += len(messages)
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.record(
                "daemon.pack_flush",
                me=self.name,
                destination=destination,
                count=len(messages),
                bytes=envelope.wire_size(),
            )
        self._transmit(destination, envelope)

    def _arm_flush(self) -> None:
        if not self._pack_flush_pending:
            self._pack_flush_pending = True
            self.after(PACK_DELAY, self._flush_packed, label=f"{self.name}.pack")

    def _flush_packed(self) -> None:
        """End-of-instant flush: drain every destination buffer, in the
        order the destinations first buffered, then send at most one
        prompt hello to the view, after the data it advertises."""
        self._pack_flush_pending = False
        for destination in list(self._pack_buffers):
            self._flush_destination(destination)
        if self.pipeline.wants_prompt_hello:
            self.pipeline.wants_prompt_hello = False
            self._broadcast_view(self._hello())

    def _engine_schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self.after(delay, callback, label=f"{self.name}.memb")

    def _alive_set(self) -> Set[str]:
        now = self.kernel.now
        return {
            daemon
            for daemon, heard in self.last_heard.items()
            if now - heard <= self.config.fail_timeout
        }

    def _make_sync(self, round_id: int, new_view: ViewId) -> SyncInfo:
        self.flush_cuts += 1
        undelivered, delivered_ts, delivered_fifo = self.pipeline.cut()
        return SyncInfo(
            sender=self.name,
            round_id=round_id,
            new_view=new_view,
            old_view=self.view,
            undelivered=undelivered,
            delivered_ts=delivered_ts,
            delivered_fifo=delivered_fifo,
            groups=self.groups.snapshot(),
            lamport=self.pipeline.lamport,
        )

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _hello(self) -> Hello:
        return Hello(
            sender=self.name,
            view_id=self.view,
            lamport=self.pipeline.lamport,
            all_received=self.pipeline.my_all_received(),
            incarnation=self.incarnation,
            sent_seq=self.pipeline.send_seq,
        )

    def _send_hello(self) -> None:
        # A hello advertises sent_seq, so the datagrams carrying those
        # sequences go first, as in _flush_packed.
        for destination in list(self._pack_buffers):
            self._flush_destination(destination)
        self._broadcast_everyone(self._hello())

    def _maybe_prompt_hello(self) -> None:
        if self.pipeline.wants_prompt_hello:
            self._arm_flush()

    def _check_failures(self) -> None:
        if self.engine.state != STATE_OP:
            return
        now = self.kernel.now
        for member in self.view_members:
            if member == self.name:
                continue
            heard = self.last_heard.get(member)
            if heard is None or now - heard > self.config.fail_timeout:
                self.engine.trigger(f"silence:{member}")
                return
        for daemon, since in list(self._view_mismatch_since.items()):
            if now - since > self.config.fail_timeout:
                self._view_mismatch_since.pop(daemon, None)
                self.engine.trigger(f"view-mismatch:{daemon}")
                return

    def _check_gaps(self) -> None:
        self.pipeline.periodic(self.kernel.now, self.config.nack_timeout)

    # ------------------------------------------------------------------
    # network receive
    # ------------------------------------------------------------------

    def on_message(self, source: str, payload: Any) -> None:
        if isinstance(payload, CorruptedDatagram):
            # A frame damaged on the wire and caught by the transport
            # checksum: drop before any interpretation (it does not even
            # count as hearing the sender).  Reliable traffic is repaired
            # by the NACK machinery from the sender's buffer.
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.record(
                    "daemon.corrupt_drop",
                    me=self.name,
                    source=source,
                    original=payload.original_kind,
                )
            return
        self.last_heard[source] = self.kernel.now
        if self.security is not None:
            payload = self.security.intercept(source, payload)
            if payload is None:
                self._maybe_prompt_hello()
                return
        if isinstance(payload, Hello):
            self._on_hello(payload)
        elif isinstance(payload, DataMessage):
            self._on_data(payload)
        elif isinstance(payload, Packed):
            # Coalesced envelope: ingest the members in send order — the
            # pipeline sees exactly the sequence the unpacked path would
            # have delivered one datagram at a time.  Ordered releases
            # are deferred so the whole envelope drains the heap in one
            # pass instead of one pass per member.
            pipeline = self.pipeline
            on_data = self._on_data
            pipeline.begin_ingest_batch()
            try:
                for member in payload.messages:
                    on_data(member)
            finally:
                pipeline.end_ingest_batch()
        elif isinstance(payload, RingToken):
            if payload.view_id == self.view:
                self.pipeline.on_token(payload)
        elif isinstance(payload, Nack):
            self._on_nack(payload)
        elif isinstance(payload, GatherAnnounce):
            self.engine.on_gather(payload)
        elif isinstance(payload, Propose):
            self.engine.on_propose(payload)
        elif isinstance(payload, SyncInfo):
            self.engine.on_sync(payload)
        elif isinstance(payload, Install):
            self.engine.on_install(payload)
        else:
            self.kernel.tracer.record(
                "daemon.unknown_payload", me=self.name, type=type(payload).__name__
            )
        self._maybe_prompt_hello()

    def _on_hello(self, hello: Hello) -> None:
        if hello.sender not in self.view_members:
            if self.engine.state == STATE_OP:
                self.engine.trigger(f"foreign:{hello.sender}")
            return
        if hello.view_id == self.view:
            self._view_mismatch_since.pop(hello.sender, None)
            self.pipeline.note_hello(
                hello.sender, hello.lamport, hello.all_received, hello.sent_seq,
                now=self.kernel.now,
            )
        else:
            # A view member speaking a different view: transient during
            # install propagation, persistent after a quick crash/recover.
            self._view_mismatch_since.setdefault(hello.sender, self.kernel.now)

    def _on_data(self, message: DataMessage) -> None:
        if message.seq == UNRELIABLE_SEQ:
            self._deliver_ordered(message)
            return
        if message.view_id != self.view:
            return  # stale or ahead; repaired after install via NACK
        self.pipeline.ingest(message, now=self.kernel.now)

    def _on_nack(self, nack: Nack) -> None:
        if nack.view_id != self.view:
            return
        answered = self.pipeline.on_nack(nack)
        self.retransmissions += answered
        self.stale_nacks += len(nack.missing) - answered

    # ------------------------------------------------------------------
    # client service (called by SpreadClient over the IPC channel)
    # ------------------------------------------------------------------

    def client_connect(self, client: "object", private_name: str) -> ProcessId:
        if not self.alive:
            raise SpreadError(f"daemon {self.name} is down")
        if private_name in self.clients:
            raise SpreadError(
                f"private name {private_name!r} already connected to {self.name}"
            )
        self.clients[private_name] = client
        self._client_pids[private_name] = str(
            ProcessId(private_name=private_name, daemon=self.daemon_id)
        )
        return ProcessId(private_name=private_name, daemon=self.daemon_id)

    def client_gone(self, private_name: str) -> None:
        """IPC channel broke (disconnect or client crash)."""
        if private_name not in self.clients:
            return
        del self.clients[private_name]
        self._client_pids.pop(private_name, None)
        pid = str(ProcessId(private_name, self.daemon_id))
        groups = self.groups.groups_of(pid)
        if groups:
            self._submit(
                ServiceType.AGREED,
                KIND_DISCONNECT,
                group="",
                origin=ProcessId(private_name, self.daemon_id),
                origin_seq=0,
                payload=tuple(groups),
            )

    def client_join(self, pid: ProcessId, group: str) -> None:
        self._submit(ServiceType.AGREED, KIND_GROUP_JOIN, group, pid, 0, None)

    def client_leave(self, pid: ProcessId, group: str) -> None:
        self._submit(ServiceType.AGREED, KIND_GROUP_LEAVE, group, pid, 0, None)

    def client_multicast(
        self,
        pid: ProcessId,
        service: ServiceType,
        group: str,
        payload: Any,
        origin_seq: int,
    ) -> None:
        if service & ServiceType.UNRELIABLE:
            message = DataMessage(
                sender_daemon=self.name,
                view_id=self.view,
                seq=UNRELIABLE_SEQ,
                lamport=self.pipeline.lamport,
                service=service,
                kind=KIND_APP,
                group=group,
                origin=pid,
                origin_seq=origin_seq,
                payload=payload,
            )
            self._broadcast_view(message)
            self._deliver_ordered(message)
            return
        self._submit(service, KIND_APP, group, pid, origin_seq, payload)

    def _submit(
        self,
        service: ServiceType,
        kind: str,
        group: str,
        origin: Optional[ProcessId],
        origin_seq: int,
        payload: Any,
    ) -> None:
        """Send through the ordered pipeline; queued during membership
        transitions and replayed in the new view."""
        if self.engine.state != STATE_OP:
            self._pending_ops.append(
                lambda: self._submit(service, kind, group, origin, origin_seq, payload)
            )
            return
        self.pipeline.submit(service, kind, group, origin, origin_seq, payload)
        self._maybe_prompt_hello()

    # ------------------------------------------------------------------
    # ordered delivery (pipeline callback)
    # ------------------------------------------------------------------

    def _deliver_ordered(self, message: DataMessage) -> None:
        self.messages_delivered += 1
        if message.seq != UNRELIABLE_SEQ and message.sender_daemon != self.name:
            # Remote reliable delivery: these bytes crossed the network
            # (inside the DataMessage itself or a flush complement), so
            # net.bytes_delivered bounds their sum — the conservation
            # inequality tests/obs/test_conservation.py holds us to.
            self.remote_bytes_delivered += message.wire_size()
        tracer = self.kernel.tracer
        if tracer.enabled and message.seq != UNRELIABLE_SEQ:
            # The invariant checker's raw material: which daemon delivered
            # which reliable message in which view.  (message.view_id, not
            # self.view: flush-time deliveries belong to the closing view.)
            tracer.record(
                "daemon.deliver",
                me=self.name,
                view=str(message.view_id),
                sender=message.sender_daemon,
                seq=message.seq,
                msg_kind=message.kind,
            )
        if message.kind == KIND_APP:
            self._deliver_app(message)
        elif message.kind == KIND_GROUP_JOIN:
            self._apply_join(message)
        elif message.kind == KIND_GROUP_LEAVE:
            self._apply_leave(message, MembershipCause.LEAVE)
        elif message.kind == KIND_DISCONNECT:
            self._apply_disconnect(message)

    def _deliver_ordered_run(self, messages: List[DataMessage]) -> None:
        """Batch-delivery callback: one maximal in-order run released by
        the pipeline in a single pass.  Per-message semantics (counters,
        trace events, client pushes) are identical to the one-at-a-time
        path; the run is also attributed for the data-plane bench."""
        count = len(messages)
        self.delivery_runs += 1
        self.delivered_in_runs += count
        if count > self.longest_run:
            self.longest_run = count
        deliver = self._deliver_ordered
        if count == 1:
            deliver(messages[0])
            return
        # Collect the run's client pushes and schedule one IPC event per
        # consecutive-same-client group.  Groups fire in collection order
        # at the same virtual instant, and events within a group fire in
        # push order, so the deliver_event call sequence every client
        # observes is exactly the per-message path's.
        batch: List[Tuple[object, List[Any]]] = []
        self._push_batch = batch
        try:
            for message in messages:
                deliver(message)
        finally:
            self._push_batch = None
        ipc_delay = self.config.ipc_delay
        label = f"{self.name}.ipc"
        for client, events in batch:
            def fire(c: Any = client, evs: List[Any] = events) -> None:
                for event in evs:
                    c.deliver_event(event)

            self.after(ipc_delay, fire, label=label)

    def _local_members(self, group: str) -> List[Tuple[str, "object"]]:
        """(pid string, client) for local clients that are in the group.

        Iterates the (small, local) client table in connect order — the
        delivery order clients observe — checking each against the
        group's members.
        """
        result = []
        is_member = self.groups.is_member
        for private_name, client in self.clients.items():
            pid = self._client_pids[private_name]
            if is_member(group, pid):
                result.append((pid, client))
        return result

    def _push(self, client: "object", event: Any) -> None:
        batch = self._push_batch
        if batch is not None:
            if batch and batch[-1][0] is client:
                batch[-1][1].append(event)
            else:
                batch.append((client, [event]))
            return
        self.after(
            self.config.ipc_delay,
            lambda: client.deliver_event(event),
            label=f"{self.name}.ipc",
        )

    def _deliver_app(self, message: DataMessage) -> None:
        group = message.group
        if group.startswith("#"):
            # Private (unicast) message: deliver to the target client only.
            try:
                target = ProcessId.parse(group)
            except ValueError:
                return
            if target.daemon.name != self.name:
                return
            client = self.clients.get(target.private_name)
            if client is not None:
                event = DataEvent(
                    group=GroupId(group),
                    sender=message.origin,
                    service=message.service,
                    payload=message.payload,
                    seq=message.origin_seq,
                )
                self.client_messages_delivered += 1
                self.client_bytes_delivered += message.wire_size()
                self._push(client, event)
            return
        event = DataEvent(
            group=GroupId(group),
            sender=message.origin,
            service=message.service,
            payload=message.payload,
            seq=message.origin_seq,
        )
        for pid, client in self._local_members(group):
            if message.service & ServiceType.SELF_DISCARD and message.origin is not None:
                if pid == str(message.origin):
                    continue
            self.client_messages_delivered += 1
            self.client_bytes_delivered += message.wire_size()
            self._push(client, event)

    def _group_event(
        self,
        group: str,
        cause: MembershipCause,
        joined: Set[str],
        left: Set[str],
        counter: Optional[int] = None,
    ) -> None:
        if counter is None:
            counter = self.groups.bump_change(group)
        members = tuple(
            ProcessId.parse(m) for m in self.groups.members_of(group)
        )
        event = MembershipEvent(
            group=GroupId(group),
            view_id=GroupViewId(self.view, counter),
            members=members,
            cause=cause,
            joined=frozenset(ProcessId.parse(m) for m in joined),
            left=frozenset(ProcessId.parse(m) for m in left),
        )
        self.kernel.tracer.record(
            "daemon.group_event",
            me=self.name,
            group=group,
            cause=cause.value,
            size=len(members),
        )
        for __, client in self._local_members(group):
            self._push(client, event)

    def _apply_join(self, message: DataMessage) -> None:
        pid = str(message.origin)
        if self.groups.join(message.group, pid):
            self._group_event(message.group, MembershipCause.JOIN, {pid}, set())

    def _apply_leave(self, message: DataMessage, cause: MembershipCause) -> None:
        pid = str(message.origin)
        # The leaver gets a self-leave notification, not the new view.
        if message.origin.daemon.name == self.name:
            client = self.clients.get(message.origin.private_name)
            if client is not None and self.groups.is_member(message.group, pid):
                self._push(client, SelfLeaveEvent(group=GroupId(message.group)))
        if self.groups.leave(message.group, pid):
            self._group_event(message.group, cause, set(), {pid})

    def _apply_disconnect(self, message: DataMessage) -> None:
        pid = str(message.origin)
        for group in message.payload:
            if self.groups.leave(group, pid):
                self._group_event(
                    group, MembershipCause.DISCONNECT, set(), {pid}
                )

    # ------------------------------------------------------------------
    # view installation
    # ------------------------------------------------------------------

    def _deliver_transitional(self, install: Install) -> None:
        """EVS transitional configuration: for each group about to change,
        local members learn the co-moving subset (current members whose
        daemons travel with us to the new view) before the final old-view
        messages arrive.  Messages delivered between this signal and the
        regular membership are guaranteed shared exactly with that subset.
        """
        surviving = set(install.members)
        for group in self.groups.groups():
            current = self.groups.members_of(group)
            comoving = tuple(
                m for m in current if daemon_of(m) in surviving
            )
            if set(comoving) == set(install.groups.get(group, ())) and len(
                comoving
            ) == len(current):
                continue  # nothing changes for this group
            event = MembershipEvent(
                group=GroupId(group),
                view_id=GroupViewId(self.view, self.groups.change_counter.get(group, 0)),
                members=tuple(ProcessId.parse(m) for m in comoving),
                cause=MembershipCause.TRANSITIONAL,
            )
            for __, client in self._local_members(group):
                self._push(client, event)

    def _commit_install(self, install: Install) -> None:
        # Flush coalesced old-view traffic before the view switches: the
        # buffered messages belong to the closing view (peers still in it
        # ingest them; everyone else drops them as stale, exactly like
        # in-flight datagrams — the complement repairs real losses).
        self._flush_packed()
        # 0. Transitional configuration (EVS): before the final old-view
        #    messages are flushed, tell affected local group members which
        #    co-moving subset those messages are guaranteed shared with.
        self._deliver_transitional(install)
        # 1. Flush the old view: deliver the same old-view message set as
        #    every daemon travelling with us (EVS).
        complement = install.complements.get(self.view, ())
        synced = install.synced.get(self.view, (self.name,))
        unsequenced = self.pipeline.flush_with(complement, synced)
        # 2. Compute group deltas between the pre-install table and the
        #    merged table (after pruning departed daemons).
        before = self.groups.snapshot()
        after = install.groups
        self.view = install.new_view
        self.view_members = install.members
        self.views_installed += 1
        self.groups.replace(after)
        self.pipeline = self._make_pipeline(
            self.view, self.view_members, install.start_lamport
        )
        if hasattr(self.pipeline, "start_token"):
            self.pipeline.start_token()
        self._view_mismatch_since = {}
        self.kernel.tracer.record(
            "daemon.install",
            me=self.name,
            view=str(self.view),
            members=list(install.members),
        )
        # Change counters must advance identically on every daemon of the
        # new view (flush acknowledgements are keyed by them), so every
        # group in the merged table gets exactly one install-time bump.
        # Whether the group's members are *notified* must be decided
        # uniformly too: a daemon-local "nothing changed here" test
        # diverges under asymmetric failures (one side may have dropped
        # and re-gained members the other side kept throughout), leaving
        # part of a group flushing a view the rest never saw.  The
        # uniform rule: always notify when the group's hosting daemons
        # arrive from more than one prior view (a merge for this group —
        # ``install.synced`` is identical on every receiving daemon, so
        # all of them agree); otherwise the purely local delta decides,
        # which is safe because single-origin hosting daemons share the
        # same group history.  A member we still list whose daemon comes
        # from another prior view went through views we never saw (we
        # were stalled or cut off), so it has left and joined, as we
        # have on its side.
        origin_of = {
            daemon: old_view
            for old_view, daemons in install.synced.items()
            for daemon in daemons
        }
        mine = origin_of.get(self.name)
        for group in sorted(after):
            counter = self.groups.bump_change(group)
            old_members = set(before.get(group, ()))
            new_members = set(after.get(group, ()))
            hosting = {daemon_of(m) for m in new_members}
            origins = {origin_of[d] for d in hosting if d in origin_of}
            if old_members == new_members and len(origins) <= 1:
                continue
            returned = {m for m in old_members & new_members
                        if origin_of.get(daemon_of(m), mine) != mine}
            self._group_event(
                group,
                MembershipCause.NETWORK,
                joined=(new_members - old_members) | returned,
                left=(old_members - new_members) | returned,
                counter=counter,
            )
        # 3. Tell the extension hook (the daemon model re-keys here).
        if self.security is not None:
            self.security.on_install(self.view, self.view_members)
        # 4. Re-submit the sends the old view never sequenced (a ring
        #    whose token had not reached them), then replay the client
        #    operations queued during the transition.
        pending, self._pending_ops = self._pending_ops, []
        for send in unsequenced:
            self._submit(*send)
        for operation in pending:
            operation()
        self._send_hello()
