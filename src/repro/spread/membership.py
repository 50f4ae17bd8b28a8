"""The daemon membership protocol: gather -> propose -> sync -> install.

Spread's real membership is Totem-derived; this engine implements the
same *service* — agreement on views across crashes, recoveries,
partitions and merges, with an EVS-preserving message flush — with a
coordinator-based protocol that is robust in an asynchronous network:

1. **GATHER** — a trigger (member silence, contact from a non-member, or
   someone else's gather announcement) puts the daemon into a gather
   round.  Daemons repeatedly announce the set of daemons they currently
   hear; announcements merge knowledge (and pull everyone to the highest
   round number).
2. **PROPOSE** — the smallest-named participant acts as coordinator and
   proposes the view.  It does so at once when it holds an announcement
   for the round from every configured daemon, each naming all of them
   alive: nobody else can join such a round.  Any other participant set
   (daemons announced this round, reachable, plus itself) is proposed
   one ``gather_timeout`` after it last changed, since only a timeout
   tells a slow daemon from a dead one.  A same-round announcement that
   reaches a daemon already syncing a proposal, from a proposed member
   and naming nobody outside it, is a late echo and is ignored.
3. **SYNC** — every proposed member replies with its *cut*: undelivered
   old-view messages, delivery horizons and its group table.
4. **INSTALL** — the coordinator unions the cuts per old view and
   broadcasts the install message; everyone flushes its old pipeline
   with the union (yielding the EVS same-set guarantee for daemons that
   travel together) and installs the new view.

Any failure (missing sync, missing install, new trigger) restarts the
gather with a higher round number, so cascading faults converge once the
network stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.spread.config import SpreadConfig
from repro.spread.messages import GatherAnnounce, Install, Propose, SyncInfo
from repro.types import ViewId

STATE_OP = "op"
STATE_GATHER = "gather"
STATE_SYNC_WAIT = "sync_wait"  # member: sent cut, awaiting install
STATE_COLLECT = "collect"  # coordinator: awaiting cuts


def _replay_group_controls(merged_groups, complements, members):
    """Apply the group-change control messages found in the complements
    to the merged group table (see the call site for why)."""
    from repro.spread.groups import GroupTable, daemon_of
    from repro.spread.messages import (
        KIND_DISCONNECT,
        KIND_GROUP_JOIN,
        KIND_GROUP_LEAVE,
    )

    table = GroupTable()
    table.replace(merged_groups)
    surviving = set(members)
    for old_view in sorted(complements, key=str):
        controls = [
            m
            for m in complements[old_view]
            if m.kind in (KIND_GROUP_JOIN, KIND_GROUP_LEAVE, KIND_DISCONNECT)
        ]
        controls.sort(key=lambda m: (m.lamport, m.sender_daemon, m.seq))
        for message in controls:
            pid = str(message.origin)
            if message.kind == KIND_GROUP_JOIN:
                if daemon_of(pid) in surviving:
                    table.join(message.group, pid)
            elif message.kind == KIND_GROUP_LEAVE:
                table.leave(message.group, pid)
            else:  # disconnect: payload lists the groups
                for group in message.payload:
                    table.leave(group, pid)
    return table.snapshot()


class MembershipEngine:
    """Membership state machine for one daemon.

    The engine is transport-agnostic: the owning daemon supplies
    callbacks for broadcasting/unicasting control messages, producing the
    local cut, and committing an install.
    """

    def __init__(
        self,
        me: str,
        config: SpreadConfig,
        send: Callable[[str, object], None],
        broadcast_all: Callable[[object], None],
        make_sync: Callable[[int, ViewId], SyncInfo],
        commit: Callable[[Install], None],
        schedule: Callable[[float, Callable[[], None]], None],
        alive_set: Callable[[], Set[str]],
        trace: Callable[..., None],
    ) -> None:
        self.me = me
        self.config = config
        self._send = send
        self._broadcast_all = broadcast_all
        self._make_sync = make_sync
        self._commit = commit
        self._schedule = schedule
        self._alive_set = alive_set
        self._trace = trace

        self.state = STATE_OP
        self.round_id = 0
        self.completed_round = 0
        self.incarnation = 0
        self._announced: Dict[str, GatherAnnounce] = {}
        self._gather_snapshot: Set[str] = set()
        self._proposal: Optional[Propose] = None
        self._cuts: Dict[str, SyncInfo] = {}
        self._proposal_counter = 0
        self._deadline_token = 0
        self._everyone = frozenset(config.daemons)

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------

    def trigger(self, reason: str) -> None:
        """Start (or restart) a gather round."""
        if self.state == STATE_GATHER:
            return
        self.round_id = max(self.round_id, self.completed_round) + 1
        self._enter_gather(reason)

    def _enter_gather(self, reason: str) -> None:
        self.state = STATE_GATHER
        self._announced = {}
        self._proposal = None
        self._cuts = {}
        self._trace("memb.gather", me=self.me, round=self.round_id, reason=reason)
        self._announce()
        self._arm_gather()

    def _announce(self) -> None:
        announce = GatherAnnounce(
            sender=self.me,
            round_id=self.round_id,
            alive=frozenset(self._alive_set() | {self.me}),
            view_id=ViewId(0, 0, self.me),  # informational only
            incarnation=self.incarnation,
        )
        self._announced[self.me] = announce
        self._broadcast_all(announce)

    def _participants(self) -> Set[str]:
        """Daemons announced this round that are reachable, plus me."""
        reachable = self._alive_set() | {self.me}
        participants = {
            name
            for name, announce in self._announced.items()
            if announce.round_id == self.round_id and name in reachable
        }
        participants.add(self.me)
        return participants

    def _arm_gather(self) -> None:
        """Snapshot the participants and give them ``gather_timeout`` to
        change; the deadline proposes if they did not."""
        self._gather_snapshot = self._participants()
        self._arm_deadline(self.config.gather_timeout)

    def _arm_deadline(self, delay: float) -> None:
        self._deadline_token += 1
        token = self._deadline_token
        self._schedule(delay, lambda: self._deadline(token))

    def _deadline(self, token: int) -> None:
        if token != self._deadline_token:
            return  # superseded
        if self.state == STATE_GATHER:
            self._gather_deadline()
        elif self.state in (STATE_COLLECT, STATE_SYNC_WAIT):
            # Sync or install never completed: regather with a new round.
            self.round_id += 1
            self._enter_gather("sync-timeout")

    # ------------------------------------------------------------------
    # gather handling
    # ------------------------------------------------------------------

    def on_gather(self, announce: GatherAnnounce) -> None:
        if announce.round_id <= self.completed_round:
            return  # stale round
        if self._is_late_echo(announce):
            return
        if announce.round_id > self.round_id:
            self.round_id = announce.round_id
            self._enter_gather("pulled-to-higher-round")
        elif self.state != STATE_GATHER:
            self.round_id = max(self.round_id, announce.round_id)
            self._enter_gather("peer-gather")
        previous = self._announced.get(announce.sender)
        self._announced[announce.sender] = announce
        if previous is None or previous.alive != announce.alive:
            # Knowledge changed: re-announce so everyone converges, then
            # propose if no configured daemon is left to hear from, or
            # else restart the stability clock.
            self._announce()
            if self._round_is_complete():
                self._propose(self._everyone)
            else:
                self._arm_gather()

    def _is_late_echo(self, announce: GatherAnnounce) -> bool:
        """A same-round announcement from a member of the proposal being
        synced that names nobody outside it: it tells nothing the
        proposal did not already act on."""
        proposal = self._proposal
        return (
            self.state in (STATE_COLLECT, STATE_SYNC_WAIT)
            and proposal is not None
            and announce.round_id == self.round_id
            and announce.sender in proposal.members
            and announce.alive <= set(proposal.members)
        )

    def _round_is_complete(self) -> bool:
        """I coordinate, and every configured daemon announced this round
        naming all of them alive: no daemon is left to wait for."""
        everyone = self._everyone
        return (
            self.me == min(everyone)
            and self._participants() == everyone
            and all(everyone <= self._announced[name].alive for name in everyone)
        )

    def _gather_deadline(self) -> None:
        participants = self._participants()
        if participants != self._gather_snapshot:
            self._announce()
            self._arm_gather()
            return
        coordinator = min(participants)
        if coordinator != self.me:
            # Wait for the coordinator's proposal; guard with a timeout.
            self._arm_deadline(self.config.sync_timeout)
            self.state = STATE_GATHER  # remain until a propose arrives
            return
        self._propose(participants)

    def _propose(self, participants) -> None:
        self._proposal_counter += 1
        members = tuple(sorted(participants))
        new_view = ViewId(
            epoch=self.round_id, counter=self._proposal_counter, coordinator=self.me
        )
        proposal = Propose(
            coordinator=self.me,
            round_id=self.round_id,
            new_view=new_view,
            members=members,
        )
        self._trace("memb.propose", me=self.me, view=str(new_view), members=members)
        self.state = STATE_COLLECT
        self._proposal = proposal
        self._cuts = {}
        for member in members:
            if member != self.me:
                self._send(member, proposal)
        self._arm_deadline(self.config.sync_timeout)
        # The coordinator contributes its own cut.
        self.on_sync(self._make_sync(self.round_id, new_view))

    # ------------------------------------------------------------------
    # proposal / sync handling
    # ------------------------------------------------------------------

    def on_propose(self, proposal: Propose) -> None:
        if proposal.round_id < self.round_id or proposal.round_id <= self.completed_round:
            return  # stale
        if self.me not in proposal.members:
            return
        if self._proposal is not None and self.state == STATE_SYNC_WAIT:
            # Prefer the lowest-named coordinator in a split round.
            if proposal.coordinator >= self._proposal.coordinator:
                return
        self.round_id = proposal.round_id
        self._proposal = proposal
        self.state = STATE_SYNC_WAIT
        self._send(
            proposal.coordinator, self._make_sync(proposal.round_id, proposal.new_view)
        )
        self._arm_deadline(self.config.sync_timeout)

    def on_sync(self, sync: SyncInfo) -> None:
        if self.state != STATE_COLLECT or self._proposal is None:
            return
        if sync.round_id != self._proposal.round_id:
            return
        if sync.sender not in self._proposal.members:
            return
        self._cuts[sync.sender] = sync
        if set(self._cuts) != set(self._proposal.members):
            return
        install = self._build_install()
        self._trace("memb.install_send", me=self.me, view=str(install.new_view))
        for member in self._proposal.members:
            if member != self.me:
                self._send(member, install)
        self.on_install(install)

    def _build_install(self) -> Install:
        assert self._proposal is not None
        proposal = self._proposal
        by_old_view: Dict[ViewId, List[SyncInfo]] = {}
        for cut in self._cuts.values():
            by_old_view.setdefault(cut.old_view, []).append(cut)
        complements: Dict[ViewId, Tuple] = {}
        synced: Dict[ViewId, Tuple[str, ...]] = {}
        for old_view, cuts in by_old_view.items():
            union: Dict[Tuple[str, int], object] = {}
            for cut in cuts:
                for message in cut.undelivered:
                    union[message.key()] = message
            complements[old_view] = tuple(
                union[key] for key in sorted(union)
            )
            synced[old_view] = tuple(sorted(cut.sender for cut in cuts))
        from repro.spread.groups import GroupTable

        merged_groups = GroupTable.merged(
            (cut.groups for cut in self._cuts.values()), proposal.members
        )
        # The cuts' group snapshots predate the flush: group-change
        # control messages sitting in the complements will still be
        # delivered by every member while flushing, so replay them onto
        # the merged table (all operations are idempotent, so messages
        # some members already applied are harmless).  Without this, an
        # install would silently revert joins/leaves that raced with it.
        merged_groups = _replay_group_controls(
            merged_groups, complements, proposal.members
        )
        start_lamport = max(cut.lamport for cut in self._cuts.values()) + 1
        return Install(
            coordinator=self.me,
            round_id=proposal.round_id,
            new_view=proposal.new_view,
            members=proposal.members,
            complements=complements,
            synced=synced,
            groups=merged_groups,
            start_lamport=start_lamport,
        )

    def on_install(self, install: Install) -> None:
        if install.round_id <= self.completed_round:
            return
        if self.me not in install.members:
            return
        if self._proposal is not None and install.new_view != self._proposal.new_view:
            # An install for a different proposal in this round; accept it
            # only from a lower-named coordinator.
            if install.coordinator > self._proposal.coordinator:
                return
        self.completed_round = install.round_id
        self.round_id = install.round_id
        self.state = STATE_OP
        self._proposal = None
        self._cuts = {}
        self._deadline_token += 1  # cancel pending deadline
        self._commit(install)
