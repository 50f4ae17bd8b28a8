"""SecureGroupSession unit tests: events in, effects out.

The session does no I/O, so these tests need no simulator and no stub
of the flush layer: each one hands the session events and asserts on
the effects it returns — envelope filtering, restart-request attempt
bumping, refresh announces, fingerprint-mismatch handling, the timers
it asks for — and the last one runs three sessions over an in-memory
agreed order.
"""

from collections import deque

import pytest

from repro.cliques.directory import KeyDirectory
from repro.crypto.blowfish import Blowfish
from repro.crypto.cipher_cache import default_cache
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.errors import NoGroupKeyError
from repro.secure.cascade import (
    AgreementEnvelope,
    KeyConfirm,
    RefreshAnnounce,
    RestartRequest,
)
from repro.secure.events import (
    FLUSH_OK,
    KeyOperation,
    RekeyStartedEvent,
    SecureDataEvent,
    SecureMembershipEvent,
    Send,
    Timer,
)
from repro.secure.handlers.cliques_handler import CliquesModule
from repro.secure.policy import default_registry
from repro.secure.session import (
    AGREEMENT_WATCHDOG,
    STATE_AGREEING,
    STATE_CONFIRMED,
    STATE_IDLE,
    CryptoCostModel,
    SecureGroupSession,
)
from repro.sim.trace import Tracer
from repro.spread.events import (
    DataEvent,
    FlushRequestEvent,
    GroupViewId,
    MembershipEvent,
    SelfLeaveEvent,
)
from repro.types import GroupId, MembershipCause, ProcessId, ServiceType, ViewId

ME = "#me#d0"


def make_session(me=ME, peers=()):
    params = DHParams.tiny_test()
    directory = KeyDirectory()
    source = DeterministicSource(7)
    keypair = DHKeyPair.generate(params, source)
    module = CliquesModule(
        member=me,
        params=params,
        long_term=keypair,
        directory=directory,
        source=source,
    )
    directory.register(me, keypair.public)
    for peer in peers:
        peer_pair = DHKeyPair.generate(params, DeterministicSource(hash(peer) & 0xFF))
        directory.register(peer, peer_pair.public)
    return SecureGroupSession(
        group="g",
        module=module,
        me=me,
        tracer=Tracer(enabled=False),
        random_source=source,
    )


def view_event(members, cause=MembershipCause.JOIN, joined=(), left=(), change=1):
    return MembershipEvent(
        group=GroupId("g"),
        view_id=GroupViewId(ViewId(1, 1, "d0"), change),
        members=tuple(ProcessId.parse(m) for m in members),
        cause=cause,
        joined=frozenset(ProcessId.parse(m) for m in joined),
        left=frozenset(ProcessId.parse(m) for m in left),
    )


def data_from(sender, payload, group="g"):
    return DataEvent(
        group=GroupId(group),
        sender=ProcessId.parse(sender),
        service=ServiceType.AGREED,
        payload=payload,
        seq=1,
    )


def sent(effects, target=None):
    """Payloads the effects send to ``target`` (None: the group)."""
    return [
        payload
        for effect in effects
        if isinstance(effect, Send)
        for to, payload in effect.messages
        if to == target
    ]


def timers(effects, kind):
    return [e for e in effects if isinstance(e, Timer) and e.kind == kind]


def of_type(effects, cls):
    return [e for e in effects if isinstance(e, cls)]


def confirmed_singleton():
    session = make_session()
    effects = session.handle_event(view_event([ME], joined=[ME]))
    (confirm,) = of_type(sent(effects), KeyConfirm)
    session.handle_event(data_from(ME, confirm))
    return session


# -- singleton fast path ------------------------------------------------------------


def test_singleton_view_keys_and_confirms_immediately():
    session = make_session()
    effects = session.handle_event(view_event([ME], joined=[ME]))
    # Module keyed synchronously; our own confirm is multicast.
    confirms = of_type(sent(effects), KeyConfirm)
    assert len(confirms) == 1
    # Completion needs our own confirm back (it rides the group stream).
    effects = session.handle_event(data_from(ME, confirms[0]))
    assert session.state == STATE_CONFIRMED
    (secure_view,) = of_type(effects, SecureMembershipEvent)
    assert secure_view.attempt == 0


def test_effects_come_in_decision_order():
    session = make_session()
    effects = session.handle_event(view_event([ME], joined=[ME]))
    assert [type(e) for e in effects] == [Timer, RekeyStartedEvent, Send]
    assert effects[0] == Timer(
        AGREEMENT_WATCHDOG, "watchdog", (session.view_key, 0)
    )


def test_flush_request_is_answered():
    session = make_session()
    assert session.handle_event(FlushRequestEvent(GroupId("g"))) == [FLUSH_OK]


# -- envelope filtering ---------------------------------------------------------------


def test_envelope_for_wrong_view_dropped():
    session = confirmed_singleton()
    bogus_view = GroupViewId(ViewId(9, 9, "d9"), 9)
    envelope = AgreementEnvelope(bogus_view, 0, "not-a-token")
    assert session.handle_event(data_from("#other#d1", envelope)) == []


def test_envelope_for_wrong_attempt_dropped():
    session = confirmed_singleton()
    envelope = AgreementEnvelope(session.view_key, 5, "not-a-token")
    assert session.handle_event(data_from("#other#d1", envelope)) == []


def test_garbage_token_triggers_restart_request():
    session = confirmed_singleton()
    session.state = STATE_AGREEING  # mid-agreement
    envelope = AgreementEnvelope(session.view_key, session.attempt, object())
    effects = session.handle_event(data_from("#other#d1", envelope))
    restarts = of_type(sent(effects), RestartRequest)
    assert restarts and restarts[-1].from_attempt == session.attempt


# -- restart requests --------------------------------------------------------------------


def test_restart_request_bumps_attempt_once():
    session = confirmed_singleton()
    key = session.view_key
    session.handle_event(data_from("#other#d1", RestartRequest(key, 0)))
    assert session.attempt == 1
    # A second request for the already-superseded attempt is ignored.
    session.handle_event(data_from("#another#d2", RestartRequest(key, 0)))
    assert session.attempt == 1
    # A request for the current attempt bumps again.
    session.handle_event(data_from("#other#d1", RestartRequest(key, 1)))
    assert session.attempt == 2


def test_restart_request_for_other_view_ignored():
    session = confirmed_singleton()
    other = GroupViewId(ViewId(8, 8, "d8"), 8)
    assert session.handle_event(data_from("#other#d1", RestartRequest(other, 0))) == []
    assert session.attempt == 0
    assert session.state == STATE_CONFIRMED


def test_restart_as_singleton_founder_rekeys():
    session = confirmed_singleton()
    old = session.key_fingerprint
    effects = session.handle_event(
        data_from("#x#d1", RestartRequest(session.view_key, 0))
    )
    # We are the only member and the anchor: restart re-keys at once.
    (confirm,) = of_type(sent(effects), KeyConfirm)
    assert confirm.attempt == 1
    session.handle_event(data_from(ME, confirm))
    assert session.state == STATE_CONFIRMED
    assert session.key_fingerprint != old


def test_delayed_round_keeps_the_attempt_it_was_computed_for():
    """A costed round is labelled when computed: a restart landing
    inside its crypto delay must not relabel it as the next attempt."""
    session = make_session(peers=("#peer#d1",))
    effects = session.handle_event(view_event([ME], joined=[ME]))
    (confirm,) = of_type(sent(effects), KeyConfirm)
    session.handle_event(data_from(ME, confirm))
    session.cost_model = CryptoCostModel(exp_cost=0.01)
    # The peer joins: our join round costs exponentiations, so it waits.
    effects = session.handle_event(
        view_event([ME, "#peer#d1"], joined=["#peer#d1"], change=2)
    )
    (first,) = timers(effects, "crypto")
    assert first.delay > 0 and not sent(effects, "#peer#d1")
    # A restart lands inside the delay and computes attempt 1's round.
    effects = session.handle_event(
        data_from("#peer#d1", RestartRequest(session.view_key, 0))
    )
    assert session.attempt == 1
    (second,) = timers(effects, "crypto")
    # Due, each timer sends the round it carries, labelled as computed.
    for timer, attempt in ((first, 0), (second, 1)):
        effects = session.handle_event(timer)
        assert effects == [timer.data]
        envelopes = sent(effects, "#peer#d1")
        assert envelopes and {e.attempt for e in envelopes} == {attempt}


# -- timers ---------------------------------------------------------------------------


def test_watchdog_restarts_only_a_wedged_attempt():
    session = make_session()
    effects = session.handle_event(view_event([ME], joined=[ME]))
    (watchdog,) = timers(effects, "watchdog")
    # Still agreeing the same (view, attempt): ask for a restart round.
    (restart,) = of_type(sent(session.handle_event(watchdog)), RestartRequest)
    assert (restart.view_key, restart.from_attempt) == (session.view_key, 0)
    # Once the attempt confirmed, the same timer does nothing.
    (confirm,) = of_type(sent(effects), KeyConfirm)
    session.handle_event(data_from(ME, confirm))
    assert session.handle_event(watchdog) == []


def test_sealed_data_waits_for_one_unseal_timer():
    session = confirmed_singleton()
    sealed = [session.seal(payload) for payload in (b"one", b"two")]
    effects = session.handle_event(data_from(ME, sealed[0]))
    (unseal,) = timers(effects, "unseal")
    assert unseal.delay == 0.0
    assert session.handle_event(data_from(ME, sealed[1])) == []
    delivered = session.handle_event(unseal)
    assert [e.payload for e in of_type(delivered, SecureDataEvent)] == [b"one", b"two"]


# -- refresh announce ------------------------------------------------------------------------


def test_refresh_announce_from_peer_bumps_attempt():
    session = confirmed_singleton()
    session.handle_event(data_from("#peer#d1", RefreshAnnounce(session.view_key, 0)))
    assert session.attempt == 1
    assert session.state == STATE_AGREEING


def test_own_refresh_announce_ignored_on_reflection():
    session = confirmed_singleton()
    session.handle_event(data_from(ME, RefreshAnnounce(session.view_key, 0)))
    assert session.attempt == 0  # we bump before broadcasting, not after
    assert session.state == STATE_CONFIRMED


def test_stale_refresh_announce_ignored():
    session = confirmed_singleton()
    session.handle_event(data_from("#peer#d1", RefreshAnnounce(session.view_key, 7)))
    assert session.attempt == 0


def test_refresh_announces_before_it_rekeys():
    session = confirmed_singleton()
    effects = session.refresh()
    # The controller announces the refresh under the current attempt ...
    announce, *rest = sent(effects)
    assert announce == RefreshAnnounce(session.view_key, 0)
    # ... and then sends the refresh round as the next attempt.
    assert session.attempt == 1
    assert [e.attempt for e in of_type(rest, AgreementEnvelope)] == [1]


# -- key confirmation ---------------------------------------------------------------------------


def test_fingerprint_mismatch_triggers_restart():
    session = make_session()
    session.handle_event(view_event([ME], joined=[ME]))
    forged = KeyConfirm(session.view_key, 0, "deadbeef")
    effects = session.handle_event(data_from(ME, forged))
    assert of_type(sent(effects), RestartRequest)
    assert session.state != STATE_CONFIRMED


def test_confirm_for_wrong_attempt_ignored():
    session = make_session()
    session.handle_event(view_event([ME], joined=[ME]))
    stale = KeyConfirm(session.view_key, 3, "whatever")
    session.handle_event(data_from(ME, stale))
    assert session.state == STATE_AGREEING


# -- sealing and leaving ----------------------------------------------------------------------

def test_send_blocked_while_agreeing():
    session = make_session()
    session.handle_event(view_event([ME], joined=[ME]))
    assert session.state == STATE_AGREEING
    with pytest.raises(NoGroupKeyError):
        session.seal(b"early")


def test_self_leave_retires_the_key():
    session = confirmed_singleton()
    session.seal(b"before leaving")
    key = session._session_keys.encryption_key
    assert key in default_cache()
    leave = SelfLeaveEvent(GroupId("g"))
    assert session.handle_event(leave) == [leave]
    assert session.state == STATE_IDLE and session.key_fingerprint is None
    assert key not in default_cache()


def test_a_key_nobody_used_is_never_expanded():
    before = Blowfish.constructions
    session = confirmed_singleton()
    key = session._session_keys.encryption_key
    assert session.handle_event(SelfLeaveEvent(GroupId("g")))
    assert Blowfish.constructions == before
    assert key not in default_cache()


def test_rekey_started_event_on_every_view():
    session = make_session()
    effects = session.handle_event(view_event([ME], joined=[ME]))
    (started,) = of_type(effects, RekeyStartedEvent)
    assert started.operation == KeyOperation.JOIN


# -- three sessions over an in-memory agreed order ------------------------------------------


class AgreedOrder:
    """Three members' sessions over a list in agreed order, with no
    kernel: what a member sends is appended to the list and every
    current member takes it in list order; a view is installed once
    every member of it has answered its flush request."""

    def __init__(self, module: str) -> None:
        params = DHParams.tiny_test()
        directory = KeyDirectory()
        registry = default_registry()
        self.sessions = {}
        for name in ("a", "b", "c"):
            me = f"#{name}#d0"
            source = DeterministicSource(ord(name))
            keypair = DHKeyPair.generate(params, source)
            directory.register(me, keypair.public)
            self.sessions[me] = SecureGroupSession(
                group="g",
                module=registry.create(
                    module, member=me, params=params, long_term=keypair,
                    directory=directory, source=source,
                ),
                me=me,
                tracer=Tracer(enabled=False),
                random_source=source,
            )
        self.members = []
        self.change = 0
        self.stream = deque()  # (sender, target, payload), agreed order
        self.secure_views = []  # (member, SecureMembershipEvent)

    def perform(self, me, effects) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self.stream.extend((me, *message) for message in effect.messages)
            elif isinstance(effect, Timer):
                assert effect.kind == "watchdog"  # no agreement may wedge
            elif isinstance(effect, SecureMembershipEvent):
                self.secure_views.append((me, effect))

    def pump(self) -> None:
        while self.stream:
            sender, target, payload = self.stream.popleft()
            group = "g" if target is None else target
            for me in self.members if target is None else [target]:
                event = data_from(sender, payload, group=group)
                self.perform(me, self.sessions[me].handle_event(event))

    def install(self, members, cause, joined=(), left=()) -> None:
        self.pump()
        for me in members:
            request = FlushRequestEvent(GroupId("g"))
            assert self.sessions[me].handle_event(request) == [FLUSH_OK]
        self.change += 1
        view = view_event(members, cause, joined, left, change=self.change)
        for me in left:
            self.sessions[me].handle_event(SelfLeaveEvent(GroupId("g")))
        self.members = list(members)
        for me in members:
            self.perform(me, self.sessions[me].handle_event(view))
        self.pump()

    def refresh(self) -> None:
        (controller,) = [
            me for me in self.members if self.sessions[me].module.is_controller
        ]
        self.perform(controller, self.sessions[controller].refresh())
        self.pump()


@pytest.mark.parametrize("module", default_registry().names())
def test_three_sessions_agree_one_key_per_view_without_a_kernel(module):
    a, b, c = "#a#d0", "#b#d0", "#c#d0"
    order = AgreedOrder(module)
    order.install([a], MembershipCause.JOIN, joined=[a])
    order.install([a, b], MembershipCause.JOIN, joined=[b])
    order.install([a, b, c], MembershipCause.JOIN, joined=[c])
    order.install([a, c], MembershipCause.LEAVE, left=[b])
    order.refresh()
    fingerprints = {}
    for me, view in order.secure_views:
        fingerprints.setdefault((view.view_id, view.attempt), {})[me] = (
            view.key_fingerprint
        )
    expected = [[a], [a, b], [a, b, c], [a, c], [a, c]]
    assert [sorted(keys) for keys in fingerprints.values()] == expected
    keys = [set(by_member.values()) for by_member in fingerprints.values()]
    assert all(len(key) == 1 for key in keys)  # one key per view ...
    assert len(set.union(*keys)) == len(keys)  # ... and a fresh one each time
    assert all(order.sessions[me].has_key for me in (a, c))
    assert not order.sessions[b].has_key
