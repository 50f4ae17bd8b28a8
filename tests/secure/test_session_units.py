"""SecureGroupSession unit tests against a stub flush layer.

The full-stack tests exercise happy paths; these pin the session's
internal machinery — envelope filtering, restart-request attempt
bumping, refresh announces, fingerprint-mismatch handling — without a
simulator in the loop.
"""

from types import SimpleNamespace

import pytest

from repro.cliques.directory import KeyDirectory
from repro.crypto.dh import DHKeyPair, DHParams
from repro.crypto.random_source import DeterministicSource
from repro.errors import NoGroupKeyError, SendBlockedError
from repro.secure.cascade import (
    AgreementEnvelope,
    KeyConfirm,
    RefreshAnnounce,
    RestartRequest,
)
from repro.secure.events import (
    KeyOperation,
    RekeyStartedEvent,
    SecureMembershipEvent,
)
from repro.secure.handlers.cliques_handler import CliquesModule
from repro.secure.session import (
    STATE_AGREEING,
    STATE_CONFIRMED,
    CryptoCostModel,
    SecureGroupSession,
)
from repro.sim.kernel import Kernel
from repro.spread.events import (
    DataEvent,
    GroupViewId,
    MembershipEvent,
)
from repro.types import (
    DaemonId,
    GroupId,
    MembershipCause,
    ProcessId,
    ServiceType,
    ViewId,
)


class FakeFlush:
    """Just enough of FlushClient for a session: records sends.  Its
    client's kernel is never run, so timers the session arms stay
    pending."""

    def __init__(self, me="#me#d0"):
        self._pid = ProcessId.parse(me)
        self.client = SimpleNamespace(kernel=Kernel())
        self.multicasts = []
        self.unicasts = []
        self.blocked = False

    @property
    def pid(self):
        return self._pid

    def multicast(self, group, payload, service=ServiceType.AGREED):
        if self.blocked:
            raise SendBlockedError("flushing")
        self.multicasts.append((group, payload))

    def unicast(self, target, payload, service=ServiceType.FIFO):
        if self.blocked:
            raise SendBlockedError("flushing")
        self.unicasts.append((str(target), payload))

    def flush_ok(self, group):
        pass


def pid(name, daemon="d0"):
    return ProcessId(name, DaemonId(daemon))


def make_session(me="#me#d0", peers=()):
    params = DHParams.tiny_test()
    directory = KeyDirectory()
    source = DeterministicSource(7)
    keypair = DHKeyPair.generate(params, source)
    flush = FakeFlush(me)
    events = []
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
    session = SecureGroupSession(
        group="g",
        module=module,
        flush=flush,
        emit=events.append,
        random_source=source,
    )
    return session, flush, events


def view_event(members, cause=MembershipCause.JOIN, joined=(), left=(), change=1):
    return MembershipEvent(
        group=GroupId("g"),
        view_id=GroupViewId(ViewId(1, 1, "d0"), change),
        members=tuple(ProcessId.parse(m) for m in members),
        cause=cause,
        joined=frozenset(ProcessId.parse(m) for m in joined),
        left=frozenset(ProcessId.parse(m) for m in left),
    )


def data_from(sender, payload):
    return DataEvent(
        group=GroupId("g"),
        sender=ProcessId.parse(sender),
        service=ServiceType.AGREED,
        payload=payload,
        seq=1,
    )


# -- singleton fast path ------------------------------------------------------------


def test_singleton_view_keys_and_confirms_immediately():
    session, flush, events = make_session()
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    # Module keyed synchronously; our own confirm was multicast.
    confirms = [p for __, p in flush.multicasts if isinstance(p, KeyConfirm)]
    assert len(confirms) == 1
    # Completion needs our own confirm back (it rides the group stream).
    session.handle_event(data_from("#me#d0", confirms[0]))
    assert session.state == STATE_CONFIRMED
    secure_views = [e for e in events if isinstance(e, SecureMembershipEvent)]
    assert len(secure_views) == 1
    assert secure_views[0].attempt == 0


def make_confirmed_singleton():
    session, flush, events = make_session()
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    confirm = next(p for __, p in flush.multicasts if isinstance(p, KeyConfirm))
    session.handle_event(data_from("#me#d0", confirm))
    return session, flush, events


# -- envelope filtering ---------------------------------------------------------------


def test_envelope_for_wrong_view_dropped():
    session, flush, events = make_confirmed_singleton()
    bogus_view = GroupViewId(ViewId(9, 9, "d9"), 9)
    envelope = AgreementEnvelope(bogus_view, 0, "not-a-token")
    before = len(flush.multicasts)
    session.handle_event(data_from("#other#d1", envelope))
    assert len(flush.multicasts) == before  # silently ignored


def test_envelope_for_wrong_attempt_dropped():
    session, flush, events = make_confirmed_singleton()
    envelope = AgreementEnvelope(session.view_key, 5, "not-a-token")
    before = len(flush.multicasts)
    session.handle_event(data_from("#other#d1", envelope))
    assert len(flush.multicasts) == before


def test_garbage_token_triggers_restart_request():
    session, flush, events = make_confirmed_singleton()
    session.state = STATE_AGREEING  # mid-agreement
    envelope = AgreementEnvelope(session.view_key, session.attempt, object())
    session.handle_event(data_from("#other#d1", envelope))
    restarts = [p for __, p in flush.multicasts if isinstance(p, RestartRequest)]
    assert restarts and restarts[-1].from_attempt == session.attempt


# -- restart requests --------------------------------------------------------------------


def test_restart_request_bumps_attempt_once():
    session, flush, events = make_confirmed_singleton()
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
    session, flush, events = make_confirmed_singleton()
    other = GroupViewId(ViewId(8, 8, "d8"), 8)
    session.handle_event(data_from("#other#d1", RestartRequest(other, 0)))
    assert session.attempt == 0
    assert session.state == STATE_CONFIRMED


def test_restart_as_singleton_founder_rekeys():
    session, flush, events = make_confirmed_singleton()
    old = session._session_keys.fingerprint()
    session.handle_event(data_from("#x#d1", RestartRequest(session.view_key, 0)))
    # We are the only member and the anchor: restart re-keys at once.
    confirm = [p for __, p in flush.multicasts if isinstance(p, KeyConfirm)][-1]
    assert confirm.attempt == 1
    session.handle_event(data_from("#me#d0", confirm))
    assert session.state == STATE_CONFIRMED
    assert session._session_keys.fingerprint() != old


def test_delayed_round_keeps_the_attempt_it_was_computed_for():
    """A costed round is labelled when computed: a restart landing
    inside its crypto delay must not relabel it as the next attempt."""
    session, flush, events = make_session(peers=("#peer#d1",))
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    confirm = next(p for __, p in flush.multicasts if isinstance(p, KeyConfirm))
    session.handle_event(data_from("#me#d0", confirm))
    session.cost_model = CryptoCostModel(exp_cost=0.01)
    computed_for = {}
    dispatch = session._dispatch_module_messages

    def record(messages, exponentiations=0):
        for message in messages:
            computed_for[id(message.token)] = session.attempt
        dispatch(messages, exponentiations)

    session._dispatch_module_messages = record
    # The peer joins: our join round costs exponentiations, so it waits.
    session.handle_event(
        view_event(["#me#d0", "#peer#d1"], joined=["#peer#d1"], change=2)
    )
    assert computed_for and not flush.unicasts
    # A restart lands inside the delay and computes attempt 1's round.
    session.handle_event(data_from("#peer#d1", RestartRequest(session.view_key, 0)))
    assert session.attempt == 1
    flush.client.kernel.run()
    sent = [p for __, p in flush.unicasts if isinstance(p, AgreementEnvelope)]
    assert sorted(e.attempt for e in sent) == [0, 1]
    for envelope in sent:
        assert envelope.attempt == computed_for[id(envelope.token)]


# -- refresh announce ------------------------------------------------------------------------


def test_refresh_announce_from_peer_bumps_attempt():
    session, flush, events = make_confirmed_singleton()
    session.handle_event(
        data_from("#peer#d1", RefreshAnnounce(session.view_key, 0))
    )
    assert session.attempt == 1
    assert session.state == STATE_AGREEING


def test_own_refresh_announce_ignored_on_reflection():
    session, flush, events = make_confirmed_singleton()
    session.handle_event(
        data_from("#me#d0", RefreshAnnounce(session.view_key, 0))
    )
    assert session.attempt == 0  # we bump before broadcasting, not after
    assert session.state == STATE_CONFIRMED


def test_stale_refresh_announce_ignored():
    session, flush, events = make_confirmed_singleton()
    session.handle_event(
        data_from("#peer#d1", RefreshAnnounce(session.view_key, 7))
    )
    assert session.attempt == 0


# -- key confirmation ---------------------------------------------------------------------------


def test_fingerprint_mismatch_triggers_restart():
    session, flush, events = make_session()
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    forged = KeyConfirm(session.view_key, 0, "deadbeef")
    session.handle_event(data_from("#me#d0", forged))
    restarts = [p for __, p in flush.multicasts if isinstance(p, RestartRequest)]
    assert restarts
    assert session.state != STATE_CONFIRMED


def test_confirm_for_wrong_attempt_ignored():
    session, flush, events = make_session()
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    stale = KeyConfirm(session.view_key, 3, "whatever")
    session.handle_event(data_from("#me#d0", stale))
    assert session.state == STATE_AGREEING


# -- send gating ---------------------------------------------------------------------------------


def test_send_blocked_while_agreeing():
    session, flush, events = make_session()
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    assert session.state == STATE_AGREEING
    with pytest.raises(NoGroupKeyError):
        session.send(b"early")


def test_blocked_flush_drops_control_messages_gracefully():
    session, flush, events = make_confirmed_singleton()
    flush.blocked = True
    # A restart while the next view is flushing: must not raise.
    session.handle_event(data_from("#x#d1", RestartRequest(session.view_key, 0)))
    assert session.attempt == 1


def test_rekey_started_event_on_every_view():
    session, flush, events = make_session()
    session.handle_event(view_event(["#me#d0"], joined=["#me#d0"]))
    started = [e for e in events if isinstance(e, RekeyStartedEvent)]
    assert len(started) == 1
    assert started[0].operation == KeyOperation.JOIN
