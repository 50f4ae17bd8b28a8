"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError, DeadlockError
from repro.sim.kernel import Kernel


def test_clock_starts_at_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_events_fire_in_time_order():
    kernel = Kernel()
    fired = []
    kernel.call_at(2.0, lambda: fired.append("b"))
    kernel.call_at(1.0, lambda: fired.append("a"))
    kernel.call_at(3.0, lambda: fired.append("c"))
    kernel.run()
    assert fired == ["a", "b", "c"]
    assert kernel.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    kernel = Kernel()
    fired = []
    for name in "abcde":
        kernel.call_at(1.0, lambda n=name: fired.append(n))
    kernel.run()
    assert fired == list("abcde")


def test_priority_breaks_ties_before_sequence():
    kernel = Kernel()
    fired = []
    kernel.call_at(1.0, lambda: fired.append("low"), priority=5)
    kernel.call_at(1.0, lambda: fired.append("high"), priority=0)
    kernel.run()
    assert fired == ["high", "low"]


def test_call_later_is_relative_to_now():
    kernel = Kernel()
    times = []
    kernel.call_at(5.0, lambda: kernel.call_later(2.5, lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [7.5]


def test_scheduling_in_the_past_raises():
    kernel = Kernel()
    kernel.call_at(10.0, lambda: None)
    kernel.run()
    with pytest.raises(ClockError):
        kernel.call_at(5.0, lambda: None)


def test_negative_delay_raises():
    kernel = Kernel()
    with pytest.raises(ClockError):
        kernel.call_later(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    kernel = Kernel()
    fired = []
    event = kernel.call_at(1.0, lambda: fired.append("x"))
    event.cancel()
    kernel.run()
    assert fired == []


def test_cancel_is_idempotent():
    kernel = Kernel()
    event = kernel.call_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    kernel.run()


def test_run_until_time_bound_stops_early_and_advances_clock():
    kernel = Kernel()
    fired = []
    kernel.call_at(1.0, lambda: fired.append(1))
    kernel.call_at(10.0, lambda: fired.append(10))
    kernel.run(until=5.0)
    assert fired == [1]
    assert kernel.now == 5.0
    kernel.run()
    assert fired == [1, 10]


def test_run_max_events_budget():
    kernel = Kernel()
    fired = []
    for i in range(10):
        kernel.call_at(float(i), lambda i=i: fired.append(i))
    kernel.run(max_events=3)
    assert fired == [0, 1, 2]


def test_run_until_predicate():
    kernel = Kernel()
    counter = {"n": 0}

    def bump():
        counter["n"] += 1
        if counter["n"] < 5:
            kernel.call_later(1.0, bump)

    kernel.call_later(1.0, bump)
    kernel.run_until(lambda: counter["n"] >= 3)
    assert counter["n"] == 3


def test_run_until_raises_on_drained_queue():
    kernel = Kernel()
    kernel.call_at(1.0, lambda: None)
    with pytest.raises(DeadlockError):
        kernel.run_until(lambda: False)


def test_run_until_raises_on_timeout():
    kernel = Kernel()

    def reschedule():
        kernel.call_later(100.0, reschedule)

    kernel.call_later(100.0, reschedule)
    with pytest.raises(DeadlockError):
        kernel.run_until(lambda: False, timeout=500.0)


def test_events_processed_counts():
    kernel = Kernel()
    for i in range(4):
        kernel.call_at(float(i), lambda: None)
    kernel.run()
    assert kernel.events_processed == 4


def test_pending_events_excludes_cancelled():
    kernel = Kernel()
    kernel.call_at(1.0, lambda: None)
    event = kernel.call_at(2.0, lambda: None)
    event.cancel()
    assert kernel.pending_events == 1


def test_nested_scheduling_during_event():
    kernel = Kernel()
    fired = []

    def outer():
        fired.append("outer")
        kernel.call_later(0.0, lambda: fired.append("inner"))

    kernel.call_at(1.0, outer)
    kernel.call_at(1.0, lambda: fired.append("sibling"))
    kernel.run()
    # inner is scheduled at t=1.0 but after sibling (later sequence number)
    assert fired == ["outer", "sibling", "inner"]


# -- events left queued at a horizon keep their global order ---------------
#
# An event past the run(until=...) horizon stays queued, and an event
# scheduled afterwards — between runs or from a callback — that sorts
# before it must still dispatch first, without rolling the clock back.


def test_event_scheduled_between_runs_beats_horizon_stash():
    kernel = Kernel()
    fired = []
    kernel.call_at(5.0, lambda: fired.append(("late", kernel.now)))
    kernel.run(until=3.0)
    assert kernel.now == 3.0
    kernel.call_at(4.0, lambda: fired.append(("early", kernel.now)))
    kernel.run()
    assert fired == [("early", 4.0), ("late", 5.0)]
    assert kernel.now == 5.0


def test_ready_event_scheduled_between_runs_beats_horizon_stash():
    # The between-runs event is due at the current time, at default
    # priority — same ordering requirement.
    kernel = Kernel()
    fired = []
    kernel.call_at(5.0, lambda: fired.append(("late", kernel.now)))
    kernel.run(until=3.0)
    kernel.call_at(3.0, lambda: fired.append(("now", kernel.now)))
    kernel.run()
    assert fired == [("now", 3.0), ("late", 5.0)]


def test_callback_schedule_beats_held_scheduler_head():
    # A t=0 callback schedules t=1 work while the t=5 event is queued;
    # it must run before the t=5 event.
    kernel = Kernel()
    fired = []

    def ready_callback():
        fired.append(("ready", kernel.now))
        kernel.call_later(1.0, lambda: fired.append(("timer", kernel.now)))

    kernel.call_at(5.0, lambda: fired.append(("head", kernel.now)))
    kernel.call_at(0.0, ready_callback)
    kernel.run()
    assert fired == [("ready", 0.0), ("timer", 1.0), ("head", 5.0)]


def test_clock_never_moves_backwards_across_horizon_runs():
    kernel = Kernel()
    observed = []
    for when in (2.0, 4.0, 6.0, 8.0):
        kernel.call_at(when, lambda: observed.append(kernel.now))
    kernel.run(until=3.0)
    kernel.call_at(3.5, lambda: observed.append(kernel.now))
    kernel.run(until=5.0)
    kernel.call_at(5.5, lambda: observed.append(kernel.now))
    kernel.run()
    assert observed == sorted(observed)
    assert observed == [2.0, 3.5, 4.0, 5.5, 6.0, 8.0]


def test_cancelled_stash_and_undercutting_event_accounting():
    # Cancel the event left beyond the horizon, then undercut it: it
    # must not fire, and counters stay consistent.
    kernel = Kernel()
    fired = []
    handle = kernel.call_at(5.0, lambda: fired.append("late"))
    kernel.run(until=3.0)
    handle.cancel()
    kernel.call_at(4.0, lambda: fired.append("early"))
    kernel.run()
    assert fired == ["early"]
    assert kernel.pending_events == 0
    assert kernel.events_processed == 1
    assert kernel.events_cancelled == 1


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_tied_times_dispatch_in_seq_order(times):
    """Duplicate timestamps must resolve by scheduling order."""
    kernel = Kernel(seed=1)
    log = []
    for index, when in enumerate(sorted(times)):
        kernel.call_at(when, lambda i=index: log.append(i))
    kernel.run()
    assert log == sorted(log)


#: A horizon-split program: per-segment event offsets (relative to the
#: segment's start clock) plus the horizon gap to the next ``run(until)``
#: call.  Events scheduled between runs can legally sort before an event
#: left queued at an earlier horizon — the regression surface.
_SEGMENTS = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=0,
            max_size=8,
        ),
        st.floats(min_value=0.1, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
)


@given(segments=_SEGMENTS)
@settings(max_examples=60, deadline=None)
def test_horizon_split_runs_dispatch_in_global_order(segments):
    """Interleaving ``run(until=...)`` with fresh scheduling must still
    dispatch every event in global ``(time, priority, seq)`` order,
    checked against a sorted ground-truth oracle."""
    kernel = Kernel(seed=3)
    log = []
    expected = []
    for offsets, gap in segments:
        for offset, priority in offsets:
            when = kernel.now + offset
            handle = kernel.call_at(
                when, lambda: log.append(kernel.now), priority=priority
            )
            expected.append((when, priority, handle.seq))
        kernel.run(until=kernel.now + gap)
    kernel.run()
    assert log == sorted(log), "clock moved backwards"
    assert log == [time for time, __, __ in sorted(expected)]
    assert kernel.pending_events == 0
