"""The discrete-event simulation kernel: virtual clock plus event queue.

The kernel is intentionally minimal.  An :class:`Event` is a callback
scheduled at a virtual time with a priority; the kernel pops events in
``(time, priority, sequence)`` order and invokes them.  Sequence numbers
break ties deterministically, so two runs with the same seed produce the
same trace.

Typical use::

    kernel = Kernel(seed=7)
    kernel.call_at(1.5, lambda: print("fires at t=1.5"))
    kernel.run()

Higher layers rarely touch the kernel directly; they use
:class:`~repro.sim.process.SimProcess` and :class:`~repro.sim.timers.Timer`.

Pending events wait in one ``heapq`` binary heap.  Cancellation is
lazy: a cancelled event is discarded when it surfaces at the heap head,
and a live-event counter keeps :attr:`Kernel.pending_events` O(1).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import ClockError, DeadlockError
from repro.sim.rng import DeterministicRng
from repro.sim.trace import Tracer


class Event:
    """A scheduled callback, dispatched in ``(time, priority, seq)`` order."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "label",
                 "_owner")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        # The kernel counting this event as pending; cleared when the
        # event fires or is cancelled, so the live-event counter moves
        # exactly once per event.
        self._owner = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"Event(t={self.time!r}, prio={self.priority}, seq={self.seq},"
            f" label={self.label!r}{state})"
        )


class Kernel:
    """A deterministic discrete-event simulation kernel.

    Parameters
    ----------
    seed:
        Seed for the kernel's deterministic RNG.  All randomized behaviour
        in the simulation (link jitter, loss, fault schedules) should draw
        from :attr:`rng` (or a child of it) so runs are reproducible.
    tracer:
        Optional :class:`~repro.sim.trace.Tracer` recording kernel activity.
    """

    #: Which clock runs the stack (the real-time one says "realtime");
    #: the end-to-end benchmark stamps it into every result.
    scheduler = "heap"

    def __init__(
        self,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        # (time, priority, seq, event): seq is unique, so the tuple
        # comparison never reaches the event.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._next_seq = 0
        #: Current virtual time in seconds.  A plain attribute (not a
        #: property): it is read on every call_at and in most callbacks,
        #: so the descriptor call would be measurable on the hot path.
        self.now = 0.0
        self._events_processed = 0
        self._events_cancelled = 0
        self._pending = 0
        self.rng = DeterministicRng(seed)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if getattr(self.tracer, "clock", None) is None:
            # Stamp every trace event with this kernel's virtual time
            # (the raw material for span timing in repro.obs).
            self.tracer.clock = lambda: self.now

    # -- clock ------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events the kernel has executed so far."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled on this kernel."""
        return self._next_seq

    @property
    def events_cancelled(self) -> int:
        """Cancelled events discarded so far (cancellation is lazy, so
        this counts discards at the heap head, not ``cancel()`` calls)."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events — O(1): a live counter
        incremented at scheduling and decremented exactly once per event
        at ``cancel()`` or dispatch."""
        return self._pending

    # -- scheduling -------------------------------------------------------

    def call_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self.now:
            raise ClockError(
                f"cannot schedule event at {when!r}; clock is at {self.now!r}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(when, priority, seq, callback, label)
        event._owner = self
        self._pending += 1
        heappush(self._heap, (when, priority, seq, event))
        return event

    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ClockError(f"negative delay: {delay!r}")
        return self.call_at(self.now + delay, callback, priority, label)

    # -- execution --------------------------------------------------------

    def _dispatch_next(self, until: Optional[float]) -> bool:
        """Run the next live event unless it lies beyond ``until``.

        Returns False when the heap holds no live event at or before
        ``until``; an event beyond it stays queued for a later run.
        """
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event.cancelled:
                heappop(heap)
                self._events_cancelled += 1
                continue
            if until is not None and event.time > until:
                return False
            heappop(heap)
            self.now = event.time
            event._owner = None
            self._pending -= 1
            self._events_processed += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.record("kernel.event", time=self.now, label=event.label)
            event.callback()
            return True
        return False

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty."""
        return self._dispatch_next(None)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the
        event budget ``max_events`` is exhausted.

        ``until`` is an absolute virtual time; when given, the clock is
        advanced to exactly ``until`` even if the queue drains earlier
        (like real time passing with nothing to do).
        """
        executed = 0
        dispatch_next = self._dispatch_next
        while max_events is None or executed < max_events:
            if not dispatch_next(until):
                break
            executed += 1
        if until is not None and until > self.now:
            self.now = until

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 3600.0,
        max_events: int = 10_000_000,
    ) -> None:
        """Run until ``predicate()`` holds.

        Raises :class:`~repro.errors.DeadlockError` if the event queue
        drains, the virtual-time ``timeout`` elapses, or ``max_events``
        fire before the predicate becomes true.
        """
        deadline = self.now + timeout
        executed = 0
        while not predicate():
            if self.now > deadline:
                raise DeadlockError(
                    f"predicate not satisfied by t={deadline} (now {self.now})"
                )
            if executed >= max_events:
                raise DeadlockError(
                    f"predicate not satisfied after {max_events} events"
                )
            if not self.step():
                raise DeadlockError(
                    "event queue drained before run_until predicate held"
                )
            executed += 1
