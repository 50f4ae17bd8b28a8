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

Hot-path design (pending events wait in one ``heapq`` binary heap; this
kernel executes millions of events in the larger sweeps):

* :class:`Event` is a ``__slots__`` class with a hand-written ``__lt__``
  — no dataclass descriptor machinery, no per-comparison tuple field
  walk beyond the one the heap needs.
* Cancellation is lazy: cancelled events are skipped when they surface
  at a queue head; the heap is never rebuilt.  A live event counter
  makes :attr:`Kernel.pending_events` O(1) — ``cancel()`` and dispatch
  each decrement it exactly once.
* ``call_at(now, ...)`` / ``call_later(0, ...)`` at default priority
  append to a FIFO *ready* deque instead of the heap.  Because virtual
  time never moves backwards and sequence numbers grow monotonically,
  the deque is always sorted by ``(time, priority, seq)``; the dispatch
  loop two-way-merges the deque head with the heap head, so ordering is
  exactly what one global queue would produce.
* The run loop pops exactly once per dispatched event — no separate
  peek pass re-draining cancelled heads — and hands the popped event to
  the ``step(event=...)`` fast path.  An event popped but not run (the
  ``until`` horizon passed) is stashed and re-served first.  Held
  popped-but-unrun events (the stash and the merge's heap head) are
  only served without re-checking the queues because ``call_at``
  flushes them back into the heap the moment a new event sorts before
  them — otherwise an event scheduled between runs (or from a callback
  while the head is held) would dispatch after a later-timed held event
  and the clock would move backwards.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional

from repro.errors import ClockError, DeadlockError
from repro.sim.rng import DeterministicRng
from repro.sim.trace import Tracer


class Event:
    """A scheduled callback.

    Ordering is by ``(time, priority, seq)``; the callback itself does not
    participate in comparisons.
    """

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

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

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
        self._heap: List[Event] = []
        self._ready: Deque[Event] = deque()
        # The heap's popped-but-unconsumed head (the two-way merge
        # needs to look at it without losing it), and the globally
        # popped event the run loop pushed back at an ``until`` horizon.
        self._heap_head: Optional[Event] = None
        self._stashed: Optional[Event] = None
        self._next_seq = 0
        #: Current virtual time in seconds.  A plain attribute (not a
        #: property): it is read on every call_at and in most callbacks,
        #: so the descriptor call would be measurable on the hot path.
        self.now = 0.0
        self._running = False
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
        this counts discard at the queue heads, not ``cancel()`` calls)."""
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
        # The dispatch loop serves held popped-but-unrun events (the
        # run-horizon stash, the merge's heap head) without re-checking
        # the heap, which is only sound while they sort before
        # everything queued.  A new event that undercuts a held one
        # flushes it back into the heap so both re-enter the merge.
        # Seq is monotone, so ties never undercut and the comparison
        # needs no seq term.
        stash = self._stashed
        if stash is not None and (
            when < stash.time or (when == stash.time and priority < stash.priority)
        ):
            self._stashed = None
            heappush(self._heap, stash)
        head = self._heap_head
        if head is not None and (
            when < head.time or (when == head.time and priority < head.priority)
        ):
            self._heap_head = None
            heappush(self._heap, head)
        if when == self.now and priority == 0:
            # Immediate default-priority work (the dominant schedule in
            # dispatch chains): the ready deque stays sorted because now
            # and seq are both monotone, so no heap insert is needed.
            self._ready.append(event)
        else:
            heappush(self._heap, event)
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

    def _pop_runnable(self) -> Optional[Event]:
        """Pop the globally next non-cancelled event, or None when drained.

        Two-way merge of the ready deque and the heap, discarding
        cancelled events lazily as they surface at either head.  An
        event stashed back by :meth:`run` is served first.  The heap's
        popped-but-unconsumed head is held in ``_heap_head`` so peeking
        at it never loses it.
        """
        stashed = self._stashed
        if stashed is not None:
            self._stashed = None
            if not stashed.cancelled:
                return stashed
            self._events_cancelled += 1
        ready = self._ready
        while ready and ready[0].cancelled:
            ready.popleft()
            self._events_cancelled += 1
        head = self._heap_head
        if head is not None and head.cancelled:
            self._events_cancelled += 1
            head = None
        if head is None:
            heap = self._heap
            while heap:
                head = heappop(heap)
                if not head.cancelled:
                    break
                self._events_cancelled += 1
                head = None
        if not ready:
            self._heap_head = None
            return head
        if head is None or ready[0] < head:
            self._heap_head = head
            return ready.popleft()
        self._heap_head = None
        return head

    def step(self, event: Optional[Event] = None) -> bool:
        """Run a single event.  Returns False when the queue is empty.

        ``event`` is the fast path for callers that already popped the
        next runnable event (the fused run loop): it must come from
        :meth:`_pop_runnable`, which guarantees it is not cancelled.
        """
        if event is None:
            event = self._pop_runnable()
            if event is None:
                return False
        self.now = event.time
        event._owner = None
        self._pending -= 1
        self._events_processed += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.record("kernel.event", time=self.now, label=event.label)
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the
        event budget ``max_events`` is exhausted.

        ``until`` is an absolute virtual time; when given, the clock is
        advanced to exactly ``until`` even if the queue drains earlier
        (like real time passing with nothing to do).
        """
        self._running = True
        executed = 0
        # The hottest loop in the repo: the two-way merge and the
        # dispatch body are inlined (no per-event Python calls beyond
        # the callback itself).  Must mirror _pop_runnable + step.
        ready = self._ready
        heap = self._heap
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    return
                event = self._stashed
                if event is not None:
                    self._stashed = None
                    if event.cancelled:
                        self._events_cancelled += 1
                        continue
                else:
                    while ready and ready[0].cancelled:
                        ready.popleft()
                        self._events_cancelled += 1
                    head = self._heap_head
                    if head is not None and head.cancelled:
                        self._events_cancelled += 1
                        head = None
                    if head is None:
                        while heap:
                            head = heappop(heap)
                            if not head.cancelled:
                                break
                            self._events_cancelled += 1
                            head = None
                    if not ready:
                        self._heap_head = None
                        event = head
                        if event is None:
                            break
                    elif head is None or ready[0] < head:
                        self._heap_head = head
                        event = ready.popleft()
                    else:
                        self._heap_head = None
                        event = head
                if until is not None and event.time > until:
                    # Beyond the horizon: push back for the next run call.
                    self._stashed = event
                    break
                self.now = event.time
                event._owner = None
                self._pending -= 1
                self._events_processed += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.record("kernel.event", time=self.now, label=event.label)
                event.callback()
                executed += 1
        finally:
            self._running = False
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
