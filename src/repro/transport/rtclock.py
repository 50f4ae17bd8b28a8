"""A wall-clock ``Clock`` backend over the asyncio event loop.

:class:`RealtimeClock` duck-types the scheduling surface of
:class:`repro.sim.kernel.Kernel` — ``now``, ``call_at``/``call_later``
(returning a cancellable handle with a readable ``cancelled``
attribute), ``tracer``, ``rng`` and the counter properties — so
:class:`~repro.sim.process.SimProcess` subclasses (the Spread daemon),
:class:`~repro.sim.timers.TimerWheel` and the Spread clients (on whose
clock :class:`~repro.secure.session.SecureClient` arms its sessions'
timers) run over a live asyncio loop without modification.  Time is
seconds since the clock's construction (``loop.time()`` relative to an
epoch), so protocol timeouts written in sim seconds keep their meaning.

Two deliberate divergences from the virtual-time kernel:

* There is no ``run()``/``step()`` — the asyncio loop is the driver.
* ``call_at`` with a ``when`` already in the past fires as soon as
  possible instead of raising: between computing a deadline and
  scheduling it the wall clock has already moved, so "in the past" is
  the steady state for zero-delay callbacks, not a bug.  (Negative
  *delays* still raise, matching the kernel.)

``priority`` is accepted and ignored: wall-clock scheduling cannot
order two firings at "the same time" anyway, and the asyncio loop's
FIFO-per-deadline behaviour is deterministic enough for the protocols,
which tolerate arbitrary asynchrony by design.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.errors import ClockError
from repro.sim.rng import DeterministicRng
from repro.sim.trace import Tracer


class RtEvent:
    """Handle for one scheduled callback (the realtime ``Event``)."""

    __slots__ = ("cancelled", "label", "_fired", "_handle", "_clock")

    def __init__(self, clock: "RealtimeClock", label: str) -> None:
        self.cancelled = False
        self.label = label
        self._fired = False
        self._handle: Optional[asyncio.TimerHandle] = None
        self._clock = clock

    def cancel(self) -> None:
        """Cancel if not already fired or cancelled (idempotent)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        clock = self._clock
        clock._pending -= 1
        clock._events_cancelled += 1
        if self._handle is not None:
            self._handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<RtEvent {self.label or '?'}{state}>"


class RealtimeClock:
    """Kernel-compatible scheduler over ``asyncio``."""

    scheduler = "realtime"

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        tracer: Optional[Tracer] = None,
        seed: int = 0,
    ) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._epoch = self._loop.time()
        self.rng = DeterministicRng(seed)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if getattr(self.tracer, "clock", None) is None:
            self.tracer.clock = lambda: self.now
        self._events_scheduled = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._pending = 0

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def now(self) -> float:
        """Seconds since this clock was created (monotonic)."""
        return self._loop.time() - self._epoch

    # -- counters (the kernel's observability surface) ---------------------

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        return self._events_scheduled

    @property
    def events_cancelled(self) -> int:
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        return self._pending

    # -- scheduling --------------------------------------------------------

    def call_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> RtEvent:
        """Schedule ``callback`` at clock time ``when`` (ASAP if past)."""
        event = RtEvent(self, label)
        self._events_scheduled += 1
        self._pending += 1

        def fire() -> None:
            if event.cancelled:
                return
            event._fired = True
            self._pending -= 1
            self._events_processed += 1
            callback()

        event._handle = self._loop.call_at(self._epoch + when, fire)
        return event

    def call_later(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> RtEvent:
        """Schedule ``callback`` after ``delay`` wall-clock seconds."""
        if delay < 0:
            raise ClockError(f"negative delay: {delay!r}")
        return self.call_at(self.now + delay, callback, priority, label)
