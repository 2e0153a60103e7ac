"""Core discrete-event engine.

The engine is a single :mod:`heapq` of plain tuples ``(time, seq, fn,
args)`` — ``time`` orders events, ``seq`` is a monotonically increasing
tie-breaker that guarantees FIFO ordering for events scheduled at the
same instant (and, being unique, guarantees tuple comparisons never
reach the payload elements).  Events therefore run in the total
``(time, seq)`` order.

There is one scheduling API: :meth:`Simulator.call_at` /
:meth:`Simulator.call_after` push a bare entry and return nothing, and
an event, once scheduled, always fires.  A component that may want to
drop a pending action checks its own state when the callback runs (see
the retransmit timer in :mod:`repro.core.reliability`).  Hot components
inline the push as a ``seq`` bump plus one ``heappush(sim._heap, (when,
seq, fn, args))``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SchedulingError

__all__ = ["PySimulator", "Simulator", "USING_CCORE"]

#: ``run``'s horizon when it has no ``until``: no time exceeds it.
_NO_HORIZON = float("inf")


class Simulator:
    """A discrete-event simulator with an integer nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.call_after(1_000, print, "one microsecond later")
        sim.run()

    The engine never invents time: the clock only advances to the
    timestamp of the next scheduled event.
    """

    __slots__ = ("now", "_heap", "_seq", "_event_count")

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds.
        self.now: int = 0
        self._heap: list = []
        self._seq = 0
        self._event_count = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns after *now*.

        ``delay`` must be non-negative; a zero delay runs after all
        events already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def call_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute ``time`` ns."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty.
        """
        heap = self._heap
        if not heap:
            return False
        time, _seq, fn, args = heappop(heap)
        self.now = time
        self._event_count += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains or a limit is hit.

        :param until: stop (and fast-forward the clock to ``until``)
            once the next event is strictly later than this time.
        :param max_events: stop after this many events have run.
        :returns: the number of events executed by this call.
        """
        # One loop for every limit combination: an absent limit is one
        # that never binds.  It pops first and pushes back the single
        # entry that crosses the horizon, instead of peeking per event.
        horizon = _NO_HORIZON if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        heap = self._heap
        executed = 0
        try:
            while executed != budget:
                try:
                    entry = heappop(heap)
                except IndexError:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                time, _seq, fn, args = entry
                if time > horizon:
                    # Past the horizon: restore it for a later run().
                    heappush(heap, entry)
                    self.now = until
                    break
                self.now = time
                executed += 1
                fn(*args)
        finally:
            self._event_count += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled events that have not run yet."""
        return len(self._heap)

    @property
    def event_count(self) -> int:
        """Total number of events executed since construction.

        Updated when ``run`` returns (and per ``step``); a callback
        reading it mid-run sees the count as of the last entry into the
        engine, which no simulation component does.
        """
        return self._event_count

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or ``None`` if drained."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"


# ----------------------------------------------------------------------
# Names the packet-path benchmark (perfbench/) reads
# ----------------------------------------------------------------------
#: Alias of :class:`Simulator`; perfbench's engine-type check reads it.
PySimulator = Simulator

#: Always False (there is one engine); perfbench's provenance reads it.
USING_CCORE = False
