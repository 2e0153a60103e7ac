"""Core discrete-event engine.

The engine is a single :mod:`heapq` of plain tuples ``(time, seq, fn,
args)`` — ``time`` orders events, ``seq`` is a monotonically increasing
tie-breaker that guarantees FIFO ordering for events scheduled at the
same instant (and, being unique, guarantees tuple comparisons never
reach the payload elements).  Events therefore run in the total
``(time, seq)`` order.

Two scheduling APIs share the heap:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_after` — the fast
  path for the ~95% of events that are never cancelled (packet
  delivery, service completions, arrival ticks).  They push bare
  tuples and return nothing: no per-event allocation beyond the entry
  itself.
* :meth:`Simulator.schedule` / :meth:`Simulator.at` — return an
  :class:`EventHandle` that can be cancelled.  Cancellation is O(1)
  (lazy deletion: the handle is flagged and skipped when popped) and
  the heap is compacted in one pass when cancelled entries come to
  dominate.

Both APIs consume one ``seq`` per event, so converting a call site from
``at`` to ``call_at`` leaves the execution order of every event
bit-identical.  Hot components inline the fast-path push as a ``seq``
bump plus one ``heappush(sim._heap, (when, seq, fn, args))``.
Higher-level conveniences (generator processes, resources) are layered
on top in sibling modules.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.errors import SchedulingError

__all__ = ["EventHandle", "PySimulator", "Simulator", "USING_CCORE"]

# Entry layout: (time, seq, fn, args) for fast-path events and
# (time, seq, handle, None) for cancellable ones — a single tuple shape
# check (``entry[3] is None``) distinguishes them on the pop path.

#: ``run``'s horizon when it has no ``until``: no time exceeds it.
_NO_HORIZON = float("inf")


class EventHandle:
    """A scheduled callback that can be cancelled.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.at`.  They are true-ish while still pending.
    """

    __slots__ = ("fn", "args", "cancelled", "time", "sim")

    def __init__(
        self,
        time: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()

    def __bool__(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.time} {name} {state}>"


class Simulator:
    """A discrete-event simulator with an integer nanosecond clock.

    Typical callback-style use::

        sim = Simulator()
        sim.call_after(1_000, print, "one microsecond later")
        sim.run()

    The engine never invents time: the clock only advances to the
    timestamp of the next scheduled event.
    """

    __slots__ = ("now", "_heap", "_seq", "_event_count", "_cancelled")

    #: Compaction trigger: at least this many cancelled entries AND
    #: cancelled entries making up at least half the pending set.
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds.
        self.now: int = 0
        self._heap: list = []
        self._seq = 0
        self._event_count = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling — fast path (uncancellable)
    # ------------------------------------------------------------------
    def call_after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns after *now*.

        The fast path: no :class:`EventHandle` is allocated and nothing
        is returned, so the event cannot be cancelled.  Use it for
        events that are provably never cancelled (deliveries, service
        completions, arrival ticks).  ``delay`` must be non-negative; a
        zero delay runs after all events already scheduled for the
        current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def call_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` ns (fast path)."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Scheduling — cancellable path
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ns after *now*.

        ``delay`` must be non-negative; a zero delay runs after all
        events already scheduled for the current instant (FIFO).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute ``time`` ns."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        handle = EventHandle(time, fn, args, sim=self)
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (time, seq, handle, None))
        return handle

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; compacts the heap when
        its live entries are drowned out by lazily-deleted ones."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled >= self.COMPACT_THRESHOLD and self._cancelled * 2 >= len(heap):
            # In place, so the heap bound by a running ``run`` loop
            # stays valid.
            heap[:] = [e for e in heap if e[3] is not None or not e[2].cancelled]
            heapify(heap)
            self._cancelled = 0

    def _live_head(self) -> Optional[tuple]:
        """The earliest non-cancelled entry, discarding dead ones.

        ``step`` and ``peek`` funnel through it (``run`` inlines the
        same lazy deletion).  The returned entry is *not* popped.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is not None or not head[2].cancelled:
                return head
            heappop(heap)
            if self._cancelled:
                self._cancelled -= 1
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty (cancelled entries are discarded silently).
        """
        entry = self._live_head()
        if entry is None:
            return False
        heappop(self._heap)
        time, _seq, target, args = entry
        self.now = time
        self._event_count += 1
        if args is None:
            target.sim = None  # fired: later cancel() must not count it
            target.fn(*target.args)
        else:
            target(*args)
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
                time, _seq, target, args = entry
                if args is None and target.cancelled:
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                if time > horizon:
                    # Past the horizon: restore it for a later run().
                    heappush(heap, entry)
                    self.now = until
                    break
                self.now = time
                executed += 1
                if args is None:
                    target.sim = None  # fired: later cancel() must not count it
                    target.fn(*target.args)
                else:
                    target(*args)
        finally:
            self._event_count += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queue entries, including lazily-cancelled ones."""
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
        """Timestamp of the next live event, or ``None`` if drained."""
        entry = self._live_head()
        return entry[0] if entry is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now} pending={self.pending}>"


# ----------------------------------------------------------------------
# Names the packet-path benchmark (perfbench/) reads
# ----------------------------------------------------------------------
#: Alias of :class:`Simulator`; perfbench's engine-type check reads it.
PySimulator = Simulator

#: Always False (there is one engine); perfbench's provenance reads it.
USING_CCORE = False
