"""Tests for the discrete-event engine core."""

import bisect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.pending == 0


def test_schedule_runs_callback_at_time():
    sim = Simulator()
    fired = []
    sim.call_after(1_000, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1_000


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_after(300, order.append, 3)
    sim.call_after(100, order.append, 1)
    sim.call_after(200, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_after(50, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_current_instant_fifo():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_after(0, order.append, "nested")

    sim.call_after(10, first)
    sim.call_after(10, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.call_after(-1, lambda: None)


def test_at_in_past_rejected():
    sim = Simulator()
    sim.call_after(100, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(50, lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_after(100, fired.append, 1)
    sim.call_after(900, fired.append, 2)
    sim.run(until=500)
    assert fired == [1]
    assert sim.now == 500
    sim.run()
    assert fired == [1, 2]
    assert sim.now == 900


def test_run_until_advances_clock_when_queue_drains():
    sim = Simulator()
    sim.call_after(10, lambda: None)
    sim.run(until=1_000)
    assert sim.now == 1_000


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.call_after(i + 1, fired.append, i)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert fired == [0, 1, 2]


def test_step_runs_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.call_after(10, fired.append, "a")
    sim.call_after(20, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_peek_returns_head_time():
    sim = Simulator()
    sim.call_after(30, lambda: None)
    sim.call_after(10, lambda: None)
    assert sim.peek() == 10
    assert sim.step()
    assert sim.peek() == 30


def test_peek_empty_returns_none():
    sim = Simulator()
    assert sim.peek() is None


def test_event_count_accumulates():
    sim = Simulator()
    for i in range(7):
        sim.call_after(i, lambda: None)
    sim.run()
    assert sim.event_count == 7


def test_callbacks_can_schedule_more_work():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.call_after(10, chain, n + 1)

    sim.call_after(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fire_times = []
    for delay in delays:
        sim.call_after(delay, lambda: fire_times.append(sim.now))
    sim.run()
    assert fire_times == sorted(fire_times)
    assert len(fire_times) == len(delays)


@given(
    delays=st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.integers()),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_fifo_within_equal_times(delays):
    sim = Simulator()
    fired = []
    for delay, tag in delays:
        sim.call_after(delay, fired.append, (delay, tag))
    sim.run()
    # Stable sort by delay must reproduce the firing order exactly.
    assert fired == sorted(fired, key=lambda pair: pair[0])


# ----------------------------------------------------------------------
# The dispatch loop against a reference model
# ----------------------------------------------------------------------
class _ReferenceSim:
    """The engine's contract spelled out over a list sorted by (time, seq)."""

    def __init__(self):
        self.now = 0
        self.event_count = 0
        self._seq = 0
        self._entries = []

    @property
    def pending(self):
        return len(self._entries)

    def call_at(self, time, fn, *args):
        self._seq += 1
        bisect.insort(self._entries, (time, self._seq, fn, args))

    def call_after(self, delay, fn, *args):
        self.call_at(self.now + delay, fn, *args)

    def _fire(self):
        time, _seq, fn, args = self._entries.pop(0)
        self.now = time
        self.event_count += 1
        fn(*args)

    def step(self):
        if not self._entries:
            return False
        self._fire()
        return True

    def peek(self):
        return self._entries[0][0] if self._entries else None

    def run(self, until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            if not self._entries:
                if until is not None and until > self.now:
                    self.now = until
                break
            if until is not None and self._entries[0][0] > until:
                self.now = until
                break
            self._fire()
            executed += 1
        return executed


def _drive(sim, ops):
    """Apply *ops* to *sim*; return what each call observed, in order."""
    fired = []

    def fire(label, spawn):
        fired.append((sim.now, label))
        if spawn is not None:
            kind, delay = spawn
            schedule(kind, sim.now + delay, (label, "child"), None)

    def schedule(kind, time, label, spawn):
        if kind == "call_at":
            sim.call_at(time, fire, label, spawn)
        else:
            sim.call_after(time - sim.now, fire, label, spawn)

    observed = []
    for index, op in enumerate(ops):
        kind = op[0]
        result = None
        if kind in ("call_at", "call_after"):
            schedule(kind, sim.now + op[1], index, op[2])
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            result = sim.run(until=until, max_events=op[2])
        elif kind == "step":
            result = sim.step()
        else:
            result = sim.peek()
        observed.append((op, result, sim.now, sim.event_count, sim.pending, len(fired)))
    observed.append(("drain", sim.run(), sim.now, sim.event_count, sim.pending))
    return observed, fired


_spawns = st.none() | st.tuples(
    st.sampled_from(["call_at", "call_after"]), st.integers(min_value=0, max_value=15)
)
_offsets = st.integers(min_value=0, max_value=15)
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["call_at", "call_after"]), _offsets, _spawns),
        st.tuples(
            st.just("run"),
            st.none() | st.integers(min_value=0, max_value=30),
            st.none() | st.integers(min_value=0, max_value=6),
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
    ),
    max_size=60,
)


@given(ops=_ops)
# An event exactly at the horizon runs; one past it waits for a later run.
@example(ops=[("call_at", 5, None), ("call_at", 6, None), ("run", 5, None), ("peek",)])
@settings(max_examples=300, deadline=None)
def test_property_dispatch_matches_sorted_reference(ops):
    assert _drive(Simulator(), ops) == _drive(_ReferenceSim(), ops)
