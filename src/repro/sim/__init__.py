"""Discrete-event simulation substrate.

This package is a from-scratch, dependency-free discrete-event engine
with an integer nanosecond clock.  It provides two programming models:

* a callback API (:meth:`Simulator.call_at` / :meth:`Simulator.call_after`,
  plus :meth:`Simulator.at` for cancellable events).  The packet-level
  hot paths use ``call_at`` or push straight onto the heap (see
  :mod:`repro.sim.core` for that contract), and
* a generator-based process API (:class:`Process`, :class:`Timeout`)
  similar in spirit to SimPy.  No simulator component under
  :mod:`repro` uses it; it is kept as a library surface.

Helper submodules provide seeded random-number streams (:mod:`rng`,
whose :func:`~repro.sim.rng.randbelow` is the hot paths' primitive-cost
equivalent of ``randrange``/``choice``), queueing resources
(:mod:`resources`) and measurement probes (:mod:`monitor`).
"""

from repro.sim.core import EventHandle, Simulator
from repro.sim.monitor import Counter, IntervalMonitor, TimeSeries
from repro.sim.processes import AllOf, AnyOf, Interrupt, Process, ProcessEvent, Timeout
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RngRegistry, splitmix64
from repro.sim.units import MICROS, MILLIS, NANOS, SECONDS, ms, ns, sec, us

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Counter",
    "EventHandle",
    "Interrupt",
    "IntervalMonitor",
    "MICROS",
    "MILLIS",
    "NANOS",
    "Process",
    "ProcessEvent",
    "Resource",
    "RngRegistry",
    "SECONDS",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
    "ms",
    "ns",
    "sec",
    "splitmix64",
    "us",
]
