"""Discrete-event simulation substrate.

This package is a from-scratch, dependency-free discrete-event engine
with an integer nanosecond clock and one callback API:
:meth:`Simulator.call_at` / :meth:`Simulator.call_after` schedule
``fn(*args)``, and every scheduled event fires.  The packet-level hot
paths use ``call_at`` or push straight onto the heap (see
:mod:`repro.sim.core` for that contract).

Helper submodules provide seeded random-number streams (:mod:`rng`,
whose :func:`~repro.sim.rng.randbelow` is the hot paths' primitive-cost
equivalent of ``randrange``/``choice``) and measurement probes
(:mod:`monitor`).
"""

from repro.sim.core import Simulator
from repro.sim.monitor import Counter, IntervalMonitor, TimeSeries
from repro.sim.rng import RngRegistry, splitmix64
from repro.sim.units import MICROS, MILLIS, NANOS, SECONDS, ms, ns, sec, us

__all__ = [
    "Counter",
    "IntervalMonitor",
    "MICROS",
    "MILLIS",
    "NANOS",
    "RngRegistry",
    "SECONDS",
    "Simulator",
    "TimeSeries",
    "ms",
    "ns",
    "sec",
    "splitmix64",
    "us",
]
