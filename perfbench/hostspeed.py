"""Host-speed calibration: timings scaled to a reference host speed.

On a small shared VM the CPU time a fixed piece of Python needs drifts
by up to 1.5x over minutes as co-tenants load the physical host (the
guest sees no steal time: process CPU time stretches with wall time).
Medians over one run cannot remove a drift that outlasts the run, so
the benchmark times a fixed, interpreter-bound reference loop next to
every measured cell and scales each timing by how slow that loop ran
compared with :data:`REFERENCE_S`.

The loop uses nothing from the library under test — a heap of
timestamped events, a small dict and an LCG, like a scheduler's inner
loop — so no change to the program moves it, and parent and child
commits are scaled by the same yardstick.
"""

from __future__ import annotations

import heapq
import time

#: Iterations of the reference loop (about 50 ms on a 2.1 GHz Xeon vCPU).
STEPS = 60_000
#: Seconds the reference loop takes on a quiet 2.1 GHz Xeon vCPU: the
#: host speed every scaled timing is expressed at.
REFERENCE_S = 0.045


def _step(counts: dict, x: int) -> int:
    x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    counts[x & 255] = counts.get(x & 255, 0) + 1
    return x


def calibrate() -> float:
    """Wall seconds of one run of the reference loop."""
    start = time.perf_counter()
    heap = [(t, t, None) for t in range(64)]
    counts: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for seq in range(STEPS):
        now, _seq, _payload = pop(heap)
        x = _step(counts, x)
        push(heap, (now + (x & 1023), seq, None))
    return time.perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference host the host ran (1.0 = same)."""
    return (before + after) / (2.0 * REFERENCE_S)
