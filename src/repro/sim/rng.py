"""Deterministic random-number streams.

Every stochastic component in the simulator (each client's arrival
process, each server's jitter, the workload generator, ...) draws from
its **own named stream** so that experiments are reproducible and so
that changing one component's consumption of randomness does not
perturb any other component.  Streams are derived from a single root
seed with the SplitMix64 mixing function, which is well distributed
even for adjacent seeds.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

import numpy as np

__all__ = ["RngRegistry", "randbelow", "splitmix64", "stream_seed"]

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One step of the SplitMix64 generator; returns a mixed 64-bit value."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` drawn with *getrandbits*; ``n > 0``.

    This is CPython's ``Random._randbelow_with_getrandbits``: draw
    ``n.bit_length()`` bits and redraw while the value is ``>= n``.
    Passed a stream's bound ``getrandbits``, it returns exactly what
    ``rng.randrange(n)`` returns and spends exactly the same draws,
    and ``seq[randbelow(rng.getrandbits, len(seq))]`` equals
    ``rng.choice(seq)`` — both bottom out in this loop for
    :class:`random.Random` and for every subclass that overrides
    ``getrandbits`` (the sanitizer's counting stream included).  Hot
    paths call it to skip ``randrange``'s argument checks and two
    Python-level frames per draw.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def stream_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit seed for the stream called *name*.

    The name is folded into the root seed byte by byte through
    SplitMix64, so distinct names give independent-looking seeds even
    for root seeds that differ by one.
    """
    state = splitmix64(root_seed & _MASK64)
    for byte in name.encode("utf-8"):
        state = splitmix64(state ^ byte)
    return state


class RngRegistry:
    """Factory and cache of named random streams.

    ``stream(name)`` returns a :class:`random.Random` (cheap scalar
    draws, used on hot paths); ``numpy_stream(name)`` returns a
    :class:`numpy.random.Generator` (vectorised draws, used for
    analysis and batch generation).  The same name always returns the
    same object within one registry.
    """

    def __init__(self, root_seed: int = 0xC10E):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}
        self._numpy_streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> random.Random:
        """Return the scalar random stream called *name*."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(stream_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def numpy_stream(self, name: str) -> np.random.Generator:
        """Return the numpy random stream called *name*."""
        rng = self._numpy_streams.get(name)
        if rng is None:
            rng = np.random.default_rng(stream_seed(self.root_seed, name))
            self._numpy_streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one."""
        return RngRegistry(stream_seed(self.root_seed, "fork:" + name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.root_seed:#x} streams={len(self._streams)}>"
