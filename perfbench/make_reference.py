#!/usr/bin/env python3
"""Regenerate ``reference.json``: the output digest of one cell per seed.

    python3 perfbench/make_reference.py             # seeds 0..99
    python3 perfbench/make_reference.py --seeds 64

Packet workloads get one digest per seed.  The fluid model is
seed-independent, so ``fig18-fluid`` gets one digest for every seed
(``"*"``), after checking two seeds agree.  Regenerate only when a change
is meant to alter simulated outputs or work counters, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # noqa: F401  (puts the library sources on sys.path)
import workloads as wl


def digest(name: str, seed: int) -> str:
    return wl.setup(name, seed).run_pass().digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="seeds 0..N-1")
    args = parser.parse_args()
    table = {}
    for name in wl.PACKET_WORKLOADS:
        wl.import_library(name)
        table[name] = {str(seed): digest(name, seed) for seed in range(args.seeds)}
    wl.import_library(wl.FLUID_WORKLOAD)
    fluid = {digest(wl.FLUID_WORKLOAD, seed) for seed in (0, 1)}
    if len(fluid) != 1:
        print("fig18-fluid digests depend on the seed", file=sys.stderr)
        return 1
    table[wl.FLUID_WORKLOAD] = {"*": fluid.pop()}
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
