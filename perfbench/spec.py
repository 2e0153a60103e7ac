"""Every metric the benchmark reports: name, unit, direction, and what it moves.

``END_TO_END`` is printed by untraced runs (``--trace 0``) and
``PER_LAYER`` by traced runs (``--trace 1``).  ``BENCHMARK.json`` lists
the same names and units; ``test_perfbench.py`` holds the two in step.
Each per-layer metric names the end-to-end metric it should move and
the workload where that shows, written down before any optimisation
was measured against it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layers import LAYERS, OTHER, SUB_LAYERS

PACKET = ("star-netclone", "clos-baseline-bursty")
STAR = ("star-netclone",)
CLOS = ("clos-baseline-bursty",)
FLUID = ("fig18-fluid",)
ALL = PACKET + FLUID

#: (name, unit, better, bound) of the metrics a user of the simulator sees.
#: Host timings are scaled to a reference host speed (``hostspeed.py``);
#: the bounds sit above three times the spread of ten seeded runs.
END_TO_END: List[Tuple[str, str, str, float]] = [
    # Simulated requests completed per host wall second of run() +
    # load_point() (fig18-fluid: requests the model accounts for per
    # second of plan() + point()).  The headline.
    ("req_per_s", "1/s", "higher", 0.2),
    # Process CPU microseconds per completed simulated request.
    ("cpu_us_per_req", "us", "lower", 0.2),
    # Cells (LoadPoints) solved per host wall second; packet cells are
    # counted at their nominal size (see PacketWorkload.cells_done).
    ("cells_per_s", "1/s", "higher", 0.2),
    # Process start -> Cluster.start() returning (fig18-fluid: -> the
    # first plan() call), median over fresh processes.
    ("setup_s", "s", "lower", 0.25),
    # Peak resident memory of the workload process.  Bursty seeds keep
    # 3k-7k packets queued at their peak, so this moves ~10% by seed.
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: name -> (unit, better, end-to-end metric it moves, workloads it moves it on)
PER_LAYER: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    # Exact work counters (deterministic for a seed).
    "sim.events_per_req": ("count", "lower", "req_per_s", PACKET),
    "net.packets_per_req": ("count", "lower", "req_per_s", PACKET),
    "net.link_tx_per_req": ("count", "lower", "req_per_s", CLOS),
    "net.pool_objects": ("count", "lower", "peak_rss_mb", CLOS),
    "net.nic_rx_drops": ("count", "lower", "req_per_s", PACKET),
    "switchsim.passes_per_req": ("count", "lower", "req_per_s", PACKET),
    "core.program.clone_frac": ("frac", "lower", "req_per_s", STAR),
    "core.program.filtered_frac": ("frac", "lower", "req_per_s", STAR),
    "core.program.clone_useful_ratio": ("frac", "higher", "req_per_s", STAR),
    "client.redundant_responses": ("count", "lower", "req_per_s", PACKET),
    # Host timings of single steps.
    "experiments.import_s": ("s", "lower", "setup_s", ALL),
    "experiments.build_s": ("s", "lower", "setup_s", ALL),
    "metrics.reduce_ms": ("ms", "lower", "req_per_s", PACKET),
    "sim.fluid.plan_ms_per_cell": ("ms", "lower", "cells_per_s", FLUID),
    "sim.fluid.point_ms_per_cell": ("ms", "lower", "cells_per_s", FLUID),
    "trace.overhead_frac": ("frac", "lower", "req_per_s", ALL),
}

#: Which workloads each profiled layer's time should move req_per_s on.
_LAYER_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "sim": PACKET,
    "sim.fluid": FLUID,
    "net": PACKET,
    "net.topology": CLOS,
    "switchsim": PACKET,
    "core.program": STAR,
    "client": PACKET,
    "server": PACKET,
    "baselines": (),
    "workloads": PACKET,
    "metrics": PACKET,
    "experiments": ALL,
    OTHER: ALL,
}
for _layer in list(LAYERS) + list(SUB_LAYERS) + [OTHER]:
    _moves = "cells_per_s" if _layer == "sim.fluid" else "req_per_s"
    PER_LAYER[f"{_layer}.calls_per_req"] = ("count", "lower", _moves, _LAYER_WORKLOADS[_layer])
    PER_LAYER[f"{_layer}.self_us_per_req"] = ("us", "lower", _moves, _LAYER_WORKLOADS[_layer])
    PER_LAYER[f"{_layer}.self_frac"] = ("frac", "lower", _moves, _LAYER_WORKLOADS[_layer])

#: cProfile self-time shares predicted before the benchmark existed,
#: quoted so later changes can cite them: (workload, layer, share).
PREDICTIONS: List[Tuple[str, str, float]] = [
    ("star-netclone", "switchsim", 0.15),
    ("star-netclone", "core.program", 0.10),
    ("star-netclone", "client", 0.17),
    ("star-netclone", "server", 0.12),
    ("star-netclone", "net", 0.19),
    ("star-netclone", "sim", 0.07),
    ("clos-baseline-bursty", "switchsim", 0.20),
    ("clos-baseline-bursty", "net.topology", 0.09),
    ("clos-baseline-bursty", "core.program", 0.0),
]
