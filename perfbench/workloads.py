"""The benchmark's workloads, each measured as repeated identical passes.

A *cell* is one :class:`~repro.metrics.sweep.LoadPoint`.  A pass of a
packet workload builds one cluster and simulates one cell packet by
packet through the public ``Cluster`` API; a pass of ``fig18-fluid``
solves the 24 cells of the fig18 grid through
``repro.sim.fluid.plan(cfg).point()``.

Every pass is deterministic for a seed, so each one also yields an
output digest (LoadPoint fields, exact work counters, fluid markers)
that the runner compares across passes, engines and the checked-in
reference.  Importing this module imports nothing from ``repro``;
:func:`import_library` does, so callers can time that step.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import hostspeed

#: A packet cell keeps ClusterConfig's default windows (10 ms warm-up,
#: 40 ms measured, 5 ms drain: ~130k requests) and runs in slices of
#: this much simulated time, so each timed segment is ~0.2 s of host time.
SLICE_NS = 5_000_000

#: Packet passes rotate over this many inputs derived from the seed: a
#: bursty input's per-request cost moves ~5% with its seed, and averaging
#: over several inputs keeps that input variation out of a run's figure.
INPUTS = 3
INPUT_STRIDE = 1_000_000  # input k of seed s is simulated with seed s + k * stride

#: The paper's single-rack testbed shape (§5.1), also fig18's.
NUM_SERVERS = 6
WORKERS = 15
NUM_CLIENTS = 2
#: Offered load as a fraction of worker-pool capacity (fig18's value).
LOAD_FRACTION = 0.7

PACKET_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "star-netclone": {
        "scheme": "netclone",
        "topology": "star",
        "workload": None,  # Exp(25 us) synthetic, plain Poisson arrivals
        "metrics": "exact",
    },
    "clos-baseline-bursty": {
        "scheme": "baseline",
        "topology": "spine_leaf:racks=2,spines=4,spine_policy=least-loaded",
        "workload": "mmpp:burst=8",
        "metrics": "sketch",
    },
}
FLUID_WORKLOAD = "fig18-fluid"
WORKLOADS = tuple(PACKET_WORKLOADS) + (FLUID_WORKLOAD,)


def is_fluid(name: str) -> bool:
    return name == FLUID_WORKLOAD


# ----------------------------------------------------------------------
# Set-up: the imports and the configs, timed separately by the runner
# ----------------------------------------------------------------------
def import_library(name: str) -> None:
    """Import what the workload's set-up needs (engine load included)."""
    import repro.experiments.common  # noqa: F401  (loads the sim engine)
    import repro.experiments.harness  # noqa: F401
    import repro.experiments.specs  # noqa: F401

    if is_fluid(name):
        import repro.experiments.fig18_trunk_saturation  # noqa: F401
        import repro.sim.fluid  # noqa: F401
    else:
        import repro.experiments.workloads_registry  # noqa: F401


def packet_config(name: str, seed: int) -> Any:
    from repro.experiments.common import ClusterConfig
    from repro.experiments.harness import capacity_rps
    from repro.experiments.specs import make_synthetic_spec
    from repro.experiments.workloads_registry import make_workload_spec

    params = PACKET_WORKLOADS[name]
    if params["workload"] is None:
        spec = make_synthetic_spec("exp", mean_us=25.0)
    else:
        spec = make_workload_spec(params["workload"])
    capacity = capacity_rps(NUM_SERVERS * WORKERS, spec.mean_service_ns)
    return ClusterConfig(
        scheme=params["scheme"],
        topology=params["topology"],
        workload=spec,
        num_servers=NUM_SERVERS,
        workers_per_server=WORKERS,
        num_clients=NUM_CLIENTS,
        rate_rps=LOAD_FRACTION * capacity,
        seed=seed,
        metrics=params["metrics"],
    )


def fluid_configs(seed: int) -> List[Any]:
    """The full fig18 grid (schemes x policies x trunk rates), fig18's way."""
    from dataclasses import replace

    from repro.experiments import fig18_trunk_saturation as fig18
    from repro.experiments.common import ClusterConfig
    from repro.experiments.harness import capacity_rps
    from repro.experiments.specs import make_synthetic_spec

    spec = make_synthetic_spec("exp", mean_us=25.0)
    capacity = capacity_rps(fig18.NUM_SERVERS * fig18.WORKERS, spec.mean_service_ns)
    base = ClusterConfig(
        workload=spec,
        topology="spine_leaf",
        num_servers=fig18.NUM_SERVERS,
        workers_per_server=fig18.WORKERS,
        num_clients=fig18.NUM_CLIENTS,
        rate_rps=fig18.LOAD_FRACTION * capacity,
        seed=seed,
    )
    return [
        replace(
            base,
            scheme=scheme,
            topology_params={
                "racks": 2,
                "spines": 4,
                "express_spines": True,
                "spine_policy": policy,
                "trunk_bandwidth_bps": gbps * 1e9,
            },
        )
        for scheme in fig18.SCHEMES
        for policy in fig18.POLICIES
        for gbps in fig18.TRUNK_GBPS
    ]


def setup(name: str, seed: int) -> "Workload":
    """Configs built and, for packet workloads, the first cell started."""
    if is_fluid(name):
        return FluidWorkload(name, seed)
    return PacketWorkload(name, seed)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over one of a workload's inputs: timed segments, outputs, counters."""

    #: Host wall / process CPU seconds of each timed segment: a slice of
    #: a packet cell's run(), or one fluid cell's plan() + point().
    walls: List[float]
    cpus: List[float]
    #: Reference-loop seconds before each segment and after the last one.
    calib: List[float]
    requests: int  # simulated requests the pass completed (or models)
    input: int  # which of the workload's inputs the pass ran
    digest: str
    counters: Dict[str, float]
    timings: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpus)

    def scaled(self) -> Dict[str, float]:
        """Wall and CPU seconds of the pass at the reference host speed.

        Each segment is scaled by the calibration runs on either side of
        it: contention on a shared host changes within a second, so the
        pairing has to be that close.
        """
        wall = cpu = 0.0
        for index, (w, c) in enumerate(zip(self.walls, self.cpus)):
            factor = hostspeed.slowdown(self.calib[index], self.calib[index + 1])
            wall += w / factor
            cpu += c / factor
        return {"wall_s": wall, "cpu_s": cpu}


def _finite_problems(point: Any, label: str) -> List[str]:
    if point.samples <= 0:
        return []
    bad = [
        key
        for key in ("offered_rps", "throughput_rps", "p50_us", "p99_us", "p999_us", "mean_us")
        if not math.isfinite(getattr(point, key))
    ]
    return [f"{label}: non-finite {key}" for key in bad]


def point_record(point: Any) -> Dict[str, Any]:
    """Every LoadPoint field, exactly (floats keep all their digits)."""
    sketch = point.latency_sketch
    return {
        "offered_rps": point.offered_rps,
        "throughput_rps": point.throughput_rps,
        "p50_us": point.p50_us,
        "p99_us": point.p99_us,
        "p999_us": point.p999_us,
        "mean_us": point.mean_us,
        "samples": point.samples,
        "extra": {key: point.extra[key] for key in sorted(point.extra)},
        "sketch_sha256": None if sketch is None else hashlib.sha256(sketch).hexdigest(),
    }


def digest_of(record: Any) -> str:
    blob = json.dumps(record, sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def packet_counters(cluster: Any, point: Any) -> Dict[str, float]:
    """Exact work counters, read from public attributes after the run."""
    fabric = cluster.topology
    links = [link for star in fabric.stars for link in star.links] + list(fabric.trunks)
    hosts = list(cluster.clients) + list(cluster.servers)
    if cluster.coordinator is not None:
        hosts.append(cluster.coordinator)
    return {
        "requests": float(sum(client.responses_received for client in cluster.clients)),
        "events": float(cluster.sim.event_count),
        "packets": float(cluster.packet_pool.uid_count),
        "pool_objects": float(cluster.packet_pool.allocated),
        "link_tx": float(sum(link.tx_count for link in links)),
        "nic_rx_drops": float(sum(host.nic.rx_dropped for host in hosts)),
        "switch_rx": float(sum(switch.counters.get("rx") for switch in cluster.switches)),
        "nc_cloned": point.extra["nc_cloned"],
        "nc_filtered": point.extra["nc_filtered"],
        "clones_dropped": point.extra["clones_dropped"],
        "redundant_responses": point.extra["redundant_responses"],
    }


class Workload:
    name: str
    seed: int
    fluid: bool
    #: Cells in one pass (the unit of failure accounting).
    cells_per_pass = 1
    #: Distinct inputs the passes rotate over; pass k runs input k % inputs.
    inputs = 1
    #: Hooks around the timed calls (the traced run installs a profiler).
    enter: Optional[Callable[[], None]] = None
    leave: Optional[Callable[[], None]] = None

    def config_record(self) -> Any:
        raise NotImplementedError

    def run_pass(self, index: int = 0) -> Pass:
        raise NotImplementedError

    def cells_done(self, done: Pass) -> float:
        """Cells the pass solved, for ``cells_per_s``."""
        return float(self.cells_per_pass)

    def check(self, first: Pass) -> List[str]:
        """Bypass self-checks: the workload still exercises its layers."""
        raise NotImplementedError

    def _timed(self, call: Callable[[], Any]) -> Any:
        if self.enter is not None:
            self.enter()
        try:
            return call()
        finally:
            if self.leave is not None:
                self.leave()


def _config_fields(config: Any) -> Dict[str, Any]:
    from dataclasses import fields

    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "workload":
            value = getattr(value, "name", repr(value))
        out[f.name] = value
    return out


class PacketWorkload(Workload):
    """One packet-simulated cell per pass; the first cluster is built by set-up."""

    fluid = False
    inputs = INPUTS

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.configs = [packet_config(name, seed + k * INPUT_STRIDE) for k in range(INPUTS)]
        self.config = self.configs[0]
        self._cluster: Optional[Any] = self._build(self.config)

    @staticmethod
    def _build(config: Any) -> Any:
        from repro.experiments.common import Cluster

        cluster = Cluster(config)
        cluster.start()
        return cluster

    def config_record(self) -> Any:
        return [_config_fields(config) for config in self.configs]

    def cells_done(self, done: Pass) -> float:
        """Cells of nominal size: offered rate x client window requests.

        A bursty seed offers up to ~10% more or fewer requests in the
        same window; counting in nominal cells keeps that input
        variation out of the host-speed figure.
        """
        nominal = self.config.rate_rps * self.config.end_ns * 1e-9
        return done.requests / nominal

    def run_pass(self, index: int = 0) -> Pass:
        """Simulate input *index*'s cell in slices of :data:`SLICE_NS`, each timed."""
        config = self.configs[index % INPUTS]
        cluster = self._cluster
        if cluster is None or cluster.config is not config:
            cluster = self._build(config)
        self._cluster = None
        total = config.total_ns
        walls, cpus = [], []
        calib = [hostspeed.calibrate()]
        reduce_s = 0.0
        for until in range(SLICE_NS, total + SLICE_NS, SLICE_NS):
            last = until >= total
            stamps: List[float] = []

            def segment() -> Any:
                cluster.run(until=min(until, total))
                if not last:
                    return None
                stamps.append(time.perf_counter())
                return cluster.load_point()

            cpu0 = time.process_time()
            t0 = time.perf_counter()
            point = self._timed(segment)
            t1 = time.perf_counter()
            cpus.append(time.process_time() - cpu0)
            walls.append(t1 - t0)
            calib.append(hostspeed.calibrate())
            if last:
                reduce_s = t1 - stamps[0]
                break
        counters = packet_counters(cluster, point)
        record = {"point": point_record(point), "counters": counters}
        return Pass(
            walls=walls,
            cpus=cpus,
            calib=calib,
            requests=int(counters["requests"]),
            input=index % INPUTS,
            digest=digest_of(record),
            counters=counters,
            timings={"reduce_s": reduce_s},
            problems=_finite_problems(point, self.name),
        )

    def check(self, first: Pass) -> List[str]:
        c = first.counters
        problems = []
        if c["requests"] <= 0:
            problems.append("no request completed")
        if self.config.scheme == "baseline" and c["nc_cloned"] != 0:
            problems.append(f"baseline cloned {c['nc_cloned']:.0f} requests")
        if self.config.scheme == "netclone":
            if not c["nc_cloned"] > 0:
                problems.append("netclone cloned no request")
            if not c["nc_filtered"] > 0:
                problems.append("netclone filtered no response")
        return problems


class SimulatorRunWatch:
    """Counts simulator events executed by ``run()`` calls it observes.

    A ``sys.setprofile`` hook that records every simulator whose
    ``run`` method is entered (pure-Python or C engine); ``events`` is
    the sum of their ``event_count`` afterwards.  Used on untimed calls
    only: it slows every Python call while installed.
    """

    def __init__(self) -> None:
        self.simulators: Dict[int, Any] = {}  # id -> simulator (kept alive)

    def _hook(self, frame: Any, event: str, arg: Any) -> None:
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            if getattr(arg, "__name__", "") == "run" and _is_simulator(owner):
                self.simulators[id(owner)] = owner
        elif event == "call" and frame.f_code.co_name == "run":
            owner = frame.f_locals.get("self")
            if _is_simulator(owner):
                self.simulators[id(owner)] = owner

    def __enter__(self) -> "SimulatorRunWatch":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)

    @property
    def events(self) -> int:
        return sum(sim.event_count for sim in self.simulators.values())


def _is_simulator(obj: Any) -> bool:
    from repro.sim import core

    return isinstance(obj, (core.Simulator, core.PySimulator))


class FluidWorkload(Workload):
    """One pass solves every cell of the fig18 grid, each timed on its own.

    The fluid model is seed-independent, so every pass is the same input.
    """

    fluid = True

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.configs = fluid_configs(seed)
        self.cells_per_pass = len(self.configs)

    def config_record(self) -> Any:
        return [_config_fields(cfg) for cfg in self.configs]

    def run_pass(self, index: int = 0) -> Pass:
        from repro.sim.fluid import plan

        walls, cpus, points = [], [], []
        calib = [hostspeed.calibrate()]
        plan_s = point_s = 0.0
        eligible = 0
        for cfg in self.configs:
            stamps: List[float] = []

            def solve() -> Any:
                stamps.append(time.perf_counter())
                cell_plan = plan(cfg)
                stamps.append(time.perf_counter())
                point = cell_plan.point()
                stamps.append(time.perf_counter())
                return cell_plan.eligible, point

            cpu0 = time.process_time()
            t0 = time.perf_counter()
            ok, point = self._timed(solve)
            t1 = time.perf_counter()
            cpus.append(time.process_time() - cpu0)
            walls.append(t1 - t0)
            calib.append(hostspeed.calibrate())
            plan_s += stamps[1] - stamps[0]
            point_s += stamps[2] - stamps[1]
            eligible += ok
            points.append(point)
        problems = []
        for index, point in enumerate(points):
            problems += _finite_problems(point, f"cell {index}")
        counters = {
            "cells": float(len(points)),
            "eligible_cells": float(eligible),
            "fluid_cells": float(sum(1 for p in points if p.extra.get("fluid") == 1.0)),
            "requests": float(sum(point.samples for point in points)),
        }
        record = {"points": [point_record(point) for point in points], "counters": counters}
        return Pass(
            walls=walls,
            cpus=cpus,
            requests=sum(point.samples for point in points),
            input=0,
            calib=calib,
            digest=digest_of(record),
            counters=counters,
            timings={"plan_s": plan_s, "point_s": point_s},
            problems=problems,
        )

    def simulator_events(self, index: int) -> int:
        """Events executed while solving grid cell *index* (untimed)."""
        from repro.sim.fluid import plan

        with SimulatorRunWatch() as watch:
            plan(self.configs[index]).point()
        return watch.events

    def check(self, first: Pass) -> List[str]:
        c = first.counters
        problems = []
        cells = len(self.configs)
        if c["cells"] != cells or c["eligible_cells"] != cells or c["fluid_cells"] != cells:
            problems.append(
                f"{c['fluid_cells']:.0f}/{cells} cells fluid "
                f"({c['eligible_cells']:.0f} eligible)"
            )
        events = self.simulator_events(self.seed % cells)
        if events != 0:
            problems.append(f"fluid cell executed {events} simulator events")
        return problems
