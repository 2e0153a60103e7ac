#!/usr/bin/env python3
"""Packet-path benchmark: simulated requests per host second, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload star-netclone --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``star-netclone`` (the in-switch
cloning path on the paper's single-rack testbed), ``clos-baseline-bursty``
(plain L3 over a 2-rack spine-leaf fabric under MMPP bursts, sketch
metrics) and ``fig18-fluid`` (the 24-cell fig18 grid through the
analytic fluid model).  Each runs in this one process through the
public library API, repeating one pass (one packet cell, or the whole
fluid grid) until ``--seconds`` have been measured.  Host timings are
medians over passes, each cell's timing scaled to a reference host
speed by a calibration loop run next to it (``hostspeed.py``).
``setup_s`` is the median over fresh child processes that import the
library, build the workload and start it, scaled the same way.  The
unscaled medians are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones: exact work counters, single-step timings, and the
cProfile self time of every layer (``layers.py``) from passes run under
the profiler, alternated with untraced passes for ``trace.overhead_frac``.

Every pass's simulated outputs are digested and must match the first
pass's and the checked-in ``reference.json`` entry for the seed; the
workload must still exercise its layers (bypass self-checks).  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` (cells) and ``metrics``.  Lines before it print every
metric with its unit, the failed share and the run's provenance.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

# One thread per process: BLAS worker threads only add contention (and
# noise) on small shared hosts; the fluid kernels run faster without.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

import hostspeed  # noqa: E402  (these import nothing from repro)
import spec  # noqa: E402
import workloads as wl  # noqa: E402
from layers import LAYERS, OTHER, SUB_LAYERS, Attribution  # noqa: E402

#: Fresh processes timed for setup_s, after one untimed warm-up process
#: (which also compiles the C core and bytecode in a fresh checkout).
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
#: The traced run's unattributed share may not exceed this.
MAX_OTHER_FRAC = 0.05
REFERENCE = HERE / "reference.json"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed probe)."""


# ----------------------------------------------------------------------
# Set-up, timed in fresh processes
# ----------------------------------------------------------------------
def probe(workload: str, seed: int) -> None:
    """Child side: import, set up, report monotonic timestamps."""
    wl.import_library(workload)
    imported = time.monotonic()
    wl.setup(workload, seed)
    ready = time.monotonic()
    print(json.dumps({"imported": imported, "ready": ready}))


def run_probe(workload: str, seed: int) -> Dict[str, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    before = hostspeed.calibrate()
    launched = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()[-2000:]}")
    factor = hostspeed.slowdown(before, hostspeed.calibrate())
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "setup_s": (stamps["ready"] - launched) / factor,
        "import_s": (stamps["imported"] - launched) / factor,
        "build_s": (stamps["ready"] - stamps["imported"]) / factor,
        "raw_setup_s": stamps["ready"] - launched,
    }


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    run_probe(workload, seed)  # warm-up: builds, fills caches
    probes = [run_probe(workload, seed) for _ in range(SETUP_PROBES)]
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    return proc.stdout if proc.returncode == 0 else None


def src_digest() -> str:
    """Content digest of the measured sources (identifies a tree without git)."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: wl.Workload, trace: bool, seconds: float) -> Dict[str, Any]:
    import numpy

    from repro.sim import core, sanitize

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "mode": "fluid" if workload.fluid else "packet",
        "engine": "ccore" if core.USING_CCORE else "pure",
        "config_digest": wl.digest_of(_jsonable(workload.config_record())),
        "sanitize": sanitize.enabled(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": None if commit is None else commit.strip(),
        "dirty": None if status is None else bool(status.strip()),
        "src_digest": src_digest(),
        "trace": trace,
        "seconds": seconds,
    }


def _jsonable(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def reference_digest(workload: str, seed: int) -> Optional[str]:
    table = json.loads(REFERENCE.read_text()).get(workload, {})
    return table.get(str(seed), table.get("*"))


class Run:
    """The passes of one benchmark run and their failure accounting."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.expected = reference_digest(workload.name, workload.seed)
        self.passes: List[wl.Pass] = []
        self.digests: Dict[int, str] = {}  # input -> digest of its first pass
        self.attempted = 0  # cells
        self.failed = 0  # cells
        self.problems: List[str] = []

    def one_pass(self, index: int) -> Optional[wl.Pass]:
        """Run pass *index* (input ``index % inputs``); None when it failed."""
        count = self.workload.cells_per_pass
        self.attempted += count
        try:
            result = self.workload.run_pass(index)
        except Exception:  # a raising pass fails its cells; keep measuring
            self.failed += count
            self.problems.append(traceback.format_exc(limit=8))
            return None
        finally:
            gc.collect()  # untimed: drop the finished cluster's cycles now
        problems = list(result.problems)
        key = index % self.workload.inputs
        first = self.digests.setdefault(key, result.digest)
        if not self.passes:
            problems += self.workload.check(result)
        if key == 0 and self.expected is not None and result.digest != self.expected:
            problems.append(f"digest {result.digest} != reference {self.expected}")
        if result.digest != first:
            problems.append(f"input {key}: digest {result.digest} != its first pass's {first}")
        if problems:
            self.failed += count
            self.problems += problems
            return None
        self.passes.append(result)
        return result


def per_input(values: List[float], passes: List[wl.Pass]) -> float:
    """Mean over the run's inputs of each input's median over its passes."""
    groups: Dict[int, List[float]] = {}
    for value, done in zip(values, passes):
        groups.setdefault(done.input, []).append(value)
    return statistics.fmean(statistics.median(group) for group in groups.values())


def end_to_end(run: Run, setup: Dict[str, float], scaled: bool = True) -> Dict[str, float]:
    """Per-input medians over passes, averaged over inputs.

    *scaled* expresses timings at the reference host speed.
    """
    passes = run.passes
    costs = [p.scaled() if scaled else {"wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in passes]
    return {
        "req_per_s": per_input([p.requests / c["wall_s"] for p, c in zip(passes, costs)], passes),
        "cpu_us_per_req": per_input(
            [c["cpu_s"] * 1e6 / p.requests for p, c in zip(passes, costs)], passes
        ),
        "cells_per_s": per_input(
            [run.workload.cells_done(p) / c["wall_s"] for p, c in zip(passes, costs)], passes
        ),
        "setup_s": setup["setup_s" if scaled else "raw_setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def exact_counters(run: Run) -> Dict[str, float]:
    """The per-layer work counters of the seed's own input (the first pass)."""
    counters = run.passes[0].counters
    requests = counters["requests"]
    if run.workload.fluid:
        out = {name: 0.0 for name in (
            "net.packets_per_req", "net.link_tx_per_req", "net.pool_objects",
            "net.nic_rx_drops", "switchsim.passes_per_req", "core.program.clone_frac",
            "core.program.filtered_frac", "core.program.clone_useful_ratio",
            "client.redundant_responses")}
        out["sim.events_per_req"] = run.workload.simulator_events(0) / requests
        return out
    cloned = counters["nc_cloned"]
    return {
        "sim.events_per_req": counters["events"] / requests,
        "net.packets_per_req": counters["packets"] / requests,
        "net.link_tx_per_req": counters["link_tx"] / requests,
        "net.pool_objects": counters["pool_objects"],
        "net.nic_rx_drops": counters["nic_rx_drops"],
        "switchsim.passes_per_req": counters["switch_rx"] / requests,
        "core.program.clone_frac": cloned / requests,
        "core.program.filtered_frac": counters["nc_filtered"] / requests,
        # Clone work not wasted on a stale-clone drop at the server;
        # 0 when nothing was cloned.
        "core.program.clone_useful_ratio": (
            1.0 - counters["clones_dropped"] / cloned if cloned else 0.0
        ),
        "client.redundant_responses": counters["redundant_responses"],
    }


def layer_metrics(stats: Dict[Any, Any], requests: int) -> Dict[str, float]:
    attribution = Attribution(stats, str(SRC))
    total = attribution.total_s
    out: Dict[str, float] = {}
    rows = [(layer, attribution.self_s[layer], attribution.calls[layer])
            for layer in list(LAYERS) + [OTHER]]
    rows += [(sub, attribution.sub_self_s[sub], attribution.sub_calls[sub]) for sub in SUB_LAYERS]
    for layer, self_s, calls in rows:
        out[f"{layer}.calls_per_req"] = calls / requests
        out[f"{layer}.self_us_per_req"] = self_s * 1e6 / requests
        out[f"{layer}.self_frac"] = self_s / total if total > 0 else 0.0
    return out


def measure(run: Run, seconds: float) -> None:
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or (not run.passes and index < 3):
        run.one_pass(index)
        index += 1


def measure_traced(run: Run, seconds: float) -> Dict[str, float]:
    """Alternate untraced and profiled passes; attribute the profile to layers."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    workload = run.workload
    ratios: List[float] = []
    traced_requests = 0
    reduce_s: List[float] = []
    start = time.perf_counter()
    pair = 0
    while time.perf_counter() - start < seconds or (not ratios and pair < 3):
        plain = run.one_pass(pair)  # both passes of a pair run the same input
        workload.enter, workload.leave = profiler.enable, profiler.disable
        try:
            traced = run.one_pass(pair)
        finally:
            workload.enter = workload.leave = None
        pair += 1
        if plain is None or traced is None:
            continue
        ratios.append(traced.wall_s / plain.wall_s - 1.0)
        traced_requests += traced.requests
        reduce_s.append(plain.timings.get("reduce_s", 0.0))
    if not ratios:
        raise BenchError("no traced pass completed:\n" + "\n".join(run.problems))
    out = layer_metrics(pstats.Stats(profiler).stats, traced_requests)
    out["trace.overhead_frac"] = statistics.median(ratios)
    out["metrics.reduce_ms"] = statistics.median(reduce_s) * 1e3
    if out["other.self_frac"] > MAX_OTHER_FRAC:
        run.problems.append(
            f"unattributed profile time {out['other.self_frac']:.1%} > {MAX_OTHER_FRAC:.0%}"
        )
    return out


def fluid_timings(run: Run) -> Dict[str, float]:
    if not run.workload.fluid:
        return {"sim.fluid.plan_ms_per_cell": 0.0, "sim.fluid.point_ms_per_cell": 0.0}
    cells = run.workload.cells_per_pass
    return {
        f"sim.fluid.{step}_ms_per_cell": statistics.median(
            p.timings[f"{step}_s"] for p in run.passes
        ) * 1e3 / cells
        for step in ("plan", "point")
    }


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no library sources under {SRC}; run from a checkout of the repo")
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        check_sources()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe(args.workload, args.seed)
        return 0
    setup = measure_setup(args.workload, args.seed)
    wl.import_library(args.workload)
    workload = wl.setup(args.workload, args.seed)
    run = Run(workload)
    if args.trace:
        metrics = measure_traced(run, args.seconds)
        metrics.update(exact_counters(run))
        metrics.update(fluid_timings(run))
        metrics["experiments.import_s"] = setup["import_s"]
        metrics["experiments.build_s"] = setup["build_s"]
        units = {name: row[0] for name, row in spec.PER_LAYER.items()}
        notes = {name: f"moves {row[2]} on {', '.join(row[3]) or '-'}"
                 for name, row in spec.PER_LAYER.items()}
        for workload_name, layer, share in spec.PREDICTIONS:
            if workload_name == args.workload:
                notes[f"{layer}.self_frac"] += f"; predicted {share:.0%}"
    else:
        measure(run, args.seconds)
        if not run.passes:
            raise BenchError("no pass completed:\n" + "\n".join(run.problems))
        metrics = end_to_end(run, setup)
        raw = end_to_end(run, setup, scaled=False)
        units = {name: unit for name, unit, _better, _bound in spec.END_TO_END}
        notes = {name: f"unscaled {raw[name]:.6g}" for name in units}
    if set(metrics) != set(units):
        raise BenchError(f"metric set drifted: {sorted(set(metrics) ^ set(units))}")

    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"provenance {json.dumps(provenance(workload, bool(args.trace), args.seconds), sort_keys=True)}")
    for name in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]:6s} ({notes[name]})")
    print(f"{'failed_share':40s} {run.failed / run.attempted:>16.6g} "
          f"({run.failed}/{run.attempted} cells)")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
