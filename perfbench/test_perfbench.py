"""Tests of the benchmark itself: spec, checks, attribution, engine parity.

    python3 -m pytest perfbench -q

Most tests simulate a few packet cells (about a second each) or one
fluid grid pass (several seconds), so the file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (also puts the library sources on sys.path)
import spec  # noqa: E402
import workloads as wl  # noqa: E402
from layers import Attribution  # noqa: E402


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _moves, _on) in spec.PER_LAYER.items()
    ]


def _first_pass(name, seed=1):
    wl.import_library(name)
    workload = wl.setup(name, seed)
    return workload, workload.run_pass()


@pytest.mark.parametrize("name", list(wl.PACKET_WORKLOADS))
def test_packet_cell_matches_reference_and_exercises_its_layers(name):
    workload, first = _first_pass(name)
    assert first.problems == []
    assert workload.check(first) == []
    assert first.digest == run.reference_digest(name, 1)
    counters = first.counters
    if name == "star-netclone":
        assert counters["nc_cloned"] > 0 and counters["nc_filtered"] > 0
    else:
        assert counters["nc_cloned"] == 0 and counters["nc_filtered"] == 0


def test_fluid_grid_is_all_fluid_and_runs_no_events():
    workload, first = _first_pass(wl.FLUID_WORKLOAD)
    assert first.counters["fluid_cells"] == workload.cells_per_pass == 24
    assert workload.check(first) == []
    assert workload.simulator_events(0) == 0
    assert first.digest == run.reference_digest(wl.FLUID_WORKLOAD, 12345)


def test_simulator_watch_sees_packet_events():
    wl.import_library("star-netclone")
    workload = wl.setup("star-netclone", 1)
    with wl.SimulatorRunWatch() as watch:
        first = workload.run_pass()
    assert watch.events == first.counters["events"] > 0


def test_failed_cells_are_counted():
    wl.import_library("star-netclone")
    workload = wl.setup("star-netclone", 1)
    bench_run = run.Run(workload)
    bench_run.expected = "0" * 32  # a reference the outputs cannot match
    assert bench_run.one_pass(0) is None
    assert (bench_run.attempted, bench_run.failed) == (1, 1)
    assert "!= reference" in bench_run.problems[-1]


def test_builtins_are_charged_to_their_callers():
    src = str(run.SRC)
    switch = (f"{src}/repro/switchsim/switch.py", 10, "_ingress")
    client = (f"{src}/repro/apps/client.py", 20, "send")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    ccore_run = ("~", 0, "<method 'run' of 'repro.sim._ccore.Simulator' objects>")
    stats = {
        switch: (4, 4, 1.0, 4.0, {}),
        client: (2, 2, 1.0, 2.0, {}),
        # 3 s of heappush: 2 s from the switch, 1 s from the client.
        heappush: (6, 6, 3.0, 3.0, {switch: (4, 4, 2.0, 2.0), client: (2, 2, 1.0, 1.0)}),
        ccore_run: (1, 1, 0.5, 6.5, {}),
    }
    attribution = Attribution(stats, src)
    assert attribution.self_s["switchsim"] == pytest.approx(3.0)
    assert attribution.self_s["client"] == pytest.approx(2.0)
    assert attribution.self_s["sim"] == pytest.approx(0.5)
    assert attribution.self_s["other"] == 0.0


def _planted_egress(original):
    """A slower ``_egress`` whose extra work profiles as switch code."""
    from repro.switchsim import switch

    source = (
        "def _egress(self, packet, port):\n"
        "    for _ in range(1500):\n"
        "        pass\n"
        "    return _original(self, packet, port)\n"
    )
    namespace = {"_original": original}
    exec(compile(source, switch.__file__, "exec"), namespace)
    return namespace["_egress"]


def _traced_and_plain(workload):
    import cProfile
    import pstats

    bench_run = run.Run(workload)
    plain = [bench_run.one_pass(0) for _ in range(2)]
    profiler = cProfile.Profile()
    workload.enter, workload.leave = profiler.enable, profiler.disable
    traced = bench_run.one_pass(0)
    workload.enter = workload.leave = None
    assert bench_run.failed == 0, bench_run.problems
    layers = run.layer_metrics(pstats.Stats(profiler).stats, traced.requests)
    # Profiled times at the reference host speed, so host drift between
    # the two runs is not read as added time.
    slowdown = traced.wall_s / traced.scaled()["wall_s"]
    self_us = {key[: -len(".self_us_per_req")]: value / slowdown
               for key, value in layers.items() if key.endswith(".self_us_per_req")}
    req_per_s = max(p.requests / p.scaled()["wall_s"] for p in plain)
    return self_us, req_per_s


def test_planted_egress_slowdown_lands_in_switchsim(monkeypatch):
    from repro.switchsim.switch import ProgrammableSwitch

    wl.import_library("star-netclone")
    base_us, base_rate = _traced_and_plain(wl.setup("star-netclone", 1))
    monkeypatch.setattr(
        ProgrammableSwitch, "_egress", _planted_egress(ProgrammableSwitch._egress)
    )
    slow_us, slow_rate = _traced_and_plain(wl.setup("star-netclone", 1))

    added = {layer: slow_us[layer] - base_us[layer] for layer in base_us
             if layer != "net.topology"}  # a part of net, not a layer of its own
    total = sum(added.values())
    assert total > 0
    assert added["switchsim"] >= 0.8 * total, added
    assert slow_rate < 0.9 * base_rate


def test_engines_agree_on_outputs_and_counters():
    """Both engines claim bit-identity; hold them to it on every workload."""
    code = (
        "import json, run, workloads as wl\n"
        "from repro.sim import core\n"
        "out = {'ccore': core.USING_CCORE}\n"
        "for name in wl.PACKET_WORKLOADS:\n"
        "    wl.import_library(name)\n"
        "    first = wl.setup(name, 3).run_pass()\n"
        "    out[name] = [first.digest, first.counters]\n"
        "print(json.dumps(out))\n"
    )

    def measure(pure):
        env = dict(os.environ)
        env.pop("REPRO_PURE_SIM", None)
        if pure:
            env["REPRO_PURE_SIM"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    default, pure = measure(False), measure(True)
    if not default.pop("ccore"):
        pytest.skip("the C core did not load here: one engine only")
    assert pure.pop("ccore") is False
    assert pure == default
    for name, (digest, _counters) in pure.items():
        assert digest == run.reference_digest(name, 3)
