"""Fluid-mode (analytic) sweep cells: eligibility, determinism, and
the accuracy contract vs. live packet mode.

The contract tests re-run the fig18 ECMP cells in packet mode at the
benchmark scale and hold the fluid numbers to
:data:`repro.sim.fluid.ACCURACY_CONTRACT` — the same bounds the module
docstring documents.  Packet mode is deterministic per seed, so these
are golden comparisons that track the real simulator, not frozen
constants.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import fig18_trunk_saturation as fig18
from repro.experiments.common import ClusterConfig
from repro.experiments.executor import resolve_executor
from repro.experiments.harness import capacity_rps, scaled_config
from repro.experiments.specs import KvSpec, make_synthetic_spec
from repro.sim import fluid

SCALE = 0.25
SEED = 1

#: fig18's opt-in fabric parameters (the sweep never fails a spine).
FABRIC = {"racks": 2, "spines": 4, "express_spines": True}


def _cell_config(
    scheme: str = "baseline",
    policy: str = "ecmp",
    gbps: float = 1.0,
    topology: str = "spine_leaf",
    workload=None,
) -> ClusterConfig:
    """One fig18 grid cell, built exactly as the experiment builds it."""
    spec = workload if workload is not None else make_synthetic_spec("exp", mean_us=25.0)
    capacity = capacity_rps(fig18.NUM_SERVERS * fig18.WORKERS, spec.mean_service_ns)
    config = scaled_config(
        ClusterConfig(
            workload=spec,
            topology=topology,
            num_servers=fig18.NUM_SERVERS,
            workers_per_server=fig18.WORKERS,
            num_clients=fig18.NUM_CLIENTS,
            rate_rps=fig18.LOAD_FRACTION * capacity,
            seed=SEED,
        ),
        SCALE,
    )
    return replace(
        config,
        scheme=scheme,
        topology_params={
            **FABRIC,
            "spine_policy": policy,
            "trunk_bandwidth_bps": gbps * 1e9,
        },
    )


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def test_rejects_non_spine_leaf_topology():
    plan = fluid.plan(_cell_config(topology="star"))
    assert not plan.eligible
    assert "spine_leaf" in plan.reason
    with pytest.raises(ExperimentError):
        plan.point()


def test_rejects_unmodelled_scheme():
    plan = fluid.plan(_cell_config(scheme="cclone-d3"))
    assert not plan.eligible
    assert "cclone-d3" in plan.reason


def test_rejects_unmodelled_policy():
    config = _cell_config()
    config = replace(
        config,
        topology_params={**config.topology_params, "spine_policy": "weighted"},
    )
    plan = fluid.plan(config)
    assert not plan.eligible
    assert "weighted" in plan.reason


def test_rejects_non_exponential_workloads():
    for workload in (make_synthetic_spec("bimodal"), KvSpec(num_keys=1000)):
        plan = fluid.plan(_cell_config(workload=workload))
        assert not plan.eligible
        assert "not the" in plan.reason


def test_evaluate_raises_on_ineligible():
    with pytest.raises(ExperimentError):
        fluid.evaluate(_cell_config(scheme="cclone-d3"))


# ----------------------------------------------------------------------
# Determinism and saturation prediction
# ----------------------------------------------------------------------
def test_fluid_point_is_deterministic():
    first = fluid.evaluate(_cell_config("netclone", "ecmp", 0.5))
    second = fluid.evaluate(_cell_config("netclone", "ecmp", 0.5))
    assert first == second  # dataclass equality covers extras too


def test_fluid_point_seed_independent():
    config = _cell_config("baseline", "ecmp", 0.5)
    reseeded = replace(config, seed=SEED + 41)
    assert fluid.evaluate(config) == fluid.evaluate(reseeded)


def test_hot_trunk_prediction_brackets_saturation():
    tight = fluid.plan(_cell_config("baseline", "ecmp", 0.5))
    loose = fluid.plan(_cell_config("baseline", "ecmp", 1.0))
    assert tight.eligible and loose.eligible
    assert tight.hot_trunk_utilisation > 1.0
    assert loose.hot_trunk_utilisation < 1.0
    # Cloning adds trunk crossings: NetClone's hot trunk runs hotter.
    cloned = fluid.plan(_cell_config("netclone", "ecmp", 1.0))
    assert cloned.hot_trunk_utilisation > loose.hot_trunk_utilisation


def test_fluid_marker_present():
    point = fluid.evaluate(_cell_config("baseline", "ecmp", 1.0))
    assert point.extra["fluid"] == 1.0


# ----------------------------------------------------------------------
# Survival kernel: bit identity with the broadcast formula
# ----------------------------------------------------------------------
def _broadcast_survival(x, base, jitter_p, jitter_factor, p_wait, wait_mean):
    """Reference kernel: the full (base, x) outer-grid formula."""
    out = np.zeros((base.size, x.size))
    for prob, factor in ((1.0 - jitter_p, 1.0), (jitter_p, jitter_factor)):
        if prob <= 0.0:
            continue
        arg = x[None, :] - (base * factor)[:, None]
        if p_wait <= 0.0 or wait_mean <= 0.0:
            surv = (arg < 0.0).astype(float)
        else:
            surv = np.where(
                arg < 0.0, 1.0, p_wait * np.exp(-np.maximum(arg, 0.0) / wait_mean)
            )
        out += prob * surv
    return out


def _kernel_case(name):
    """(x, base, jitter_p, jitter_factor, p_wait, wait_mean) per case."""
    base, _ = fluid._base_service_grid(25_000.0)
    grid = np.linspace(0.0, 4.5e6, 4096)
    if name == "cell":
        return grid - 61_000.0, base, 0.01, 15.0, 0.21, 17_000.0
    if name == "no-wait-prob":
        return grid - 61_000.0, base, 0.01, 15.0, 0.0, 17_000.0
    if name == "no-wait-mean":
        return grid - 61_000.0, base, 0.01, 15.0, 0.21, 0.0
    if name == "no-jitter":
        return grid - 61_000.0, base, 0.0, 15.0, 0.21, 17_000.0
    if name == "arg-exactly-zero":
        # Every base * factor is itself a grid point, so arg == 0.0.
        x = np.unique(np.concatenate([grid, base, base * 15.0]))
        return x, base, 0.01, 15.0, 0.21, 17_000.0
    if name == "deep-underflow":
        # 750 * wait_mean is a small fraction of the grid, and points
        # straddle the cut-off of every row of both jitter branches.
        cut = np.concatenate([base, base * 15.0]) + 750.0 * 50.0
        x = np.unique(np.concatenate([
            grid, cut, np.nextafter(cut, np.inf), np.nextafter(cut, -np.inf),
        ]))
        return x, base, 0.01, 15.0, 0.9, 50.0
    if name == "negative-delta":
        # A cloned pair's second branch: x - delta with delta < 0.
        return (grid - 61_000.0) - (-4_250.5), base, 0.01, 15.0, 0.05, 17_000.0
    raise AssertionError(name)


@pytest.mark.parametrize("name", [
    "cell", "no-wait-prob", "no-wait-mean", "no-jitter",
    "arg-exactly-zero", "deep-underflow", "negative-delta",
])
def test_exec_survival_bit_identical_to_broadcast(name):
    args = _kernel_case(name)
    got = fluid._exec_survival(*args)
    want = _broadcast_survival(*args)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_each_distinct_survival_evaluated_once(monkeypatch):
    """One kernel call per distinct class key, plus one shared first
    branch per (d1, p_wait) of the cloned pairs."""
    calls = []
    kernel = fluid._exec_survival

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(fluid, "_exec_survival", counting)
    plan = fluid.plan(_cell_config("netclone", "ecmp", 0.5))
    model = plan._model
    plan.point()
    keys = {key for _w, _d, _g, key in model._classes()}
    pairs = {key for key in keys if key[0] == "pair"}
    assert pairs, "netclone cell produced no cloned classes"
    first_branches = {(key[1], key[3]) for key in pairs}
    assert len(calls) == len(keys) + len(first_branches)


# ----------------------------------------------------------------------
# Exact golden: fluid LoadPoints, bit for bit
# ----------------------------------------------------------------------
#: ``repr`` of every LoadPoint field of two fig18 cells (scale 0.25,
#: seed 1): one sub-saturated, one saturated.  Any change to these is a
#: change to the fluid model's numbers, not a refactor.
FLUID_GOLDEN = {
    ("baseline", "ecmp", 2.0): {
        "offered_rps": "2520000.0",
        "throughput_rps": "2510381.192996047",
        "p50_us": "31.046854271423566",
        "p99_us": "160.04237114917785",
        "p999_us": "876.8652797358575",
        "mean_us": "41.63509297623513",
        "samples": "25200",
        "latency_sketch": "None",
        "extra": {
            "clones_dropped": "0",
            "empty_queue_fraction": "0.8367938013645566",
            "fluid": "1.0",
            "nc_cloned": "0",
            "nc_filtered": "0",
            "nc_fingerprint_overwrite": "0.0",
            "redundant_responses": "0.0",
            "state_samples_total": "31500",
            "state_samples_zero": "26359",
            "trunk_drops": "0.0",
            "trunk_tx_bytes": "8050153.0",
            "trunk_util_max": "0.32145227743750465",
            "trunk_util_mean": "0.1610030693593762",
        },
    },
    ("netclone", "least-loaded", 0.5): {
        "offered_rps": "2520000.0",
        "throughput_rps": "2510492.045326139",
        "p50_us": "43.64102532237873",
        "p99_us": "167.09772326420622",
        "p999_us": "816.5527374603593",
        "mean_us": "50.83901642432934",
        "samples": "25200",
        "latency_sketch": "None",
        "extra": {
            "clones_dropped": "3267",
            "empty_queue_fraction": "0.5343138748448544",
            "fluid": "1.0",
            "nc_cloned": "8993",
            "nc_filtered": "5726",
            "nc_fingerprint_overwrite": "0.0",
            "redundant_responses": "0.0",
            "state_samples_total": "37226",
            "state_samples_zero": "19891",
            "trunk_drops": "0.0",
            "trunk_tx_bytes": "10417634.0",
            "trunk_util_max": "0.8334106895932223",
            "trunk_util_mean": "0.8334106895932223",
        },
    },
}


@pytest.mark.parametrize("cell", sorted(FLUID_GOLDEN), ids=str)
def test_fluid_point_exact_golden(cell):
    point = fluid.evaluate(_cell_config(*cell))
    got = {f.name: repr(getattr(point, f.name)) for f in fields(point)}
    got["extra"] = {key: repr(value) for key, value in sorted(point.extra.items())}
    assert got == FLUID_GOLDEN[cell]


# ----------------------------------------------------------------------
# Accuracy contract vs. live packet mode (golden: packet mode is
# deterministic per seed)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ecmp_cells():
    """(scheme, packet point, fluid point) for the sub-saturation ECMP cells."""
    schemes = ("baseline", "netclone")
    configs = [_cell_config(scheme, "ecmp", 1.0) for scheme in schemes]
    packet = resolve_executor(None, 1).run_points(configs)
    analytic = [fluid.evaluate(config) for config in configs]
    return list(zip(schemes, packet, analytic))


def _relative(measured: float, reference: float) -> float:
    if reference == 0.0:
        return abs(measured)
    return abs(measured - reference) / abs(reference)


@pytest.mark.slow
def test_accuracy_contract_sub_saturation(ecmp_cells):
    bounds = fluid.ACCURACY_CONTRACT
    for scheme, packet, analytic in ecmp_cells:
        for key in ("offered_rps", "throughput_rps", "p50_us", "p99_us", "mean_us"):
            err = _relative(getattr(analytic, key), getattr(packet, key))
            assert err <= bounds[key], (
                f"{scheme}: {key} off by {err:.1%} (bound {bounds[key]:.0%})"
            )
        for key in ("trunk_util_max", "trunk_util_mean", "trunk_tx_bytes"):
            err = _relative(analytic.extra[key], packet.extra[key])
            assert err <= bounds[key], (
                f"{scheme}: {key} off by {err:.1%} (bound {bounds[key]:.0%})"
            )


@pytest.mark.slow
def test_fluid_extras_field_compatible(ecmp_cells):
    """Fluid points carry exactly the packet extras plus the marker."""
    for _scheme, packet, analytic in ecmp_cells:
        assert "fluid" not in packet.extra
        assert set(analytic.extra) == set(packet.extra) | {"fluid"}
        assert analytic.samples > 0


# ----------------------------------------------------------------------
# Harness routing: the fluid flag on fig18.collect
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_collect_fluid_threshold_routes_cells():
    """fluid=1.0 keeps saturated cells analytic, the rest packet —
    and the split is deterministic across jobs."""
    topology = "spine_leaf:spine_policy=ecmp"
    serial = fig18.collect(scale=SCALE, seed=SEED, topology=topology, fluid=1.0)
    for (_scheme, policy), cells in serial.items():
        assert policy == "ecmp"
        for gbps, point in cells:
            predicted = fluid.plan(
                _cell_config(_scheme, policy, gbps)
            ).hot_trunk_utilisation
            if predicted >= 1.0:
                assert point.extra.get("fluid") == 1.0, (gbps, _scheme)
            else:
                assert "fluid" not in point.extra, (gbps, _scheme)
    parallel = fig18.collect(
        scale=SCALE, seed=SEED, topology=topology, fluid=1.0, jobs=2
    )
    assert serial == parallel


@pytest.mark.slow
def test_collect_fluid_zero_sends_every_eligible_cell_analytic():
    results = fig18.collect(
        scale=SCALE, seed=SEED, topology="spine_leaf:spine_policy=ecmp", fluid=0.0
    )
    for _key, cells in results.items():
        for _gbps, point in cells:
            assert point.extra.get("fluid") == 1.0
