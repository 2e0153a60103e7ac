"""Fluid-mode (analytic) evaluation of trunk-saturation sweep cells.

Deep-saturation cells are the most expensive points of the fig18 grid
— millions of per-packet events spent confirming that an oversubscribed
trunk queues a linearly growing backlog — yet they are exactly the
cells a deterministic fluid model predicts best: routing is static
(ECMP pins every destination to one spine), demand is an open-loop
Poisson stream whose fluid limit is a constant byte rate per trunk
direction, and the dominant latency term is ``(utilisation - 1) * t``
backlog growth, not stochastic fine structure.

:func:`plan` builds the cluster **assembly** for one
:class:`~repro.experiments.common.ClusterConfig` (switches, tables,
addresses — the simulation is never started), derives every per-trunk
per-direction offered byte rate by flow conservation, and predicts the
hot-trunk utilisation.  :meth:`FluidPlan.point` then composes the full
:class:`~repro.metrics.sweep.LoadPoint` analytically:

* **trunk series** — exact expected byte accounting per direction
  (requests pinned to ``dst % spines``, responses pinned to the
  client's spine, cloned copies included at the self-consistent clone
  rate), reduced through
  :func:`repro.metrics.links.fluid_trunk_summary`;
* **server queueing** — per-server M/G/c: Erlang-C wait probability,
  Allen-Cunneen mean-wait correction for the paper's jittered service
  law (``Exp(mean)`` base times a two-point jitter factor), with the
  NetClone clone fraction solved as a fixed point of the idle-state
  gate ``P(both candidates idle)``;
* **latency percentiles** — the response-time law is composed on a
  numpy grid: a deterministic per-class path delay (NIC costs and
  M/D/1-style NIC/trunk standing waits included), an Erlang wait atom
  plus exponential tail, and the service × jitter mixture integrated
  over a stratified base-service quantile grid.  Cloned completions
  take the elementwise product of the two branches' survival curves
  *conditioned on the shared base draw* — the paper's "clones share
  the base duration, only jitter and queueing differ" structure;
* **saturation dynamics** — directions past :data:`SATURATION_UTIL`
  contribute a backlog shift growing as ``(u - 1) * t``; percentiles,
  throughput and the recorded-sample count integrate over send times,
  with completions truncated at the simulation horizon exactly like
  the packet-mode recorder.

Accuracy contract
-----------------

Fluid numbers are *model* numbers: deterministic, seed-independent,
and carrying a ``"fluid": 1.0`` marker in ``LoadPoint.extra``.  On
**sub-saturation** cells (predicted hot-trunk utilisation below 1.0)
they agree with packet mode within :data:`ACCURACY_CONTRACT` — relative
bounds verified by ``tests/test_fluid_mode.py`` against live packet
runs of the fig18 ECMP cells.  Saturated cells are dominated by the
deterministic backlog term, but their packet-mode numbers depend on
fine-grained drain/horizon effects, so only the trunk byte series is
held to a bound there; percentiles are indicative.  ``p999`` and the
``nc_*`` / ``state_samples_*`` diagnostic extras are indicative
everywhere (documented, not bounded).  For the dynamic policies the
per-trunk *layout* keys (``trunk_util_max`` / ``trunk_util_mean``) are
indicative too — see :data:`LAYOUT_CONTRACT_POLICIES` — while latency,
throughput and byte totals keep their bounds.  Configurations the
model does not cover at all (coordinator schemes, KV workloads,
failure drills, non-spine-leaf fabrics) are rejected by :func:`plan`
and must stay in packet mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.queueing import erlang_c
from repro.errors import ExperimentError
from repro.metrics.links import fluid_trunk_summary
from repro.metrics.sweep import LoadPoint

__all__ = [
    "ACCURACY_CONTRACT",
    "FluidPlan",
    "LAYOUT_CONTRACT_POLICIES",
    "LL_SPILL_UTIL",
    "SATURATION_UTIL",
    "SPREAD_SPINE_POLICIES",
    "STATIC_SPINE_POLICIES",
    "SUPPORTED_SCHEMES",
    "evaluate",
    "plan",
]

#: Schemes the analytic model covers (client → switch → M/G/c server →
#: response, optional switch cloning + filtering).  Coordinator-based
#: and JSQ-fallback schemes are not modelled.
SUPPORTED_SCHEMES = ("baseline", "netclone")

#: Spine policies with statically predictable routing: ECMP pins every
#: destination, and ``flowlet`` anchors on ECMP and never re-picks
#: under the sweep's continuous per-destination flows (no idle gaps),
#: so both produce the ECMP byte layout.
STATIC_SPINE_POLICIES = ("ecmp", "flowlet")

#: Policies modelled as ECMP-anchored until a direction saturates,
#: then spilling the excess across sibling trunks (water-filling) —
#: the fluid limit of backlog-driven spreading.
SPREAD_SPINE_POLICIES = ("least-loaded",)

#: Utilisation at which a trunk direction switches from a stationary
#: M/D/1-style standing wait to a linearly growing backlog.
SATURATION_UTIL = 0.97

#: Spill threshold of the least-loaded water-fill: the policy reacts
#: to instantaneous backlog, so it starts diverting well below hard
#: saturation — packet mode shows the hot trunk equalising at ~0.7
#: offered share while siblings absorb the rest.
LL_SPILL_UTIL = 0.65

#: Relative agreement bounds vs. packet mode on sub-saturation cells
#: (see the module docstring; enforced by ``tests/test_fluid_mode.py``).
#: ``trunk_tx_bytes`` is a flow-conservation quantity; the latency
#: percentiles carry the queueing-model error.
ACCURACY_CONTRACT: Dict[str, float] = {
    "offered_rps": 0.02,
    "throughput_rps": 0.05,
    "p50_us": 0.10,
    "mean_us": 0.15,
    "p99_us": 0.30,
    "trunk_util_max": 0.10,
    "trunk_util_mean": 0.10,
    "trunk_tx_bytes": 0.10,
}

#: The trunk *layout* keys are only bounded for the statically routed
#: policies.  Dynamic policies place the same total bytes, but where
#: they land depends on simulated backlog feedback (``least-loaded``)
#: or on which spine each flow's *first* packet happened to see as
#: least loaded during the warmup transient (``flowlet`` — flows then
#: pin to that choice for the whole run).  Latency, throughput and
#: byte totals stay bounded for every eligible policy; the utilisation
#: spread is indicative for everything but pure ECMP.
LAYOUT_CONTRACT_POLICIES = ("ecmp",)

#: Calibration constants, fitted once against packet-mode runs of the
#: fig18 ECMP cells at scale 0.25 (see ``tests/test_fluid_mode.py``,
#: which re-verifies the fit live).
#:
#: The clone gate reads *tracked* queue state — piggybacked, hence
#: stale and biased toward post-completion snapshots — so the idle
#: probability it sees is higher than the PASTA occupancy.  The gate
#: fixed point uses ``q0 = 1 - _GATE_KAPPA * ErlangC * rho``; packet
#: mode measures a clone fraction of ~0.29 and an empty-queue fraction
#: of ~0.53 at the sweep's operating point, which pins kappa.
_GATE_KAPPA = 0.65
#: Stale-drop probability per cloned copy: the clone arrives a few
#: microseconds after the gate read, so ``p_stale`` tracks ``1 - q0``
#: softened by the same snapshot bias (packet mode: ~0.36-0.42).
_STALE_KAPPA = 0.78
#: Wait-probability multiplier for the cloned population (requests
#: routed because *both* candidates reported idle queues).
_CLONED_WAIT_FACTOR = 0.25
#: Allen-Cunneen overestimates the M/G/c wait when the service SCV
#: comes from rare huge jobs (the 1%-of-15x jitter); this scales the
#: conditional wait down to the measured operating point.
_MGC_WAIT_SCALE = 0.6
#: NIC queues are fed by network-smoothed (sub-Poisson) arrivals —
#: e.g. the client RX NIC drains a trunk that serialises slower than
#: the NIC receives — so the M/D/1 standing wait is scaled down.
_NIC_WAIT_SCALE = 0.3
#: Same smoothing argument for trunk standing waits below saturation.
_TRUNK_WAIT_SCALE = 0.7

_TIME_POINTS = 4096
_SEND_POINTS = 33
_THROUGHPUT_POINTS = 65
#: Stationary trunk waits are capped at this many packet times (the
#: knee region just under saturation never reaches stationarity inside
#: a finite measurement window).
_STANDING_WAIT_CAP_PKTS = 50.0

_BITS = 8


# ----------------------------------------------------------------------
# Quantile grids and survival kernels
# ----------------------------------------------------------------------
def _base_service_grid(mean_ns: float) -> Tuple[np.ndarray, np.ndarray]:
    """Stratified quantile midpoints + weights of the Exp(mean) base.

    A uniform body plus a log-spaced tail out to the 1-1e-5 quantile,
    so the jitter-amplified service tail (which owns p999) is sampled
    instead of truncated.
    """
    body = np.linspace(0.0, 0.98, 81)
    tail = 1.0 - np.logspace(math.log10(0.02), -5.0, 41)
    edges = np.unique(np.concatenate([body, tail]))
    mids = (edges[:-1] + edges[1:]) / 2.0
    weights = np.diff(edges)
    weights = weights / weights.sum()
    return -mean_ns * np.log1p(-mids), weights


def _exec_survival(
    x: np.ndarray,
    base: np.ndarray,
    jitter_p: float,
    jitter_factor: float,
    p_wait: float,
    wait_mean: float,
) -> np.ndarray:
    """``P(W + B*J > x | B = base)`` on an outer ``(base, x)`` grid.

    ``W`` is the Erlang atom-plus-exponential wait (``P(W > t) =
    p_wait * exp(-t / wait_mean)``), ``J`` the two-point jitter factor.

    *x* must be sorted ascending.  Each jitter branch then splits every
    row at ``bf = base * factor`` into three windows:

    * ``x < bf`` — the execution has not finished, so the row gains
      exactly ``prob * 1.0``;
    * ``bf <= x <= bf + 750 * wait_mean`` — the only window evaluated,
      as subtract, divide by ``-wait_mean``, ``exp``, ``* p_wait``,
      ``* prob``, ``+=``.  That equals the broadcast formula's
      ``exp(-maximum(arg, 0) / wait_mean)`` bit for bit: the window
      starts at ``searchsorted(..., side="left")``, so ``x - bf >= 0``
      already (``x == bf`` gives ``+0.0``) and ``maximum`` is a no-op,
      and IEEE division is sign-symmetric, so ``w / -m == -w / m``
      (for ``-0.0`` too);
    * beyond that — ``exp(-arg / wait_mean)`` underflows to exactly
      ``+0.0`` (the smallest subnormal is ``e**-744.4``), so the row
      gains ``+0.0`` and is left untouched.

    Without a wait (``p_wait <= 0`` or ``wait_mean <= 0``) only the
    first window contributes.  The result is bit-identical to the
    broadcast form ``sum(prob * where(arg < 0, 1, p_wait * exp(...)))``
    over the full ``(base, x)`` grid, which ``tests/test_fluid_mode.py``
    keeps as the reference.
    """
    out = np.zeros((base.size, x.size))
    waits = p_wait > 0.0 and wait_mean > 0.0
    scratch = np.empty(x.size)
    neg_wait_mean = -wait_mean
    for prob, factor in ((1.0 - jitter_p, 1.0), (jitter_p, jitter_factor)):
        if prob <= 0.0:
            continue
        bfs = base * factor
        starts = np.searchsorted(x, bfs, side="left").tolist()
        if waits:
            stops = np.searchsorted(x, bfs + 750.0 * wait_mean, side="right").tolist()
        else:
            stops = starts
        for row, bf, lo, hi in zip(out, bfs.tolist(), starts, stops):
            row[:lo] += prob
            if hi <= lo:
                continue
            w = scratch[: hi - lo]
            np.subtract(x[lo:hi], bf, out=w)
            np.divide(w, neg_wait_mean, out=w)
            np.exp(w, out=w)
            np.multiply(w, p_wait, out=w)
            np.multiply(w, prob, out=w)
            row[lo:hi] += w
    return out


def _water_fill(levels: np.ndarray, spill_at: float) -> np.ndarray:
    """Backlog-driven spreading: excess above *spill_at* joins the
    least-loaded siblings (equal capacities), preserving the total."""
    levels = np.asarray(levels, dtype=float)
    excess = float(np.clip(levels - spill_at, 0.0, None).sum())
    if excess <= 0.0:
        return levels.copy()
    base = np.minimum(levels, spill_at)
    order = np.argsort(base)
    filled = base[order].copy()
    # Raise the lowest levels first until the excess is absorbed (or
    # everything sits at spill_at, after which the remainder spreads
    # evenly — the fully saturated fabric).
    for i in range(filled.size):
        width = filled.size - i if i == filled.size - 1 else 1
        step = (filled[i + 1] if i + 1 < filled.size else spill_at) - filled[i]
        room = step * (i + 1)
        if room >= excess:
            filled[: i + 1] += excess / (i + 1)
            excess = 0.0
            break
        filled[: i + 1] += step
        excess -= room
    if excess > 0.0:
        filled += excess / filled.size
    out = np.empty_like(filled)
    out[order] = filled
    return out


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _ineligible_reason(config: Any) -> Optional[str]:
    from repro.experiments.specs import SyntheticSpec

    if config.topology != "spine_leaf":
        return f"topology {config.topology!r} has no trunk grid (need spine_leaf)"
    policy = str(config.topology_params.get("spine_policy", "ecmp"))
    if policy not in STATIC_SPINE_POLICIES + SPREAD_SPINE_POLICIES:
        return f"spine policy {policy!r} is not modelled"
    if config.scheme not in SUPPORTED_SCHEMES:
        return f"scheme {config.scheme!r} is not modelled"
    workload = config.workload
    if not isinstance(workload, SyntheticSpec) or not workload.name.startswith("Exp("):
        return (
            f"workload {getattr(workload, 'name', workload)!r} is not the "
            "exponential dummy-RPC model"
        )
    return None


# ----------------------------------------------------------------------
# The per-cell analytic model
# ----------------------------------------------------------------------
class _CellModel:
    """Flow, queueing and latency model of one sweep cell."""

    def __init__(self, config: Any):
        from repro.experiments.common import Cluster

        self.config = config
        cluster = Cluster(config)  # assembly only; never started
        fabric = cluster.topology
        self.policy = str(config.topology_params.get("spine_policy", "ecmp"))
        self.spread = self.policy in SPREAD_SPINE_POLICIES
        self.num_racks = fabric.num_racks
        self.num_spines = len(fabric.spines)
        self.rate = float(config.rate_rps)
        self.end_ns = float(config.end_ns)
        self.warmup_ns = float(config.warmup_ns)
        self.total_ns = float(config.total_ns)
        self.window_ns = self.end_ns - self.warmup_ns

        self.clients = [(c.ip, fabric.rack_of("client", i), c.rate_rps)
                        for i, c in enumerate(cluster.clients)]
        self.servers = [(s.ip, fabric.rack_of("server", i), s.num_workers)
                        for i, s in enumerate(cluster.servers)]
        self.workers = cluster.servers[0].num_workers
        self.num_servers = len(self.servers)
        self.trunk_names = [
            [fabric.uplinks[t][s].name for s in range(self.num_spines)]
            for t in range(self.num_racks)
        ]
        self.trunk_bw = float(fabric.uplinks[0][0].bandwidth_bps)
        self.trunk_prop = float(fabric.uplinks[0][0].propagation_ns)
        star = fabric.stars[0]
        self.acc_bw = float(star.bandwidth_bps)
        self.acc_prop = float(star.propagation_ns)
        self.pipe_ns = float(config.switch_pipeline_ns)
        self.recirc_ns = float(config.switch_recirc_ns)

        self.netclone = cluster.scheme_spec.netclone_mode
        workload = config.workload.make_workload(__import__("random").Random(0))
        probe = config.workload.make_workload(__import__("random").Random(0))
        request = probe.make_request(0, 1)
        self.req_size = float(workload.request_size(request))
        if self.netclone:
            from repro.core.header import NetCloneHeader

            self.req_size += NetCloneHeader.WIRE_SIZE
        self.resp_size = float(cluster.servers[0].service.fixed_response_size)

        self.mean_base_ns = float(config.workload.mean_service_ns)
        self.jitter_p = float(config.jitter_p)
        self.jitter_factor = float(config.jitter_factor)
        ej = 1.0 - self.jitter_p + self.jitter_p * self.jitter_factor
        ej2 = 1.0 - self.jitter_p + self.jitter_p * self.jitter_factor ** 2
        self.mean_exec_ns = self.mean_base_ns * ej
        self.exec_scv = 2.0 * ej2 / (ej * ej) - 1.0

        # Scheme marginals: request destination / clone-pair joint.
        if self.netclone:
            self.pair_joint = [
                self._pair_joint(cluster.group_tables[rack])
                for rack in range(self.num_racks)
            ]
        else:
            self.pair_joint = None

        self._solve_clone_gate()
        self._accumulate_flows()
        self._direction_waits()

    # -- scheme marginals ------------------------------------------------
    def _pair_joint(self, table: Any) -> List[Tuple[int, int, float]]:
        """(first, second, probability) triples of one ToR's table."""
        pairs = table.pairs
        n = len(pairs)
        if table.is_uniform:
            weights = [1.0 / n] * n
        else:
            pref, fall = table.split, n - table.split
            weights = [table.p_local / pref] * pref + [
                (1.0 - table.p_local) / fall
            ] * fall
        return [(p[0], p[1], w) for p, w in zip(pairs, weights)]

    # -- NetClone clone-gate fixed point ---------------------------------
    def _solve_clone_gate(self) -> None:
        """Self-consistent clone fraction / stale-drop / server load."""
        lam_orig = self.rate / self.num_servers / 1e9  # per-server, per ns
        c = self.workers
        mu = 1.0 / self.mean_exec_ns
        f = 0.0
        p_stale = 0.0
        q0 = 1.0
        for _ in range(200):
            executed = f * (1.0 - p_stale) if self.netclone else 0.0
            lam = lam_orig * (1.0 + executed)
            a = min(lam / mu, c * 0.995)
            ec = erlang_c(c, a)
            rho = a / c
            q0 = max(0.0, 1.0 - _GATE_KAPPA * ec * rho)
            if not self.netclone:
                f_new, stale_new = 0.0, 0.0
            else:
                f_new = q0 * q0
                stale_new = min(1.0, _STALE_KAPPA * (1.0 - q0))
            if abs(f_new - f) < 1e-9 and abs(stale_new - p_stale) < 1e-9:
                f, p_stale = f_new, stale_new
                break
            f = 0.5 * f + 0.5 * f_new
            p_stale = 0.5 * p_stale + 0.5 * stale_new
        self.clone_fraction = f
        self.p_stale = p_stale
        self.q_empty = q0
        executed = f * (1.0 - p_stale) if self.netclone else 0.0
        self.lam_server = lam_orig * (1.0 + executed)
        # Waits are taken at the *original* load: the clone gate is
        # admission control — clones are only created when the pool
        # reported idle capacity, so they soak up slack rather than
        # build queues, and the open-loop M/G/c at the clone-inflated
        # load would wildly overestimate (packet mode: NetClone's mean
        # latency sits within a few percent of Baseline's despite ~20%
        # extra executed load).
        a = min(lam_orig / mu, c * 0.995)
        self.p_wait = erlang_c(c, a)
        drain = c * mu - lam_orig
        if drain <= 0.0:
            drain = c * mu * 0.005
        # Allen-Cunneen M/G/c conditional wait, scaled to the measured
        # operating point (see _MGC_WAIT_SCALE).
        self.wait_mean = _MGC_WAIT_SCALE * (1.0 + self.exec_scv) / (2.0 * drain)
        # Population split: both halves of a cloned pair were gated on
        # idle state, so their wait probability shrinks; the uncloned
        # population absorbs the difference (total wait mass conserved).
        if self.netclone and f > 0.0:
            arrivals = 1.0 + f * (1.0 - p_stale)
            phi = f * (2.0 - p_stale) / arrivals
            self.p_wait_cloned = self.p_wait * _CLONED_WAIT_FACTOR
            rest = (1.0 - phi * _CLONED_WAIT_FACTOR) / max(1e-9, 1.0 - phi)
            self.p_wait_uncloned = min(1.0, self.p_wait * rest)
        else:
            self.p_wait_cloned = self.p_wait
            self.p_wait_uncloned = self.p_wait

    # -- flow conservation ----------------------------------------------
    def _spine_of(self, ip: int) -> int:
        return ip % self.num_spines

    def _accumulate_flows(self) -> None:
        """Expected per-direction byte/packet rates (per second)."""
        shape = (self.num_racks, self.num_spines)
        self.up_bytes = np.zeros(shape)
        self.up_pkts = np.zeros(shape)
        self.down_bytes = np.zeros(shape)
        self.down_pkts = np.zeros(shape)
        #: (dst_rack, spine) → source racks feeding that down direction.
        self._down_feeders: Dict[Tuple[int, int], set] = {}
        f, p_stale = self.clone_fraction, self.p_stale
        # Responses of requests sent within roughly one mean latency of
        # the horizon leave after the trunk-stats capture; the byte
        # totals apply that boundary correction.
        lag = self._rough_latency_ns()
        self.resp_boundary = max(0.0, (self.end_ns - lag) / self.end_ns)
        for ip_c, rack_c, rate_c in self.clients:
            spine_c = self._spine_of(ip_c)
            for sid, weight in self._orig_marginal(rack_c):
                ip_s, rack_s, _ = self.servers[sid]
                if rack_s != rack_c:
                    self._cross(rack_c, rack_s, self._spine_of(ip_s),
                                rate_c * weight, self.req_size)
                    self._cross(rack_s, rack_c, spine_c,
                                rate_c * weight * self.resp_boundary,
                                self.resp_size)
            if self.netclone and f > 0.0:
                for _sid1, sid2, weight in self.pair_joint[rack_c]:
                    ip_s, rack_s, _ = self.servers[sid2]
                    if rack_s != rack_c:
                        self._cross(rack_c, rack_s, self._spine_of(ip_s),
                                    rate_c * f * weight, self.req_size)
                        self._cross(rack_s, rack_c, spine_c,
                                    rate_c * f * (1.0 - p_stale) * weight
                                    * self.resp_boundary,
                                    self.resp_size)

    def _orig_marginal(self, rack_c: int) -> List[Tuple[int, float]]:
        """(server id, probability) of the *original* request."""
        if not self.netclone:
            return [(i, 1.0 / self.num_servers) for i in range(self.num_servers)]
        acc: Dict[int, float] = {}
        for sid1, _sid2, w in self.pair_joint[rack_c]:
            acc[sid1] = acc.get(sid1, 0.0) + w
        return sorted(acc.items())

    def _cross(self, src: int, dst: int, spine: int, pkt_rate: float,
               size: float) -> None:
        self.up_bytes[src][spine] += pkt_rate * size
        self.up_pkts[src][spine] += pkt_rate
        self.down_bytes[dst][spine] += pkt_rate * size
        self.down_pkts[dst][spine] += pkt_rate
        self._down_feeders.setdefault((dst, spine), set()).add(src)

    def _rough_latency_ns(self) -> float:
        """Order-of-magnitude mean latency for boundary corrections."""
        hops = 2.0 * (2.0 * self.trunk_prop + 3.0 * self.pipe_ns + self.acc_prop)
        wait = self.p_wait * self.wait_mean
        return hops + wait + self.mean_exec_ns + 3000.0

    # -- per-direction utilisation and waits -----------------------------
    def _direction_waits(self) -> None:
        cap = self.trunk_bw / _BITS  # bytes per second
        self.up_util = self.up_bytes / cap
        self.down_util = self.down_bytes / cap
        # The saturation predictor is the *pinned* (pre-spread) layout:
        # how hard the cell pushes its hottest direction if nothing
        # reacts.  Reported utilisations are post-spread (what packet
        # mode measures); the gate compares against offered stress.
        self.pinned_hot_util = float(
            max(self.up_util.max(initial=0.0), self.down_util.max(initial=0.0))
        )
        if self.spread:
            # least-loaded: hot directions spill onto siblings well
            # before hard saturation (backlog feedback).
            for t in range(self.num_racks):
                self.up_util[t] = _water_fill(self.up_util[t], LL_SPILL_UTIL)
                self.down_util[t] = _water_fill(self.down_util[t], LL_SPILL_UTIL)

        def waits(util: np.ndarray, byts: np.ndarray, pkts: np.ndarray):
            stationary = np.zeros_like(util)
            slope = np.zeros_like(util)
            for idx in np.ndindex(util.shape):
                u = util[idx]
                if pkts[idx] <= 0.0:
                    continue
                ser = (byts[idx] / pkts[idx]) * _BITS / self.trunk_bw * 1e9
                ueff = min(u, SATURATION_UTIL)
                w = _TRUNK_WAIT_SCALE * ueff * ser / (2.0 * (1.0 - ueff))
                stationary[idx] = min(w, _STANDING_WAIT_CAP_PKTS * ser)
                if u > SATURATION_UTIL:
                    slope[idx] = max(0.0, u - 1.0)
            return stationary, slope

        self.up_wait, self.up_slope = waits(self.up_util, self.up_bytes, self.up_pkts)
        self.down_wait, self.down_slope = waits(
            self.down_util, self.down_bytes, self.down_pkts
        )
        # Saturated-uplink pacing: bytes join a down direction at the
        # offered rate for *accounting* (express forwarding books the
        # whole trunk hop at ToR egress), but its actual arrivals are
        # paced by the feeding uplink's serialiser.  A saturated feeder
        # delivers at exactly line rate — deterministic spacing equal
        # to the down service time — so the down queue never builds:
        # the backlog lives entirely in the uplink.  (Packet mode
        # confirms this: the recorded latency-growth slope matches one
        # saturated crossing, not two.)
        for (dst, spine), feeders in self._down_feeders.items():
            if any(self.up_util[src][spine] >= SATURATION_UTIL for src in feeders):
                self.down_wait[dst][spine] = 0.0
                self.down_slope[dst][spine] = 0.0

    # -- headline trunk extras ------------------------------------------
    def hot_trunk_utilisation(self) -> float:
        return self.pinned_hot_util

    def trunk_extras(self) -> Dict[str, float]:
        per_trunk = np.maximum(self.up_util, self.down_util).ravel()
        end_s = self.end_ns / 1e9
        total = float((self.up_bytes + self.down_bytes).sum() * end_s)
        return fluid_trunk_summary(per_trunk.tolist(), round(total), 0.0)

    # -- deterministic path delays --------------------------------------
    def _nic_wait(self, rate_per_s: float, cost_ns: float) -> float:
        rho = min(rate_per_s * cost_ns / 1e9, 0.97)
        return _NIC_WAIT_SCALE * rho * cost_ns / (2.0 * (1.0 - rho))

    def _acc_ser(self, size: float) -> float:
        return round(size * _BITS / self.acc_bw * 1e9)

    def _trunk_ser(self, size: float) -> float:
        return round(size * _BITS / self.trunk_bw * 1e9)

    def _leg_delays(self) -> None:
        """Per-client, per-rack deterministic request/response delays.

        ``req_leg[(ci, rack)]`` → (delay_ns, slope) of the client →
        server-rack request leg including NIC waits and trunk standing
        waits; ``resp_leg`` likewise for server rack → client.  Slopes
        collect the ``(u - 1)`` growth of saturated crossings.
        """
        cfg = self.config
        f, p_stale = self.clone_fraction, self.p_stale
        executed = f * (1.0 - p_stale)
        self.req_leg: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self.resp_leg: Dict[Tuple[int, int], Tuple[float, float]] = {}
        arrivals_per_server = self.rate * (1.0 + f) / self.num_servers
        resp_per_server = self.rate * (1.0 + executed) / self.num_servers
        srv_rx_wait = self._nic_wait(arrivals_per_server, cfg.server_rx_ns)
        srv_tx_wait = self._nic_wait(resp_per_server, cfg.server_tx_ns)
        for ci, (ip_c, rack_c, rate_c) in enumerate(self.clients):
            tx_wait = self._nic_wait(rate_c, cfg.client_tx_ns)
            rx_wait = self._nic_wait(rate_c, cfg.client_rx_ns)
            spine_c = self._spine_of(ip_c)
            for rack_s in range(self.num_racks):
                d_req = (cfg.client_tx_ns + tx_wait
                         + self._acc_ser(self.req_size) + self.acc_prop
                         + self.pipe_ns)
                g_req = 0.0
                if rack_s != rack_c:
                    w, g = self._request_cross(rack_c, rack_s)
                    d_req += w + 2.0 * (self._trunk_ser(self.req_size)
                                        + self.trunk_prop + self.pipe_ns)
                    g_req += g
                d_req += (self._acc_ser(self.req_size) + self.acc_prop
                          + cfg.server_rx_ns + srv_rx_wait)
                self.req_leg[(ci, rack_s)] = (d_req, g_req)

                d_resp = (cfg.server_tx_ns + srv_tx_wait
                          + self._acc_ser(self.resp_size) + self.acc_prop
                          + self.pipe_ns)
                g_resp = 0.0
                if rack_s != rack_c:
                    if self.spread:
                        w = float(self.up_wait[rack_s].mean()
                                  + self.down_wait[rack_c].mean())
                        g = float(self.up_slope[rack_s].mean()
                                  + self.down_slope[rack_c].mean())
                    else:
                        w = float(self.up_wait[rack_s][spine_c]
                                  + self.down_wait[rack_c][spine_c])
                        g = float(self.up_slope[rack_s][spine_c]
                                  + self.down_slope[rack_c][spine_c])
                    d_resp += w + 2.0 * (self._trunk_ser(self.resp_size)
                                         + self.trunk_prop + self.pipe_ns)
                    g_resp += g
                d_resp += (self._acc_ser(self.resp_size) + self.acc_prop
                           + cfg.client_rx_ns + rx_wait)
                self.resp_leg[(ci, rack_s)] = (d_resp, g_resp)

    def _request_cross(self, rack_c: int, rack_s: int) -> Tuple[float, float]:
        """Marginal-weighted trunk wait/slope of the request crossing."""
        if self.spread:
            return (
                float(self.up_wait[rack_c].mean() + self.down_wait[rack_s].mean()),
                float(self.up_slope[rack_c].mean() + self.down_slope[rack_s].mean()),
            )
        total_w = total_g = total_p = 0.0
        for sid, weight in self._orig_marginal(rack_c):
            ip_s, rack, _ = self.servers[sid]
            if rack != rack_s:
                continue
            s = self._spine_of(ip_s)
            total_w += weight * (self.up_wait[rack_c][s] + self.down_wait[rack_s][s])
            total_g += weight * (self.up_slope[rack_c][s] + self.down_slope[rack_s][s])
            total_p += weight
        if total_p <= 0.0:
            return 0.0, 0.0
        return total_w / total_p, total_g / total_p

    # -- latency / throughput composition --------------------------------
    def load_point(self) -> LoadPoint:
        self._leg_delays()
        base, base_w = _base_service_grid(self.mean_base_ns)
        classes = self._classes()
        d_max = max(d for _, d, _, _ in classes)
        g_max = max(g for _, _, g, _ in classes)
        tail = -math.log(1e-5) * self.mean_base_ns * self.jitter_factor
        t_max = d_max + g_max * self.end_ns + tail + 12.0 * self.wait_mean
        grid = np.linspace(0.0, t_max, _TIME_POINTS)

        # Per-class latency CDF (send-time independent part), each
        # distinct survival evaluated once; ``branches`` holds the shared
        # first-branch matrix of the cloned pairs.
        cdf_of: Dict[Tuple, np.ndarray] = {}
        branches: Dict[Tuple[float, float], np.ndarray] = {}
        cdfs = []
        for weight, d, g, key in classes:
            if key not in cdf_of:
                surv = self._survival(key, grid, base, base_w, branches)
                cdf_of[key] = 1.0 - surv
            cdfs.append((weight, d, g, cdf_of[key]))

        # Mixture over send times in the measured window, truncated at
        # the simulation horizon (a response arriving after the drain
        # is never recorded — exactly the packet recorder's behaviour).
        taus = np.linspace(self.warmup_ns, self.end_ns, _SEND_POINTS)
        mix = np.zeros(_TIME_POINTS)
        mass = 0.0
        for weight, _d, g, cdf in cdfs:
            for tau in taus:
                shifted = np.interp(grid - g * tau, grid, cdf, left=0.0, right=1.0)
                # A send at tau completes by the horizon iff its
                # backlog-free latency beats total - tau*(1+g).
                cap = float(np.interp(self.total_ns - tau * (1.0 + g), grid,
                                      cdf, left=0.0, right=1.0))
                mix += weight * np.minimum(shifted, cap)
                mass += weight * cap
        mix /= len(taus)
        mass /= len(taus)
        if mass <= 0.0:
            raise ExperimentError("fluid cell produced no completions")
        norm = mix / mass

        def quantile(q: float) -> float:
            return float(np.interp(q, norm, grid))

        mean_ns = float(np.trapezoid(1.0 - norm, grid))

        # Throughput: completions occurring inside the window.
        tp_taus = np.linspace(0.0, self.end_ns, _THROUGHPUT_POINTS)
        done = np.zeros(tp_taus.size)
        for weight, _d, g, cdf in cdfs:
            upper = np.interp(self.end_ns - tp_taus * (1.0 + g), grid, cdf,
                              left=0.0, right=1.0)
            lower = np.interp(self.warmup_ns - tp_taus * (1.0 + g), grid, cdf,
                              left=0.0, right=1.0)
            done += weight * (upper - lower)
        completions = self.rate / 1e9 * float(np.trapezoid(done, tp_taus))
        throughput = completions * 1e9 / self.window_ns

        samples = int(round(self.rate / 1e9 * self.window_ns * mass))
        extra = self._extras()
        return LoadPoint(
            offered_rps=self.rate,
            throughput_rps=throughput,
            p50_us=quantile(0.50) / 1000.0,
            p99_us=quantile(0.99) / 1000.0,
            p999_us=quantile(0.999) / 1000.0,
            mean_us=mean_ns / 1000.0,
            samples=samples,
            extra=extra,
        )

    def _classes(self) -> List[Tuple[float, float, float, Tuple]]:
        """(weight, shift, growth slope, survival key) per latency class.

        The key names everything the class's survival depends on beyond
        the cell constants: ``("uncloned", d, p_wait, wait_mean)`` or
        ``("pair", d1, delta, p_wait, wait_mean)``.  Classes sharing a
        key share one evaluation (see :meth:`load_point`); their
        weights are never merged, so the mixture sums stay in order.
        """
        classes: List[Tuple[float, float, float, Tuple]] = []
        f = self.clone_fraction
        for ci, (_ip, rack_c, rate_c) in enumerate(self.clients):
            share = rate_c / self.rate
            if self.netclone:
                joint: Dict[Tuple[int, int], float] = {}
                orig: Dict[int, float] = {}
                for sid1, sid2, w in self.pair_joint[rack_c]:
                    r1 = self.servers[sid1][1]
                    r2 = self.servers[sid2][1]
                    joint[(r1, r2)] = joint.get((r1, r2), 0.0) + w
                    orig[r1] = orig.get(r1, 0.0) + w
            else:
                orig = {}
                for sid, weight in self._orig_marginal(rack_c):
                    rack = self.servers[sid][1]
                    orig[rack] = orig.get(rack, 0.0) + weight
                joint = {}

            for rack_s, pw in sorted(orig.items()):
                d = (self.req_leg[(ci, rack_s)][0]
                     + self.resp_leg[(ci, rack_s)][0])
                g = (self.req_leg[(ci, rack_s)][1]
                     + self.resp_leg[(ci, rack_s)][1])
                key = ("uncloned", d, self.p_wait_uncloned, self.wait_mean)
                classes.append((share * (1.0 - f) * pw, d, g, key))

            if self.netclone and f > 0.0:
                for (r1, r2), pw in sorted(joint.items()):
                    d1 = (self.req_leg[(ci, r1)][0]
                          + self.resp_leg[(ci, r1)][0])
                    g1 = (self.req_leg[(ci, r1)][1]
                          + self.resp_leg[(ci, r1)][1])
                    d2 = (self.req_leg[(ci, r2)][0] + self.recirc_ns
                          + self.pipe_ns + self.resp_leg[(ci, r2)][0])
                    g2 = (self.req_leg[(ci, r2)][1]
                          + self.resp_leg[(ci, r2)][1])
                    key = ("pair", d1, d2 - d1, self.p_wait_cloned, self.wait_mean)
                    classes.append((share * f * pw, d1, min(g1, g2), key))
        return classes

    def _survival(
        self,
        key: Tuple,
        grid: np.ndarray,
        base: np.ndarray,
        base_w: np.ndarray,
        branches: Dict[Tuple[float, float], np.ndarray],
    ) -> np.ndarray:
        """Base-weighted survival on *grid* of one :meth:`_classes` key.

        A cloned pair's first branch depends only on ``(d1, p_wait)``;
        it is computed once into *branches* and shared by every pair
        with that shift.
        """
        jp, jf = self.jitter_p, self.jitter_factor
        if key[0] == "uncloned":
            _, d, p_wait, wait_mean = key
            return (base_w[None, :] @ _exec_survival(
                grid - d, base, jp, jf, p_wait, wait_mean
            ))[0]
        _, d1, delta, p_wait, wait_mean = key
        x = grid - d1
        a = branches.get((d1, p_wait))
        if a is None:
            a = branches[(d1, p_wait)] = _exec_survival(
                x, base, jp, jf, p_wait, wait_mean
            )
        # both = a * (p_stale + (1 - p_stale) * b), built in place on b.
        both = _exec_survival(x - delta, base, jp, jf, p_wait, wait_mean)
        both *= 1.0 - self.p_stale
        both += self.p_stale
        both *= a
        return (base_w[None, :] @ both)[0]

    # -- diagnostic extras ----------------------------------------------
    def _extras(self) -> Dict[str, float]:
        f, p_stale = self.clone_fraction, self.p_stale
        executed = f * (1.0 - p_stale)
        sends_total = self.rate / 1e9 * self.end_ns
        extra: Dict[str, float] = {
            "redundant_responses": 0.0,
            "clones_dropped": round(sends_total * f * p_stale),
            "empty_queue_fraction": self.q_empty,
            "state_samples_zero": round(sends_total * (1.0 + executed)
                                        * self.q_empty),
            "state_samples_total": round(sends_total * (1.0 + executed)),
            "nc_cloned": round(sends_total * f),
            "nc_filtered": round(sends_total * executed),
            "nc_fingerprint_overwrite": 0.0,
        }
        extra.update(self.trunk_extras())
        extra["fluid"] = 1.0
        return extra


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
@dataclass
class FluidPlan:
    """Eligibility + predicted saturation of one sweep cell.

    ``eligible`` is False (with ``reason``) for configurations the
    model does not cover; ``hot_trunk_utilisation`` is the predicted
    busiest-direction offered utilisation — the number harnesses
    compare against their fluid threshold.
    """

    eligible: bool
    reason: str
    hot_trunk_utilisation: float
    _model: Optional[_CellModel] = None

    def point(self) -> LoadPoint:
        """The cell's analytic :class:`LoadPoint` (raises if ineligible)."""
        if not self.eligible or self._model is None:
            raise ExperimentError(f"cell is not fluid-eligible: {self.reason}")
        return self._model.load_point()


def plan(config: Any) -> FluidPlan:
    """Eligibility check + cheap flow model for one cell config.

    Builds the cluster assembly (never started) to derive exact
    addresses, racks and trunk capacities, then predicts the hot-trunk
    utilisation.  Ineligible configs return an explanatory plan rather
    than raising, so sweep harnesses can fall back to packet mode.
    """
    reason = _ineligible_reason(config)
    if reason is not None:
        return FluidPlan(False, reason, 0.0)
    model = _CellModel(config)
    return FluidPlan(True, "", model.hot_trunk_utilisation(), model)


def evaluate(config: Any) -> LoadPoint:
    """Analytic :class:`LoadPoint` for *config* (raises if unsupported)."""
    return plan(config).point()
