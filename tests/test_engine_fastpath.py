"""The engine fast path: ordering and seed bit-identity.

These tests pin the contract the hot paths rely on:

* entries pushed out of time order still pop in ``(time, seq)`` order;
* none of the engine's fast paths change simulation results — tiny
  fig08-star and fig18-one-rack runs stay bit-identical to goldens
  captured at the pre-overhaul revision;
* the packet pool's uid stream and the link serialisation memo are
  deterministic and exact.
"""

from helpers import assert_points_identical, tiny_config

from repro.experiments.common import Cluster, run_point
from repro.net.link import Link
from repro.sim.core import Simulator
from repro.sim.units import ms


# ----------------------------------------------------------------------
# Heap order
# ----------------------------------------------------------------------
def test_fast_lane_out_of_order_times_still_sort():
    sim = Simulator()
    order = []
    # Out-of-order pushes must still pop in (time, seq) order.
    for t in (30, 10, 20, 10, 30, 5):
        sim.call_at(t, order.append, t)
    sim.run()
    assert order == [5, 10, 10, 20, 30, 30]
    assert sim.now == 30


# ----------------------------------------------------------------------
# Seed bit-identity (goldens captured at the pre-overhaul revision)
# ----------------------------------------------------------------------
#: (offered, throughput, p50, p99, p999, mean, samples) per config.
GOLDENS = {
    "fig08_star": (
        196333.33333333334, 195333.33333333334, 31.942, 131.72, 654.085,
        40.074093378607806, 589,
    ),
    "fig18_1rack": (
        203666.66666666666, 206666.66666666666, 25.94, 112.831, 178.187,
        33.548687397708676, 611,
    ),
}

GOLDEN_EXTRA = {
    "fig08_star": {"nc_cloned": 528.0, "nc_filtered": 428.0, "clones_dropped": 100.0},
    "fig18_1rack": {"nc_cloned": 637.0, "nc_filtered": 533.0, "clones_dropped": 104.0},
}


def _golden_config(label):
    if label == "fig08_star":
        return tiny_config(seed=11)
    return tiny_config(
        topology="spine_leaf", topology_params={"racks": 1, "spines": 2}
    )


def test_fig08_star_bit_identical_to_seed():
    point = run_point(_golden_config("fig08_star"))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDENS["fig08_star"]
    for key, value in GOLDEN_EXTRA["fig08_star"].items():
        assert point.extra[key] == value, key


def test_fig18_one_rack_bit_identical_to_seed():
    point = run_point(_golden_config("fig18_1rack"))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDENS["fig18_1rack"]
    for key, value in GOLDEN_EXTRA["fig18_1rack"].items():
        assert point.extra[key] == value, key


# ----------------------------------------------------------------------
# Packet-pool uid streams are a per-cluster deterministic sequence
# ----------------------------------------------------------------------
def test_identical_runs_produce_identical_uid_streams():
    def run_one():
        cluster = Cluster(tiny_config())
        cluster.start()
        cluster.run()
        pool = cluster.packet_pool
        return cluster.load_point(), (pool._next_uid, pool.allocated, pool.released)

    point_a, uids_a = run_one()
    point_b, uids_b = run_one()
    # Same seed, fresh pool: the uid counter lands on the same value
    # and the free list recycled the same number of lives.
    assert uids_a == uids_b
    assert uids_a[1] < uids_a[0] - 1  # recycling actually happened
    assert_points_identical(point_a, point_b)


# ----------------------------------------------------------------------
# Link serialisation memo: cached == computed, invalidated on retune
# ----------------------------------------------------------------------
class _Sink:
    """Bare link endpoint (generic deliver path)."""

    name = "sink"

    def deliver(self, packet, from_a):
        pass


def test_serialization_memo_matches_direct_computation():
    sim = Simulator()
    # The fig18 grid's line rates (trunks) plus the edge default, over
    # the packet sizes the workloads actually emit.
    for gbps in (0.5, 0.7, 1.0, 2.0, 100.0):
        link = Link(sim, _Sink(), _Sink(), bandwidth_bps=gbps * 1e9)
        for size in (64, 128, 256, 1024, 1500):
            direct = int(round(size * 8 / (gbps * 1e9) * 1e9))
            assert link.serialization_ns(size) == direct
            # Second call is the cached path; must be byte-identical.
            assert link.serialization_ns(size) == direct
            assert link._ser_ns[size] == direct


def test_serialization_memo_invalidated_by_bandwidth_change():
    sim = Simulator()
    link = Link(sim, _Sink(), _Sink(), bandwidth_bps=1e9)
    before = link.serialization_ns(1500)
    link.bandwidth_bps = 2e9
    assert not link._ser_ns  # memo dropped with the old line rate
    after = link.serialization_ns(1500)
    assert after == int(round(1500 * 8 / 2e9 * 1e9))
    assert after != before
