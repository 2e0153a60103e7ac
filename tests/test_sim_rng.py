"""Draw equality of the primitive-cost RNG paths.

The request path draws through :func:`repro.sim.rng.randbelow` and an
inlined ``-log(1 - random())`` instead of ``randrange``/``choice``/
``expovariate``.  These tests pin that every such draw returns the
same value and spends the same primitive draws as the ``random.Random``
method it replaces: first the kernels on their own (on the plain and
the sanitizer's counting stream), then every real call site against a
twin-seeded reference stream that uses the methods.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.random_lb import BaselineClient
from repro.core.client import NetCloneClient
from repro.core.placement import GroupTable
from repro.metrics.latency import LatencyRecorder
from repro.sim import Simulator
from repro.sim.rng import randbelow
from repro.sim.sanitize import CountingRandom
from repro.workloads import ExponentialDistribution, SyntheticWorkload
from repro.workloads.mmpp import MmppArrivals

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
#: Bounds in [1, 2**40], with every power of two (the redraw edge:
#: ``n.bit_length()`` bits cover [0, 2n)) drawn as often as the rest.
BOUNDS = st.one_of(
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=0, max_value=40).map(lambda k: 2**k),
)
RNG_CLASSES = pytest.mark.parametrize("rng_cls", [random.Random, CountingRandom])


def _draws(rng):
    return getattr(rng, "draws", None)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
@RNG_CLASSES
@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=BOUNDS)
def test_randbelow_equals_randrange_and_choice(rng_cls, seed, n):
    fast, by_randrange, by_choice = rng_cls(seed), rng_cls(seed), rng_cls(seed)
    values = range(n)
    got = [randbelow(fast.getrandbits, n) for _ in range(16)]
    assert got == [by_randrange.randrange(n) for _ in range(16)]
    assert got == [by_choice.choice(values) for _ in range(16)]
    assert fast.getstate() == by_randrange.getstate() == by_choice.getstate()
    assert _draws(fast) == _draws(by_randrange) == _draws(by_choice)


@RNG_CLASSES
@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    mean=st.floats(min_value=1e-9, max_value=1e12, allow_nan=False),
)
def test_inline_exponential_equals_expovariate(rng_cls, seed, mean):
    fast, by_rate, by_unit = rng_cls(seed), rng_cls(seed), rng_cls(seed)
    rate = 1.0 / mean
    for _ in range(16):
        unit = -math.log(1.0 - fast.random())
        assert unit / rate == by_rate.expovariate(rate)
        assert unit * mean == by_unit.expovariate(1.0) * mean
    assert fast.getstate() == by_rate.getstate() == by_unit.getstate()
    assert _draws(fast) == _draws(by_rate) == _draws(by_unit)


# ----------------------------------------------------------------------
# Call sites, against twin-seeded method-based references
# ----------------------------------------------------------------------
MEAN_SERVICE_US = 25.0
RATE_RPS = 3e5
CLIENT_SEED = 1234
WORKLOAD_SEED = 99


def _client(cls, rng_cls, **kwargs):
    return cls(
        Simulator(),
        "client",
        1,
        0,
        SyntheticWorkload(
            ExponentialDistribution(MEAN_SERVICE_US), rng_cls(WORKLOAD_SEED)
        ),
        RATE_RPS,
        LatencyRecorder(),
        rng_cls(CLIENT_SEED),
        **kwargs,
    )


def _predraw(client, chunks=3):
    """Every pre-drawn record of *chunks* refills, as plain tuples."""
    records = []
    for _ in range(chunks):
        client._refill_arrivals()
        records.extend(client._arrivals)
    return records


def _reference_chunks(ref_workload, ref_client, chunks, chunk, per_request):
    """(service_ns, *per_request(ref_client), gap) in the client's order:
    a chunk's service times first, then per request its packet draws
    and its gap."""
    out = []
    mean_gap_ns = 1e9 / RATE_RPS
    mean_ns = MEAN_SERVICE_US * 1000.0
    for _ in range(chunks):
        services = [int(ref_workload.expovariate(1.0 / mean_ns)) + 1 for _ in range(chunk)]
        for service_ns in services:
            drawn = per_request(ref_client)
            gap = int(ref_client.expovariate(1.0) * mean_gap_ns) + 1
            out.append((service_ns, *drawn, gap))
    return out


def _netclone_rows(records):
    return [
        (rec[1].service_ns, rec[2][0].nc.grp, rec[2][0].nc.idx, rec[3])
        for rec in records
    ]


@RNG_CLASSES
def test_netclone_predraw_uniform_table(rng_cls):
    pairs = tuple((a, b) for a in range(6) for b in range(6) if a != b)  # 30 groups
    table = GroupTable(pairs=pairs, split=len(pairs))
    client = _client(NetCloneClient, rng_cls, group_table=table, num_filter_tables=3)
    got = _netclone_rows(_predraw(client))
    ref_client, ref_workload = rng_cls(CLIENT_SEED), rng_cls(WORKLOAD_SEED)
    want = _reference_chunks(
        ref_workload, ref_client, 3, client.ARRIVAL_CHUNK,
        lambda r: (r.randrange(len(pairs)), r.randrange(3)),
    )
    assert got == want
    assert client.rng.getstate() == ref_client.getstate()
    assert _draws(client.rng) == _draws(ref_client)
    assert _draws(client.workload.rng) == _draws(ref_workload)


@RNG_CLASSES
def test_netclone_predraw_sectioned_table(rng_cls):
    pairs = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3))
    table = GroupTable(pairs=pairs, split=2, p_local=0.6)
    client = _client(NetCloneClient, rng_cls, group_table=table)
    got = _netclone_rows(_predraw(client))

    def sectioned(r):
        # GroupTable.sample's rule, spelled with the methods.
        grp = r.randrange(2) if r.random() < 0.6 else 2 + r.randrange(len(pairs) - 2)
        return grp, r.randrange(2)

    ref_client, ref_workload = rng_cls(CLIENT_SEED), rng_cls(WORKLOAD_SEED)
    want = _reference_chunks(ref_workload, ref_client, 3, client.ARRIVAL_CHUNK, sectioned)
    assert got == want
    assert {row[1] for row in got} >= {0, 1, 2}  # both sections drawn
    assert client.rng.getstate() == ref_client.getstate()
    assert _draws(client.rng) == _draws(ref_client)


@RNG_CLASSES
def test_netclone_predraw_after_num_groups_shrink(rng_cls):
    pairs = tuple((a, b) for a in range(4) for b in range(4) if a != b)  # 12 groups
    table = GroupTable(pairs=pairs, split=len(pairs))
    client = _client(NetCloneClient, rng_cls, group_table=table)
    first = _netclone_rows(_predraw(client, chunks=1))
    client.num_groups = 5  # count-only update: the cached table is stale
    second = _netclone_rows(_predraw(client, chunks=2))
    ref_client, ref_workload = rng_cls(CLIENT_SEED), rng_cls(WORKLOAD_SEED)
    chunk = client.ARRIVAL_CHUNK
    want = _reference_chunks(
        ref_workload, ref_client, 1, chunk, lambda r: (r.randrange(12), r.randrange(2))
    ) + _reference_chunks(
        ref_workload, ref_client, 2, chunk, lambda r: (r.randrange(5), r.randrange(2))
    )
    assert first + second == want
    assert max(row[1] for row in second) < 5
    assert client.rng.getstate() == ref_client.getstate()
    assert _draws(client.rng) == _draws(ref_client)


@RNG_CLASSES
def test_baseline_client_destinations(rng_cls):
    server_ips = [101, 102, 103, 104, 105]  # not a power of two: redraws happen
    client = _client(BaselineClient, rng_cls, server_ips=server_ips)
    got = [(rec[1].service_ns, rec[2][0].dst, rec[3]) for rec in _predraw(client)]
    ref_client, ref_workload = rng_cls(CLIENT_SEED), rng_cls(WORKLOAD_SEED)
    want = _reference_chunks(
        ref_workload, ref_client, 3, client.ARRIVAL_CHUNK,
        lambda r: (r.choice(server_ips),),
    )
    assert got == want
    assert {row[1] for row in got} == set(server_ips)
    assert client.rng.getstate() == ref_client.getstate()
    assert _draws(client.rng) == _draws(ref_client)


class _ReferenceMmpp:
    """:class:`MmppArrivals`' algorithm, drawing through ``expovariate``."""

    def __init__(self, rng, rate_rps, burst, high_fraction, period_s):
        self.rng = rng
        self.rate_rps = rate_rps
        self.mult_low = 1.0 / (high_fraction * burst + (1.0 - high_fraction))
        self.mult_high = burst * self.mult_low
        self.sojourn_high_s = period_s * high_fraction
        self.sojourn_low_s = period_s * (1.0 - high_fraction)
        self.high = False
        self.left_s = rng.expovariate(1.0) * self.sojourn_low_s

    def next_gap(self):
        gap_s = 0.0
        while True:
            rate = self.rate_rps * (self.mult_high if self.high else self.mult_low)
            candidate_s = self.rng.expovariate(1.0) / rate
            if candidate_s <= self.left_s:
                self.left_s -= candidate_s
                gap_s += candidate_s
                return int(gap_s * 1e9) + 1
            gap_s += self.left_s
            self.high = not self.high
            mean = self.sojourn_high_s if self.high else self.sojourn_low_s
            self.left_s = self.rng.expovariate(1.0) * mean


@RNG_CLASSES
def test_mmpp_gaps(rng_cls):
    params = dict(rate_rps=RATE_RPS, burst=8.0, high_fraction=0.2, period_s=1e-4)
    fast = MmppArrivals(rng_cls(CLIENT_SEED), **params)
    ref = _ReferenceMmpp(rng_cls(CLIENT_SEED), **params)
    assert [fast.next_gap() for _ in range(2000)] == [ref.next_gap() for _ in range(2000)]
    assert fast.rng.getstate() == ref.rng.getstate()
    assert _draws(fast.rng) == _draws(ref.rng)


@RNG_CLASSES
def test_mmpp_gaps_through_the_client_predraw(rng_cls):
    # As in a cluster: destinations on the client stream, gaps on the
    # arrival process's own stream.
    params = dict(rate_rps=RATE_RPS, burst=8.0, high_fraction=0.2, period_s=1e-4)
    client = _client(
        BaselineClient, rng_cls, server_ips=[7, 8, 9],
        arrival_process=MmppArrivals(rng_cls(WORKLOAD_SEED + 1), **params),
    )
    got = [(rec[2][0].dst, rec[3]) for rec in _predraw(client)]
    ref_client = rng_cls(CLIENT_SEED)
    ref = _ReferenceMmpp(rng_cls(WORKLOAD_SEED + 1), **params)
    want = [
        (ref_client.choice([7, 8, 9]), ref.next_gap())
        for _ in range(3 * client.ARRIVAL_CHUNK)
    ]
    assert got == want
    assert client.rng.getstate() == ref_client.getstate()
    assert client.arrival_process.rng.getstate() == ref.rng.getstate()
    assert _draws(client.rng) == _draws(ref_client)
    assert _draws(client.arrival_process.rng) == _draws(ref.rng)
