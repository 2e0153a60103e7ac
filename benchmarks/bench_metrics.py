"""Benchmark: latency-metrics collection, exact arrays vs sketches.

Models the collection half of a sweep: by the time a point finishes,
each of ``workers`` sweep workers already holds its latency backend —
an ``array("q")``-equivalent sample vector in exact mode, a
:class:`~repro.metrics.sketch.LatencySketch` in sketch mode (both are
filled incrementally *during* the simulation, so ingest is not
collection).  Collection is what happens next, and is what these
benches time: serialize each worker's result payload (what the pool
pipe ships), deserialize in the parent, merge the
shards, and read p50/p99/p99.9.  Exact mode ships, copies and
partition-selects O(requests) bytes; sketch mode ships O(buckets) and
merges bucket-wise — the gap is the point of the streaming metrics
plane.

``REPRO_BENCH_SCALE`` scales the sample count (10M at scale 1.0,
2.5M at the default 0.25).  A third bench times sketch ingest
(``add_many``) so the recording side has a pinned rate too.  The
sketch pipeline must agree with exact p50/p99/p99.9 within the
sketch's 1% relative-error contract — checked here, not just in the
unit tests, so the speed claim can never drift from the accuracy
claim.
"""

import numpy as np
from conftest import run_once

from repro.metrics.latency import percentile
from repro.metrics.sketch import LatencySketch

SAMPLES = 10_000_000
WORKERS = 4


def _make_shards(n: int, workers: int, seed: int = 1):
    """Per-worker int64 latency shards (exponential ns, mean 25 µs)."""
    rng = np.random.default_rng(seed)
    samples = (rng.exponential(25_000.0, n) + 1.0).astype(np.int64)
    return np.array_split(samples, workers)


def _make_sketches(shards):
    """The per-worker sketch backends as they exist at point end."""
    sketches = []
    for shard in shards:
        sketch = LatencySketch()
        sketch.add_many(shard)
        sketches.append(sketch)
    return sketches


def _collect_exact(shards) -> dict:
    """Exact collection: raw sample arrays shipped, merged, selected."""
    payloads = [shard.tobytes() for shard in shards]  # worker → channel
    merged = np.concatenate(
        [np.frombuffer(payload, dtype=np.int64) for payload in payloads]
    )
    return {
        "payload_bytes": sum(len(payload) for payload in payloads),
        "count": int(merged.size),
        "p50": percentile(merged, 50),
        "p99": percentile(merged, 99),
        "p999": percentile(merged, 99.9),
    }


def _collect_sketch(sketches) -> dict:
    """Sketch collection: mergeable sketches shipped and folded."""
    payloads = [sketch.to_bytes() for sketch in sketches]  # worker → channel
    merged = LatencySketch.from_bytes(payloads[0])  # parent side
    for payload in payloads[1:]:
        merged.merge(LatencySketch.from_bytes(payload))
    return {
        "payload_bytes": sum(len(payload) for payload in payloads),
        "count": merged.count,
        "p50": merged.quantile(50),
        "p99": merged.quantile(99),
        "p999": merged.quantile(99.9),
    }


def bench_metrics_collect_exact(benchmark, bench_scale):
    shards = _make_shards(max(WORKERS, int(SAMPLES * bench_scale)), WORKERS)
    result = run_once(benchmark, _collect_exact, shards=shards)
    assert result["count"] == sum(len(shard) for shard in shards)


def bench_metrics_collect_sketch(benchmark, bench_scale):
    shards = _make_shards(max(WORKERS, int(SAMPLES * bench_scale)), WORKERS)
    exact = _collect_exact(shards)
    sketches = _make_sketches(shards)
    result = run_once(benchmark, _collect_sketch, sketches=sketches)
    assert result["count"] == exact["count"]
    # Payload and accuracy contracts, enforced alongside the timing.
    assert result["payload_bytes"] * 10 <= exact["payload_bytes"]
    for q in ("p50", "p99", "p999"):
        assert abs(result[q] - exact[q]) <= 0.0101 * exact[q]


def bench_metrics_sketch_ingest(benchmark, bench_scale):
    shards = _make_shards(max(WORKERS, int(SAMPLES * bench_scale)), WORKERS)
    sketches = run_once(benchmark, _make_sketches, shards=shards)
    assert sum(sketch.count for sketch in sketches) == sum(
        len(shard) for shard in shards
    )
