"""Service metrics: percentile properties, JSON export, rendering.

The `percentile()` helper implements the nearest-rank definition
(`rank = ceil(n·q/100)`, clamped to at least 1).  The property tests
check it against an independent reference implementation over random
samples, plus the edges the definition pins down: q=0 → minimum,
q=100 → maximum, single-sample series, duplicated values.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.serve import DeploymentSpec, InferenceService, percentile
from repro.serve.metrics import LatencySummary, ServiceMetrics


def reference_percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, written independently of the helper."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Property tests.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("size", [1, 2, 3, 7, 50, 101, 500])
def test_matches_reference_on_random_samples(seed, size):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1e3, 1e3, size=size).tolist()
    for q in [0, 1, 25, 50, 75, 90, 95, 99, 99.9, 100]:
        assert percentile(samples, q) == reference_percentile(samples, q)


@pytest.mark.parametrize("seed", range(4))
def test_result_is_always_a_sample(seed):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=37).tolist()
    for q in rng.uniform(0, 100, size=25):
        assert percentile(samples, float(q)) in samples


@pytest.mark.parametrize("seed", range(4))
def test_monotone_in_q(seed):
    rng = np.random.default_rng(seed)
    samples = rng.exponential(size=64).tolist()
    values = [percentile(samples, q) for q in np.linspace(0, 100, 41)]
    assert values == sorted(values)


def test_edges():
    assert percentile([], 50) == 0.0
    assert percentile([3.5], 0) == 3.5
    assert percentile([3.5], 100) == 3.5
    samples = [5.0, 1.0, 3.0]
    assert percentile(samples, 0) == 1.0  # q=0 clamps to the minimum
    assert percentile(samples, 100) == 5.0
    # Duplicates are fine: nearest rank just indexes the sorted list.
    assert percentile([2.0, 2.0, 2.0], 99) == 2.0
    # The helper must not mutate its input.
    unsorted = [9.0, 1.0, 4.0]
    percentile(unsorted, 50)
    assert unsorted == [9.0, 1.0, 4.0]


def test_out_of_range_q_raises():
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 100.1)


def test_integer_rank_boundaries():
    """Exactly on-rank quantiles of 1..100: p50 = 50, p99 = 99."""
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 1) == 1.0


# ----------------------------------------------------------------------
# JSON export (the satellite the cluster aggregator builds on).
# ----------------------------------------------------------------------


def test_latency_summary_to_dict():
    summary = LatencySummary.of([0.2, 0.1, 0.4])
    payload = summary.to_dict()
    assert payload == {
        "count": 3,
        "mean": pytest.approx(0.7 / 3),
        "p50": 0.2,
        "p99": 0.4,
        "max": 0.4,
    }
    assert LatencySummary.of([]).to_dict()["count"] == 0


def test_service_metrics_to_dict_round_trip():
    import json

    metrics = ServiceMetrics()
    metrics.record(0.010, cycles=1000, ok=True, deployment="lenet5/nv_small")
    metrics.record(0.030, cycles=3000, ok=False, deployment="lenet5/nv_small")
    metrics.bundle_hits = 1
    metrics.bundle_misses = 1
    payload = metrics.to_dict()
    json.dumps(payload)  # JSON-clean end to end
    assert payload["requests"] == 2
    assert payload["failures"] == 1
    assert payload["cache_hit_rate"] == pytest.approx(0.5)
    assert payload["wall"]["p99"] == pytest.approx(0.030)
    slice_ = payload["per_deployment"]["lenet5/nv_small"]
    assert slice_["requests"] == 2
    assert slice_["wall"]["max"] == pytest.approx(0.030)
    assert slice_["cycles"]["p50"] == pytest.approx(1000.0)


def test_render_per_deployment_includes_wall_p99():
    metrics = ServiceMetrics()
    for value in (0.01, 0.02, 0.90):
        metrics.record(value, cycles=500, ok=True, deployment="lenet5/nv_small")
    lines = metrics.render().splitlines()
    slice_lines = [line for line in lines if line.startswith("  lenet5")]
    assert len(slice_lines) == 1
    # Fleet-style formatting: wall p50/p99/max and cycles p50/p99.
    assert "p99 900.0 ms" in slice_lines[0]
    assert "max 900.0 ms" in slice_lines[0]
    assert "cycles p50 500" in slice_lines[0]


def test_metrics_to_dict_splits_miss_resolution():
    metrics = ServiceMetrics()
    metrics.bundle_hits = 3
    metrics.bundle_misses = 2
    metrics.bundle_store_hits = 1
    metrics.bundle_compiles = 1
    payload = metrics.to_dict()
    assert payload["bundle_store_hits"] == 1
    assert payload["bundle_compiles"] == 1
    assert "1 from store, 1 compiled" in metrics.render()


def test_service_classifies_store_hits_vs_compiles(tmp_path):
    from repro.serve import BundleCache
    from repro.store import BundleStore

    store = BundleStore(tmp_path / "store")
    spec = DeploymentSpec("lenet5", fidelity="timing")

    compiler = InferenceService(cache=BundleCache(store=store))
    compiler.request(spec)
    compiler.run_pending()
    assert compiler.metrics.bundle_compiles == 1
    assert compiler.metrics.bundle_store_hits == 0

    warmed = InferenceService(cache=BundleCache(store=store))
    warmed.request(spec)
    warmed.run_pending()
    assert warmed.metrics.bundle_store_hits == 1
    assert warmed.metrics.bundle_compiles == 0
    # The snapshot exposes both the cache's split and the store's own
    # counters when a store is attached.
    snapshot = warmed.snapshot()
    assert snapshot["cache"]["store_hits"] == 1
    assert snapshot["store"]["hits"] == 1
    assert "store" not in InferenceService().snapshot()


def test_service_outstanding_and_snapshot():
    service = InferenceService()
    assert service.outstanding == 0
    service.request(DeploymentSpec("lenet5", fidelity="timing"))
    service.request(DeploymentSpec("lenet5", fidelity="timing"))
    assert service.outstanding == 2
    snapshot = service.snapshot()
    assert snapshot["outstanding"] == 2
    assert snapshot["metrics"]["requests"] == 0
    service.run_pending()
    snapshot = service.snapshot()
    assert service.outstanding == 0
    assert snapshot["metrics"]["requests"] == 2
    assert snapshot["cache"]["misses"] == 1
    assert snapshot["workers"]["created"] == 1


# ----------------------------------------------------------------------
# Histogram-backed summaries: extremes stay exact, cycles fit their
# bounds, the per-deployment split survives a snapshot round trip
# (bounded memory is in tests/obs/test_metrics_memory.py).
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "service_metrics.json"


def _two_deployments() -> ServiceMetrics:
    """Global n=2: every p50 is rank 1 (min), every p99 rank n (max)."""
    metrics = ServiceMetrics()
    metrics.record(0.0041, cycles=402264, ok=True,
                   deployment="lenet5/nv_small/int8@100MHz")
    metrics.record(0.0123, cycles=1620431, ok=False,
                   deployment="resnet18/nv_small/int8@100MHz+fast")
    metrics.batches = 2
    metrics.record_resolution("memory")
    metrics.record_resolution("compile")
    metrics.elapsed_seconds = 0.5
    return metrics


def _single_valued() -> ServiceMetrics:
    """50 identical requests: every rank lands on the one value."""
    metrics = ServiceMetrics()
    for _ in range(50):
        metrics.record(0.0047, cycles=402264, ok=True,
                       deployment="lenet5/nv_small/int8@100MHz")
    metrics.batches = 7
    metrics.record_resolution("memory")
    metrics.record_resolution("store")
    metrics.workers_created, metrics.workers_reused = 1, 6
    metrics.elapsed_seconds = 0.25
    metrics.record_process(
        0, {"runs": 50, "batches": 7, "busy_seconds": 0.235, "restarts": 0})
    return metrics


SCENARIOS = {
    "two_deployments": _two_deployments,
    "single_valued": _single_valued,
    "empty": ServiceMetrics,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_exact_cases_match_the_exact_sample_implementation(scenario):
    """Where a histogram summary can be exact (rank 1, rank n, one
    distinct value) the snapshot and the rendered text are byte for
    byte what the exact-sample-list implementation produced; the golden
    file was recorded from that implementation."""
    golden = json.loads(GOLDEN.read_text())[scenario]
    metrics = SCENARIOS[scenario]()
    assert json.dumps(metrics.to_dict(), sort_keys=True) == golden["to_dict"]
    assert metrics.render() == golden["render"]


def test_cycle_histogram_holds_a_lenet5_request():
    """A lenet5 request is 402,264 cycles; the cycles histogram must
    resolve it instead of dropping it into an overflow bucket."""
    metrics = ServiceMetrics()
    for cycles in (402264, 402264, 402264, 1_000_000):
        metrics.record(0.004, cycles=cycles, ok=True)
    hist = metrics.registry.get("serve.request.cycles")
    assert hist.quantile(50) == pytest.approx(402264, rel=0.05)
    assert metrics.cycle_summary().p50 == pytest.approx(402264, rel=0.05)
    assert "serve.request.cycles: count=4 mean=551698 p50~4" in metrics.registry.render()


def test_per_deployment_survives_a_snapshot_round_trip():
    metrics = _two_deployments()
    clone = ServiceMetrics()
    clone.registry.merge_dict(json.loads(json.dumps(metrics.registry.to_dict())))
    assert sorted(clone.per_deployment) == sorted(metrics.per_deployment)
    assert clone.to_dict() == metrics.to_dict()

