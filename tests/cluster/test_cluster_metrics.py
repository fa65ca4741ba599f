"""ClusterMetrics accounting and ServiceMetrics aggregation."""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    ClusterMetrics,
    ScaleEvent,
    SloPolicy,
    aggregate_service_metrics,
)
from repro.serve.metrics import ServiceMetrics


def _metrics(slo=None) -> ClusterMetrics:
    return ClusterMetrics(slo=slo or SloPolicy(slo_latency_s=0.1))


def test_counts_and_rates():
    metrics = _metrics()
    metrics.arrival(0.0)
    metrics.complete(0.0, latency_s=0.05, resident_hit=False)
    metrics.arrival(0.5)
    metrics.complete(0.5, latency_s=0.20, resident_hit=True)  # SLO miss
    metrics.arrival(1.0)
    metrics.reject(1.0, "queue_full")
    assert metrics.arrivals == 3
    assert metrics.completed == 2
    assert metrics.rejected == 1
    assert metrics.rejections_by_reason == {"queue_full": 1}
    assert metrics.slo_met == 1
    assert metrics.resident_hits == 1 and metrics.resident_misses == 1
    assert metrics.rejection_rate == pytest.approx(1 / 3)
    assert metrics.resident_hit_rate == pytest.approx(0.5)
    # Span: first arrival 0.0 → last event (the rejected arrival, 1.0;
    # completions stop at 0.7).
    assert metrics.duration_s == pytest.approx(1.0)
    # Offered load is the gaps-based estimator: 3 arrivals = 2 gaps
    # over a 1.0 s arrival span.
    assert metrics.offered_rps == pytest.approx(2.0)
    assert metrics.goodput_rps == pytest.approx(1.0)


def test_meets_rejection_slo():
    metrics = _metrics(SloPolicy(max_rejection_rate=0.25))
    for index in range(4):
        metrics.arrival(float(index))
    metrics.reject(3.0, "queue_full")
    for _ in range(3):
        metrics.complete(0.0, 0.01, True)
    assert metrics.meets_rejection_slo()
    metrics.arrival(4.0)
    metrics.reject(4.0, "latency_budget")
    assert not metrics.meets_rejection_slo()
    assert metrics.rejections_by_reason == {"queue_full": 1, "latency_budget": 1}


def test_to_dict_and_render_are_json_clean():
    metrics = _metrics()
    metrics.arrival(0.0)
    metrics.complete(0.0, 0.01, True)
    metrics.scale_events.append(
        ScaleEvent(
            at_s=0.5,
            from_replicas=1,
            to_replicas=2,
            reason="p99 120ms > 100ms",
            p99_latency_s=0.12,
            utilization=0.9,
        )
    )
    payload = metrics.to_dict()
    text = json.dumps(payload)  # must be JSON-serialisable end to end
    assert "scale_events" in text
    assert payload["latency"]["count"] == 1
    assert payload["meets_rejection_slo"] is True
    rendered = metrics.render()
    assert "goodput" in rendered and "scale timeline" in rendered
    assert "p99" in rendered


def test_aggregate_service_metrics_pools_samples():
    """Fleet p99 must come from pooled samples, not averaged p99s."""
    a, b = ServiceMetrics(), ServiceMetrics()
    for value in (0.010, 0.011, 0.012):
        a.record(value, cycles=100, ok=True, deployment="d")
    b.record(0.500, cycles=900, ok=False, deployment="d")
    a.bundle_hits, a.bundle_misses = 3, 1
    b.bundle_misses = 1
    fleet = aggregate_service_metrics([a, b])
    assert fleet["replicas"] == 2
    assert fleet["requests"] == 4
    assert fleet["failures"] == 1
    assert fleet["bundle_hits"] == 3 and fleet["bundle_misses"] == 2
    # The slow replica's sample dominates the pooled tail.
    assert fleet["wall"]["p99"] == pytest.approx(0.500)
    assert fleet["wall"]["count"] == 4
    assert fleet["cycles"]["max"] == pytest.approx(900.0)
    json.dumps(fleet)


def test_aggregate_of_nothing():
    fleet = aggregate_service_metrics([])
    assert fleet["replicas"] == 0
    assert fleet["wall"]["count"] == 0


def test_rejections_by_reason_reads_the_per_reason_counters():
    metrics = _metrics()
    for reason in ("queue_full", "latency_budget", "queue_full"):
        metrics.reject(0.0, reason)
    assert metrics.registry.counter("cluster.rejected.queue_full").value == 2
    assert metrics.rejections_by_reason == {"latency_budget": 1, "queue_full": 2}
    assert metrics.to_dict()["rejections_by_reason"] == {
        "latency_budget": 1, "queue_full": 2}


def test_fleet_latency_summary_merges_run_histograms():
    from types import SimpleNamespace

    from repro.cluster import fleet_latency_summary

    runs, pooled = [], _metrics()
    for latencies in ((0.010, 0.020), (0.500,), ()):
        metrics = _metrics()
        for latency in latencies:
            metrics.complete(0.0, latency, True)
            pooled.complete(0.0, latency, True)
        runs.append(SimpleNamespace(metrics=metrics))
    summary = fleet_latency_summary(runs)
    assert summary == pooled.latency_summary()
    assert summary.count == 3
    assert summary.p50 == pytest.approx(0.020, rel=0.05)
    assert summary.p99 == summary.max == 0.500
