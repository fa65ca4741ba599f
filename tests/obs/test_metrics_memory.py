"""Metrics memory is constant in the number of recorded requests.

``ServiceMetrics`` and ``ClusterMetrics`` keep every latency in fixed
registry histograms, so a long-running service or a long fleet run
does not grow: recording 100k more requests allocates (net) under
64 KiB, measured with ``tracemalloc``.
"""

from __future__ import annotations

import tracemalloc

from repro.cluster import ClusterMetrics
from repro.serve.metrics import ServiceMetrics

WARM, TOTAL = 1_000, 101_000
LIMIT_BYTES = 64 * 1024


def _growth(record) -> int:
    """Net traced bytes allocated by recording requests WARM..TOTAL."""
    for index in range(WARM):
        record(index)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(WARM, TOTAL):
            record(index)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_service_metrics_memory_is_bounded():
    metrics = ServiceMetrics()

    def record(index: int) -> None:
        metrics.record(0.001 + (index % 97) * 1e-4, cycles=402264 + index % 13,
                       ok=index % 50 != 0, deployment="lenet5/nv_small")

    assert _growth(record) < LIMIT_BYTES
    assert metrics.requests == TOTAL
    assert metrics.per_deployment["lenet5/nv_small"].requests == TOTAL


def test_cluster_metrics_memory_is_bounded():
    metrics = ClusterMetrics()

    def record(index: int) -> None:
        metrics.arrival(index * 1e-3)
        metrics.complete(index * 1e-3, 0.002 + (index % 89) * 1e-4,
                         resident_hit=index % 3 != 0)

    assert _growth(record) < LIMIT_BYTES
    assert metrics.completed == TOTAL
    assert metrics.latency_summary().count == TOTAL
