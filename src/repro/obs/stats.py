"""Shared latency statistics: nearest-rank percentiles and summaries.

The one definition every layer reports through.  :func:`percentile` is
exact nearest-rank over a sample list: the autoscaler's bounded rolling
window and the trace summarizer use it directly.  ``ServiceMetrics`` and
``ClusterMetrics`` keep no sample lists; they summarise registry
histograms with :meth:`LatencySummary.of_histogram`, whose quantiles
use the same rank and are pinned to :func:`percentile` within the bucket
error bound (``tests/obs/test_stats.py``).  Keeping a single rank
definition is what makes a "p99" comparable across layers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} out of range")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100), >= 1
    return ordered[int(rank) - 1]


@dataclass
class LatencySummary:
    """p50/p99/mean/max over one series of samples."""

    count: int
    mean: float
    p50: float
    p99: float
    max: float

    @classmethod
    def of(cls, samples: list[float]) -> "LatencySummary":
        if not samples:
            return cls(count=0, mean=0.0, p50=0.0, p99=0.0, max=0.0)
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=percentile(samples, 50),
            p99=percentile(samples, 99),
            max=max(samples),
        )

    @classmethod
    def of_histogram(cls, hist) -> "LatencySummary":
        """The same summary from a :class:`repro.obs.metrics.Histogram`
        (``None`` or empty → zeros); p50/p99 carry the bucket error
        bound stated in :meth:`Histogram.quantile`."""
        if hist is None or not hist.count:
            return cls.of([])
        return cls(
            count=hist.count,
            mean=hist.mean,
            p50=hist.quantile(50),
            p99=hist.quantile(99),
            max=hist.max,
        )

    def to_dict(self) -> dict:
        return asdict(self)
