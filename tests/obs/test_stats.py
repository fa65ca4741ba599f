"""The shared percentile implementation vs an independent reference.

`repro.obs.stats.percentile` is the single nearest-rank implementation
every layer reports through; these tests pin it against a from-scratch
reference (and, when hypothesis is installed, drive it with arbitrary
sample sets) so a "p99" means the same thing in serve metrics, cluster
metrics and trace summaries.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.stats import LatencySummary, percentile


def reference_percentile(samples, q):
    """Nearest-rank percentile, written the long way."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * q / 100)
    return ordered[max(rank, 1) - 1]


def test_empty_is_zero():
    assert percentile([], 50) == 0.0
    assert percentile([], 99) == 0.0


def test_single_sample_is_every_percentile():
    for q in (0, 1, 50, 99, 100):
        assert percentile([3.25], q) == 3.25


def test_out_of_range_raises():
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_known_values():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0) == 1  # rank floors at 1


def test_order_independent():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == percentile(sorted(samples), 50) == 3.0


def test_matches_reference_on_grid():
    samples = [0.5, 1.5, 2.5, 7.0, 7.0, 9.0, 100.0]
    for q in range(0, 101):
        assert percentile(samples, q) == reference_percentile(samples, q)


def test_summary_fields_agree_with_percentile():
    samples = [float(i) for i in range(1, 21)]
    summary = LatencySummary.of(samples)
    assert summary.count == 20
    assert summary.mean == pytest.approx(10.5)
    assert summary.p50 == percentile(samples, 50)
    assert summary.p99 == percentile(samples, 99)
    assert summary.max == 20.0
    assert summary.to_dict() == {
        "count": 20, "mean": summary.mean, "p50": summary.p50,
        "p99": summary.p99, "max": 20.0,
    }


def test_empty_summary():
    assert LatencySummary.of([]).to_dict() == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0,
    }


# ----------------------------------------------------------------------
# Property tests (skipped cleanly when hypothesis is absent).
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=200,
)
_qs = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(_samples, _qs)
def test_property_matches_reference(samples, q):
    assert percentile(samples, q) == reference_percentile(samples, q)


@given(_samples, _qs)
def test_property_result_is_a_sample(samples, q):
    assert percentile(samples, q) in samples


@given(_samples)
def test_property_monotone_in_q(samples):
    values = [percentile(samples, q) for q in range(0, 101, 5)]
    assert values == sorted(values)
    assert values[-1] == max(samples)


# ----------------------------------------------------------------------
# Histogram-derived quantiles vs the exact reference: the error bound
# every serve/cluster summary carries.
# ----------------------------------------------------------------------

from repro.obs.metrics import CYCLES_BOUNDS, SECONDS_BOUNDS, Histogram  # noqa: E402

_RATIO = 10 ** (1 / 48)


def _check_quantile_bound(samples, q, bounds):
    hist = Histogram("h", bounds=bounds)
    for value in samples:
        hist.observe(value)
    exact = percentile(samples, q)
    estimate = hist.quantile(q)
    rank = max(1, -(-len(samples) * q // 100))  # percentile()'s rank
    if rank in (1, len(samples)):
        assert estimate == exact
    else:
        assert exact <= estimate < exact * _RATIO


@given(st.lists(st.floats(min_value=1e-6, max_value=9.9e3), min_size=1,
                max_size=200), _qs)
def test_property_seconds_quantile_within_bound(samples, q):
    _check_quantile_bound(samples, q, SECONDS_BOUNDS)


@given(st.lists(st.integers(min_value=1, max_value=9_900_000_000).map(float),
                min_size=1, max_size=200), _qs)
def test_property_cycles_quantile_within_bound(samples, q):
    _check_quantile_bound(samples, q, CYCLES_BOUNDS)


@given(_samples)
def test_property_histogram_summary_extremes_are_exact(samples):
    hist = Histogram("h", bounds=CYCLES_BOUNDS)
    for value in samples:
        hist.observe(value)
    summary = LatencySummary.of_histogram(hist)
    assert summary.count == len(samples)
    assert summary.max == max(samples)
    assert hist.quantile(0) == min(samples)
    assert hist.quantile(100) == max(samples)
    assert summary.p50 <= summary.p99 <= summary.max


def test_summary_of_missing_or_empty_histogram_is_zero():
    assert LatencySummary.of_histogram(None) == LatencySummary.of([])
    assert LatencySummary.of_histogram(Histogram("h")) == LatencySummary.of([])
