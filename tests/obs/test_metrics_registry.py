"""Registry + histogram semantics: bucket edges, merges, snapshots.

The cross-process contract is that ``to_dict`` snapshots merged in any
grouping/order produce the same registry (counters and histogram
buckets are elementwise sums — associative and commutative; gauges are
last-write-wins).  The edge cases here — empty merges, merge
associativity, values exactly on bucket boundaries — are the ones a
naive implementation gets silently wrong.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_bucket_bounds,
)


# ----------------------------------------------------------------------
# Bucket boundaries.
# ----------------------------------------------------------------------


def test_log_bucket_bounds_shape():
    bounds = log_bucket_bounds(lo=1e-4, buckets_per_decade=5, decades=8)
    assert len(bounds) == 41
    assert bounds[0] == pytest.approx(1e-4)
    assert bounds[-1] == pytest.approx(1e4)
    assert bounds == sorted(bounds)


def test_boundary_value_lands_in_upper_bucket():
    # counts[i] covers [bounds[i-1], bounds[i]): a sample exactly on a
    # bound belongs to the bucket whose *lower* edge it is.
    hist = Histogram("h", bounds=[1.0, 10.0, 100.0])
    hist.observe(1.0)
    assert hist.counts == [0, 1, 0, 0]
    hist.observe(10.0)
    assert hist.counts == [0, 1, 1, 0]
    hist.observe(0.999)  # underflow
    assert hist.counts[0] == 1
    hist.observe(100.0)  # on the last bound → overflow bucket
    assert hist.counts[-1] == 1
    hist.observe(1e9)
    assert hist.counts[-1] == 2


def test_exact_stats_ride_along():
    hist = Histogram("h", bounds=[1.0, 10.0])
    for v in (0.5, 2.0, 50.0):
        hist.observe(v)
    assert hist.count == 3
    assert hist.sum == pytest.approx(52.5)
    assert hist.min == 0.5 and hist.max == 50.0
    assert hist.mean == pytest.approx(17.5)


def test_quantile_reports_bucket_upper_bound_and_exact_extremes():
    hist = Histogram("h", bounds=[1.0, 10.0, 100.0])
    for v in (2.0, 3.0, 4.0, 20.0):
        hist.observe(v)
    assert hist.quantile(50) == 10.0  # the [1, 10) bucket's upper bound
    assert hist.quantile(100) == 20.0  # rank n is the exact max
    hist.observe(5000.0)  # overflow reports the exact max
    assert hist.quantile(100) == 5000.0
    assert Histogram("empty").quantile(99) == 0.0


# ----------------------------------------------------------------------
# Merges.
# ----------------------------------------------------------------------


def _sample_histogram(values, bounds=(1.0, 10.0, 100.0)):
    hist = Histogram("h", bounds=list(bounds))
    for v in values:
        hist.observe(v)
    return hist


def test_merge_empty_into_empty():
    a, b = Histogram("h"), Histogram("h")
    a.merge(b)
    assert a.count == 0 and a.min is None and a.max is None
    assert a.quantile(99) == 0.0


def test_merge_empty_is_identity():
    a = _sample_histogram([0.5, 2.0, 20.0])
    before = a.to_dict()
    a.merge(_sample_histogram([]))
    assert a.to_dict() == before


def test_merge_equals_observing_everything_in_one():
    left, right = [0.5, 2.0, 2.0, 99.0], [1.0, 10.0, 10_000.0]
    merged = _sample_histogram(left)
    merged.merge(_sample_histogram(right))
    assert merged.to_dict() == _sample_histogram(left + right).to_dict()


def test_merge_associative_and_commutative():
    # Dyadic values: float sums stay exact in any addition order, so
    # the whole to_dict (counts AND sum) must match bit-for-bit.
    parts = ([0.125, 4.0], [16.0, 32.0, 1048576.0], [], [2.0])
    hists = [_sample_histogram(p) for p in parts]

    def fold(order):
        acc = Histogram("h", bounds=[1.0, 10.0, 100.0])
        for i in order:
            acc.merge(hists[i])
        return acc.to_dict()

    reference = fold((0, 1, 2, 3))
    assert fold((3, 2, 1, 0)) == reference
    # (a+b) + (c+d) == ((a+b)+c) + d
    ab = _sample_histogram(parts[0])
    ab.merge(hists[1])
    cd = _sample_histogram(parts[2])
    cd.merge(hists[3])
    ab.merge(cd)
    assert ab.to_dict() == reference


def test_merge_rejects_differing_bounds():
    with pytest.raises(ValueError):
        _sample_histogram([1.0]).merge(_sample_histogram([1.0], bounds=(1.0, 2.0)))


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------


def test_create_on_first_use_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.names() == ["a", "g", "h"]
    assert registry.get("missing") is None


def test_type_clash_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    with pytest.raises(TypeError):
        registry.histogram("x")
    registry.histogram("h")
    with pytest.raises(TypeError):
        registry.counter("h")


def test_snapshot_round_trip_is_json_safe():
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(3)
    registry.gauge("serve.queue.depth").set(7)
    registry.histogram("serve.request.wall.seconds").observe(0.004)
    snapshot = json.loads(json.dumps(registry.to_dict()))
    clone = MetricsRegistry.from_dict(snapshot)
    assert clone.to_dict() == registry.to_dict()


def test_cross_process_merge_semantics():
    # Two "processes" record independently; the parent folds snapshots.
    a, b = MetricsRegistry(), MetricsRegistry()
    for registry, walls in ((a, [0.001, 0.002]), (b, [0.004])):
        for wall in walls:
            registry.counter("serve.requests").inc()
            registry.histogram("serve.request.wall.seconds").observe(wall)
    a.gauge("workers").set(1)
    b.gauge("workers").set(2)
    parent = MetricsRegistry()
    parent.merge_dict(a.to_dict())
    parent.merge_dict(b.to_dict())
    assert parent.counter("serve.requests").value == 3
    hist = parent.histogram("serve.request.wall.seconds")
    assert hist.count == 3 and hist.max == 0.004
    assert parent.gauge("workers").value == 2  # last writer wins


def test_merge_dict_order_independent_for_counters_and_histograms():
    snapshots = []
    # Dyadic walls: every fold order sums exactly.
    for walls in ([0.25], [0.5, 0.75], [2.0]):
        registry = MetricsRegistry()
        for wall in walls:
            registry.counter("n").inc()
            registry.histogram("wall.seconds").observe(wall)
        snapshots.append(registry.to_dict())

    def fold(order):
        acc = MetricsRegistry()
        for i in order:
            acc.merge_dict(snapshots[i])
        return {k: v for k, v in acc.to_dict().items() if v["type"] != "gauge"}

    assert fold((0, 1, 2)) == fold((2, 0, 1)) == fold((1, 2, 0))


def test_merge_empty_registry_is_identity():
    registry = MetricsRegistry()
    registry.counter("n").inc(5)
    before = registry.to_dict()
    registry.merge(MetricsRegistry())
    assert registry.to_dict() == before
    empty = MetricsRegistry()
    empty.merge_dict({})
    assert empty.to_dict() == {}


def test_merge_dict_unknown_type_raises():
    with pytest.raises(ValueError):
        MetricsRegistry().merge_dict({"x": {"type": "summary", "value": 1}})


def test_render_mentions_every_instrument():
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(2)
    registry.histogram("wall.seconds").observe(0.01)
    text = registry.render()
    assert "serve.requests: 2" in text
    assert "wall.seconds: count=1" in text and "p99~" in text


def test_counter_and_gauge_primitives():
    c = Counter("c")
    c.inc(); c.inc(2.5)
    assert c.value == 3.5
    assert c.to_dict() == {"type": "counter", "value": 3.5}
    g = Gauge("g")
    g.set(9.0)
    assert g.to_dict() == {"type": "gauge", "value": 9.0}
