"""End-to-end tracing through the serving layers.

Single-process: every request becomes one single-rooted tree with
execute + per-unit attribution; bundle resolution is classified
compile/store/memory.  Cross-process: the 2-process plane's worker
spans ship back over the pickle boundary and stitch under the plane's
roots with no orphans — the tentpole acceptance criterion.
"""

from __future__ import annotations

import pytest

from repro.obs import Tracer, build_trees, to_chrome_trace
from repro.serve import (
    BundleCache,
    DeploymentSpec,
    InferenceService,
    ServingPlane,
)
from repro.store import BundleStore

LENET = DeploymentSpec("lenet5")


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """Store-backed cache shared by the module: compile once, and give
    the plane's workers a store to rehydrate from."""
    cache = BundleCache(store=BundleStore(tmp_path_factory.mktemp("trace-store")))
    cache.bundle_for("lenet5", "nv_small")
    return cache


def _request_trees(spans):
    return [t for t in build_trees(spans) if t.trace_id.startswith("req-")]


def test_service_traces_every_request_as_one_tree(cache):
    tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(cache=cache, max_batch_size=2, tracer=tracer)
    for _ in range(3):
        service.request(LENET)
    responses = service.run_pending()
    assert all(r.ok for r in responses)

    trees = _request_trees(tracer.finished)
    assert len(trees) == 3
    for tree in trees:
        assert len(tree.roots) == 1 and tree.orphans == []
        names = [node.name for _, node in tree.roots[0].walk()]
        assert names[0] == "request"
        assert "execute" in names
        assert any(name.startswith("unit.") for name in names)
    # The execute span carries the simulated-cycle annotation, and the
    # request root records the request's identity.
    root = trees[0].roots[0]
    assert root.span["attrs"]["request_id"] == int(
        trees[0].trace_id.removeprefix("req-"))
    execute = next(n for _, n in root.walk() if n.name == "execute")
    assert execute.span["attrs"]["cycles"] > 0
    # Unit spans nest inside the execute window, cycle sums attributed.
    units = [n for _, n in root.walk() if n.name.startswith("unit.")]
    for unit in units:
        assert unit.span["start_s"] >= execute.span["start_s"]
        assert unit.span["end_s"] <= execute.span["end_s"] + 1e-9
        assert unit.span["attrs"]["cycles"] > 0


def test_batch_spans_classify_bundle_resolution(tmp_path):
    # Fresh cache + store: first batch compiles, a second service over
    # the same store fetches, and a warm repeat hits memory.
    store = BundleStore(tmp_path / "store")
    tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(
        cache=BundleCache(store=store), max_batch_size=4, tracer=tracer)
    service.request(LENET)
    service.run_pending()
    service.request(LENET)
    service.run_pending()

    second = Tracer(enabled=True, process=-1)
    fetcher = InferenceService(
        cache=BundleCache(store=store), max_batch_size=4, tracer=second)
    fetcher.request(LENET)
    fetcher.run_pending()

    def sources(t):
        return [s["attrs"]["source"] for s in t.finished
                if s["name"] == "bundle.resolve"]

    assert sources(tracer) == ["compile", "memory"]
    assert sources(second) == ["store"]


def _child_names(node):
    return [c.name for c in sorted(node.children, key=lambda n: n.span["start_s"])]


def test_service_and_plane_record_the_same_request_spans(cache):
    """Both front ends run one request core, so the service's request
    root and the plane worker's worker.serve span have the same
    children in the same order."""
    service_tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(cache=cache, tracer=service_tracer)
    service.request(LENET)
    service.run_pending()
    (service_tree,) = _request_trees(service_tracer.finished)
    request_root = service_tree.roots[0]

    plane_tracer = Tracer(enabled=True, process=-1)
    with ServingPlane(processes=1, cache=cache, tracer=plane_tracer) as plane:
        plane.serve([plane.request(LENET)])
    (plane_tree,) = _request_trees(plane_tracer.finished)
    worker_serve = next(n for _, n in plane_tree.roots[0].walk()
                        if n.name == "worker.serve")

    expected = ["bundle.resolve", "input.synthesize", "execute"]
    assert _child_names(request_root) == expected
    assert _child_names(worker_serve) == expected


def test_batch_trace_links_requests_by_attr(cache):
    tracer = Tracer(enabled=True, process=-1)
    service = InferenceService(cache=cache, max_batch_size=8, tracer=tracer)
    for _ in range(2):
        service.request(LENET)
    service.run_pending()
    batches = [t for t in build_trees(tracer.finished)
               if t.trace_id.startswith("batch-")]
    assert len(batches) == 1
    (batch,) = batches
    assert batch.roots[0].span["attrs"]["size"] == 2
    batch_id = batch.roots[0].span["attrs"]["batch_id"]
    for tree in _request_trees(tracer.finished):
        assert tree.roots[0].span["attrs"]["batch_id"] == batch_id


def test_default_service_records_nothing(cache):
    service = InferenceService(cache=cache)
    service.request(LENET)
    assert all(r.ok for r in service.run_pending())
    assert len(service.tracer) == 0  # NULL_TRACER by default


def test_service_metrics_histograms_record_requests(cache):
    service = InferenceService(cache=cache)
    for _ in range(3):
        service.request(LENET)
    service.run_pending()
    wall = service.metrics.registry.get("serve.request.wall.seconds")
    cycles = service.metrics.registry.get("serve.request.cycles")
    assert wall.count == 3 and cycles.count == 3
    assert cycles.min > 0


def test_two_process_plane_stitches_across_the_boundary(cache):
    workload = [LENET] * 4
    tracer = Tracer(enabled=True, process=-1)
    with ServingPlane(processes=2, cache=cache, tracer=tracer) as plane:
        responses = plane.serve([plane.request(d) for d in workload])
    assert all(r.ok for r in responses)

    spans = tracer.finished
    trees = _request_trees(spans)
    assert len(trees) == 4
    for tree in trees:
        assert len(tree.roots) == 1
        assert tree.orphans == []
        names = [node.name for _, node in tree.roots[0].walk()]
        # Plane-side intake...
        assert names[0] == "request" and "queue" in names
        # ...stitched to worker-side serving.
        assert "worker.serve" in names and "execute" in names
        worker = next(n for _, n in tree.roots[0].walk()
                      if n.name == "worker.serve")
        assert worker.span["process"] in (0, 1)
        assert tree.roots[0].span["process"] == -1
    # Worker spans crossed the boundary from both workers or at least
    # one (scheduling may pack a tiny workload onto one process), and
    # the export is Perfetto-loadable.
    worker_pids = {s["process"] for s in spans if s["name"] == "worker.serve"}
    assert worker_pids <= {0, 1} and worker_pids
    chrome = to_chrome_trace(spans)
    assert len([e for e in chrome["traceEvents"] if e["ph"] == "X"]) == len(spans)


def test_plane_spans_all_closed_across_fidelities(cache):
    """No half-open spans survive a mixed-fidelity plane run."""
    tracer = Tracer(enabled=True, process=-1)
    timing = DeploymentSpec("lenet5", fidelity="timing")
    with ServingPlane(processes=1, cache=cache, tracer=tracer) as plane:
        responses = plane.serve([plane.request(timing), plane.request(LENET)])
    assert all(r.ok for r in responses)
    # Every recorded span is finished (end_s set) — nothing half-open.
    assert all(s["end_s"] is not None for s in tracer.finished)
    trees = build_trees(tracer.finished)
    assert sum(len(t.orphans) for t in trees) == 0
