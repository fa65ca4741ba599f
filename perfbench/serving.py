"""``serve-burst-1p``: bursts of requests into a 1-process serving plane.

The requests are an equal lenet5/resnet18 split in seeded order on the
fast tier.  They go to a :class:`~repro.serve.plane.ServingPlane` with
one worker process in bursts of ``BURST``: each burst is one
``serve()`` call with every request submitted at once.  Batching, IPC
and the fast tier's unit kernels set the figures; nothing is paced.

Set-up (timed, repeated, median reported) is what a deployment pays
before its first request: building and publishing the bundles,
calibrating the fast tier against cycle-accurate runs, spawning the
worker process, and one warm batch per deployment.

A request's latency runs from its burst's start (when it is due) to its
batch returning from ``ProcessWorkerPool.run_batch``.  Checks: every
response is ``ok``, and a seeded sample is bit-identical to an
in-process ``FastPathExecutor.run`` of the same bundle, fetched through
a fresh cache from the plane's store, on the same ``request_rng``
input; the cycle-accurate SoC must agree with it too.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from contextlib import ExitStack, contextmanager

import numpy as np

from common import (
    WORK, HostTimer, Spans, host_probe, layer_metrics, layer_targets, median,
    paper_check, peak_rss_mb, percentile, run_slowdown,
)

MODELS = ("lenet5", "resnet18")
PROCESSES = 1
RATE = 72.0  # requests per second of run time; one process serves about twice that
BURST = 64
MAX_BATCH = 8
SETUPS = 5
COLD_STARTS = 8
SAMPLE = 12  # requests per deployment re-executed for the bit-identity check

#: Per-layer metrics of the serving layers; zero where no plane runs.
LAYER_NAMES = (
    "serve.plane.intake_lateness_p50_ms",
    "serve.plane.intake_lateness_max_ms",
    "serve.plane.queue_p50_ms",
    "serve.procpool.transport_p50_ms",
    "serve.worker.execute_p50_ms",
    "serve.worker.execute_p90_ms",
    "serve.worker.resolve_mean_ms",
    "serve.worker.input_synth_mean_ms",
    "serve.request.unattributed_p50_ms",
    "serve.request.coverage",
    "serve.batch_size_mean",
    "serve.batches",
    "serve.procpool.restarts",
    "serve.cache.hit_rate",
)


@contextmanager
def _patched(obj, attribute: str, replacement):
    """Shadow one instance attribute for the duration of the block."""
    setattr(obj, attribute, replacement)
    try:
        yield
    finally:
        delattr(obj, attribute)


class Setup:
    """One deployment made ready to serve: store, bundles, calibration, plane."""

    def __init__(self, seed: int, traced: bool) -> None:
        from repro.core.fastpath import calibrate
        from repro.nvdla.config import NV_SMALL
        from repro.obs.trace import NULL_TRACER, Tracer
        from repro.serve.cache import BundleCache
        from repro.serve.plane import ServingPlane
        from repro.serve.request import DeploymentSpec
        from repro.store import BundleStore

        self.root = tempfile.mkdtemp(prefix="plane-store-", dir=WORK)
        self.plane = None
        try:
            with HostTimer() as total:
                with HostTimer() as build:
                    self.cache = BundleCache(store=BundleStore(self.root))
                    for model in MODELS:
                        self.cache.bundle_for(model, NV_SMALL)
                self.build = build
                self.table = calibrate(MODELS, NV_SMALL, cache=self.cache)
                self.deployments = {
                    model: DeploymentSpec(model, execution_mode="fast") for model in MODELS
                }
                self.plane = ServingPlane(
                    processes=PROCESSES,
                    max_batch_size=MAX_BATCH,
                    input_seed=seed,
                    calibration=self.table,
                    cache=self.cache,
                    tracer=Tracer() if traced else NULL_TRACER,
                )
                self.plane.start()
                specs = list(self.deployments.values())
                self.plane.warm(specs)
                # Requests of one serve() call go to the handles in order,
                # so each rotation lands every deployment on another process.
                for shift in range(PROCESSES):
                    rotated = specs[shift:] + specs[:shift]
                    self.plane.serve([self.plane.request(spec) for spec in rotated])
        except BaseException:
            self.close()
            raise
        self.total = total

    def close(self) -> None:
        if self.plane is not None:
            self.plane.close()
            self.plane = None
        shutil.rmtree(self.root, ignore_errors=True)


def _schedule(seed: int, seconds: float) -> list[str]:
    """The seeded request models: an equal split in seeded order, so
    seeds vary the order of the work but not its amount."""
    rng = np.random.default_rng(seed)
    count = max(1, round(RATE * seconds))
    return list(rng.permutation(np.resize(np.array(MODELS), count)))


def serve_window(setup: Setup, seed: int, seconds: float, traced: bool):
    """Serve the seeded requests in bursts; returns responses and timestamps.

    Untraced, only completions are stamped; traced, the submit and the
    start of every batch are stamped too.
    """
    plane = setup.plane
    requests = [plane.request(setup.deployments[model]) for model in _schedule(seed, seconds)]

    due: dict[int, float] = {}
    completed: dict[int, float] = {}
    batches: list[tuple[float, float, list[int]]] = []
    submitted: dict[int, float] = {}
    run_batch = plane.pool.run_batch
    submit = plane.scheduler.submit

    def stamped_run_batch(handle, runs, *args, **kwargs):
        results = run_batch(handle, runs, *args, **kwargs)
        end = time.perf_counter()
        for run in runs:
            completed[run.request_id] = end
        return results

    def traced_run_batch(handle, runs, *args, **kwargs):
        start = time.perf_counter()
        results = stamped_run_batch(handle, runs, *args, **kwargs)
        batches.append((start, completed[runs[0].request_id], [r.request_id for r in runs]))
        return results

    def traced_submit(request):
        submitted[request.request_id] = time.perf_counter()
        return submit(request)

    plane.tracer.drain()  # keep only the window's worker spans
    responses = []
    with ExitStack() as stack:
        stack.enter_context(
            _patched(plane.pool, "run_batch", traced_run_batch if traced else stamped_run_batch)
        )
        if traced:
            stack.enter_context(_patched(plane.scheduler, "submit", traced_submit))
        for first in range(0, len(requests), BURST):
            burst = requests[first:first + BURST]
            host_probe()  # samples the host's speed for run_slowdown()
            opened = time.perf_counter()
            due.update((r.request_id, opened) for r in burst)
            responses += plane.serve(burst)
    return responses, due, completed, submitted, batches


def _verify(setup: Setup, responses, seed: int):
    """Sampled bit-identity checks.  Returns the failed request ids, the
    timers of ``COLD_STARTS`` fresh-cache fetches, and the timers of the
    sample's cycle-accurate runs grouped by model."""
    from repro.baremetal.pipeline import execute_bundle
    from repro.core.fastpath import FastPathExecutor
    from repro.nvdla.config import NV_SMALL
    from repro.serve.cache import BundleCache
    from repro.serve.request import make_input, request_rng

    failed = {r.request_id for r in responses if not r.ok}
    gc.collect()
    fetches = []
    for _ in range(COLD_STARTS):
        fresh = BundleCache(store=setup.cache.store)
        with HostTimer() as fetch:
            bundles = {model: fresh.bundle_for(model, NV_SMALL) for model in MODELS}
        fetches.append(fetch)
        if fresh.stats.store_hits != len(bundles):
            failed.update(r.request_id for r in responses)  # not what was served

    # An equal sample of every deployment.
    rng = np.random.default_rng([seed, 1])
    sample = []
    for model in MODELS:
        served = [r for r in responses if r.deployment.model == model]
        picks = rng.choice(len(served), size=min(SAMPLE, len(served)), replace=False)
        sample += [served[i] for i in sorted(picks)]
    images = {
        r.request_id: make_input(
            bundles[r.deployment.model].loadable.input_tensor.shape,
            request_rng(seed, r.request_id),
        )
        for r in sample
    }
    executor = FastPathExecutor(NV_SMALL, calibration=setup.table)
    references = {
        r.request_id: executor.run(bundles[r.deployment.model], input_image=images[r.request_id])
        for r in sample
    }
    accurate, timers = {}, {model: [] for model in MODELS}
    for r in sample:
        model = r.deployment.model
        with HostTimer() as run:
            accurate[r.request_id] = execute_bundle(
                bundles[model], "cycle_accurate", input_image=images[r.request_id]
            )
        timers[model].append(run)
    for response in sample:
        reference = references[response.request_id]
        if not (
            response.ok
            and reference.ok
            and accurate[response.request_id].ok
            and reference.cycles == response.cycles
            and np.array_equal(reference.output, response.output)
            and np.array_equal(accurate[response.request_id].output, reference.output)
        ):
            failed.add(response.request_id)
    return failed, fetches, list(timers.values())


def _end_to_end(responses, due, completed) -> dict:
    """Latency and throughput, in wall time and divided by the run's
    slowdown: the window lasts too long for HostTimer."""
    latencies = [(completed[r.request_id] - due[r.request_id]) * 1e3 for r in responses]
    ok = [r for r in responses if r.ok]
    # Each burst is busy from its start to its last completion.
    busy: dict[float, float] = {}
    for r in responses:
        opened = due[r.request_id]
        busy[opened] = max(busy.get(opened, opened), completed[r.request_id])
    summary = {
        "unscaled_latency_p50_ms": percentile(latencies, 50),
        "unscaled_latency_p90_ms": percentile(latencies, 90),
        "unscaled_throughput_rps": len(ok) / sum(end - start for start, end in busy.items()),
        "sim_ms": float(np.mean([r.sim_seconds * 1e3 for r in ok])),
        "slowdown": run_slowdown(),
    }
    for name in ("latency_p50_ms", "latency_p90_ms"):
        summary[name] = summary["unscaled_" + name] / summary["slowdown"]
    summary["throughput_rps"] = summary["unscaled_throughput_rps"] * summary["slowdown"]
    return summary


def _serving_layers(plane, responses, due, submitted, batches) -> dict:
    execute = {r.request_id: r.wall_seconds for r in responses}
    worker_spans = plane.tracer.drain()

    def worker_ms(name):
        values = [(s["end_s"] - s["start_s"]) * 1e3 for s in worker_spans if s["name"] == name]
        return float(np.mean(values)) if values else 0.0

    # Resolve and input synthesis are children of the request's
    # worker.serve span, which carries the request id.
    serve_spans = {s["span_id"]: s for s in worker_spans if s["name"] == "worker.serve"}
    worker_side: dict[int, float] = {}
    for s in worker_spans:
        parent = serve_spans.get(s["parent_id"])
        if parent is not None and s["name"] in ("bundle.resolve", "input.synthesize"):
            rid = parent["attrs"]["request_id"]
            worker_side[rid] = worker_side.get(rid, 0.0) + s["end_s"] - s["start_s"]

    # A request's children: intake lateness, queueing, and the worker
    # time of its batch; the rest of its latency is IPC and pickling.
    lateness, queue, transport, unattributed = [], [], [], []
    covered = total = 0.0
    for start, end, ids in batches:
        busy = sum(execute[i] for i in ids)
        worker_time = busy + sum(worker_side.get(i, 0.0) for i in ids)
        transport.append((end - start - busy) * 1e3)
        for i in ids:
            children = (start - due[i]) + worker_time
            lateness.append((submitted[i] - due[i]) * 1e3)
            queue.append((start - submitted[i]) * 1e3)
            unattributed.append((end - due[i] - children) * 1e3)
            covered += children
            total += end - due[i]
    wall = [seconds * 1e3 for seconds in execute.values()]
    return {
        "serve.plane.intake_lateness_p50_ms": percentile(lateness, 50),
        "serve.plane.intake_lateness_max_ms": max(lateness),
        "serve.plane.queue_p50_ms": percentile(queue, 50),
        "serve.procpool.transport_p50_ms": percentile(transport, 50),
        "serve.worker.execute_p50_ms": percentile(wall, 50),
        "serve.worker.execute_p90_ms": percentile(wall, 90),
        "serve.worker.resolve_mean_ms": worker_ms("bundle.resolve"),
        "serve.worker.input_synth_mean_ms": worker_ms("input.synthesize"),
        "serve.request.unattributed_p50_ms": percentile(unattributed, 50),
        "serve.request.coverage": covered / total,
        "serve.batch_size_mean": len(responses) / len(batches),
        "serve.batches": len(batches),
        "serve.procpool.restarts": plane.pool.restarts,
        "serve.cache.hit_rate": sum(r.cache_hit for r in responses) / len(responses),
    }


def _pass(seed: int, seconds: float, setups: int, traced: bool) -> dict:
    """Set up ``setups`` times, serve one window on the last set-up and
    verify it; ``traced`` adds the plane-side stamps and worker spans."""
    totals, builds = [], []  # set-up and build timers
    setup = None
    for _ in range(setups):
        if setup is not None:
            setup.close()
            gc.collect()
        setup = Setup(seed, traced)
        totals.append(setup.total)
        builds.append(setup.build)
    try:
        responses, due, completed, submitted, batches = serve_window(
            setup, seed, seconds, traced
        )
        failed, fetches, runs = _verify(setup, responses, seed)
        result = {
            "attempted": len(responses),
            "failed": len(failed),
            "end_to_end": {
                "setup_s": median([t.seconds for t in totals]),
                "build_s": median([t.seconds for t in builds]),
                "cold_start_s": median([t.seconds for t in fetches]),
                # Per model, so each weighs alike whatever the seed.
                "sim_run_s": float(np.mean([median([t.seconds for t in ts]) for ts in runs])),
                "unscaled_cold_start_s": median([t.raw_s for t in fetches]),
                "unscaled_sim_run_s": float(np.mean([median([t.raw_s for t in ts]) for ts in runs])),
                "unscaled_setup_s": median([t.raw_s for t in totals]),
                "unscaled_build_s": median([t.raw_s for t in builds]),
                **_end_to_end(responses, due, completed),
            },
            "paper": [
                paper_check(model, setup.table.entry(model, "nv_small", "int8").measured_cycles)
                for model in MODELS
            ],
        }
        if traced:
            result["serving"] = _serving_layers(setup.plane, responses, due, submitted, batches)
        return result
    finally:
        setup.close()


def run(seed: int, seconds: float, trace: bool) -> dict:
    import repro.serve.cache as cache_module

    if not trace:
        result = _pass(seed, seconds, SETUPS, traced=False)
        result["layers"] = None
    else:
        plain = _pass(seed, seconds, 1, traced=False)
        gc.collect()
        spans = Spans()
        targets = layer_targets() + [(cache_module, "generate_baremetal", "build", None)]
        with spans.wrapping(targets):
            result = _pass(seed, seconds, 1, traced=True)
        result["layers"] = layers = layer_metrics(spans)
        layers.update(result.pop("serving"))
        untraced = plain["end_to_end"]["latency_p50_ms"]
        layers["trace.overhead_pct"] = (
            (result["end_to_end"]["latency_p50_ms"] - untraced) / untraced * 100
        )
        layers["spans"] = spans
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["end_to_end"] = plain["end_to_end"]
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    result["end_to_end"]["success_rate"] = 1 - result["failed"] / result["attempted"]
    return result
