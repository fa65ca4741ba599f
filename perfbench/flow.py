"""``flow-mobilenet``: the cold offline flow on MobileNet-v1, nv_small INT8.

One iteration is what ``repro warmup`` pays, then the first inference:

1. build the bundle from the network and publish it to a fresh
   :class:`~repro.store.BundleStore` (``build_s``);
2. fetch it back through a fresh :class:`~repro.serve.cache.BundleCache`
   on that store (``cold_start_s``);
3. run it on the cycle-accurate SoC (``sim_run_s``).

A run makes as many whole iterations as fit in its window and reports
medians over them.  Checks: each fetched bundle came from the store and
is ``artifact_digest``-identical to the built one; each SoC run ends
``DONE`` with an output bit-identical to the VP's functional result
from the build (an independent execution of the same program).
"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from common import (
    FREQUENCY_HZ, SRC, WORK, HostTimer, Spans, layer_metrics, layer_targets, median,
    paper_check, peak_rss_mb, percentile, run_slowdown,
)

MODEL = "mobilenet"
SETUPS = 9
MIN_ITERATIONS = 2

#: What a fresh interpreter imports before it can run the flow.
_IMPORTS = (
    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    "import repro.baremetal.pipeline, repro.store, repro.serve.cache, "
    "repro.core.soc, repro.nn.zoo"
)


class _StoreMiss(Exception):
    """The fresh cache found nothing in the store and tried to rebuild."""


def _refuse_build():
    raise _StoreMiss("bundle missing from the store it was published to")


def setup(seed: int):
    """Interpreter start and imports, network construction, seeded input."""
    from repro.nn.zoo import ZOO

    subprocess.run([sys.executable, "-c", _IMPORTS], check=True)
    net = ZOO[MODEL]()
    image = np.random.default_rng(seed).uniform(-1.0, 1.0, net.input_shape)
    return net, image.astype(np.float32)


def iteration(net, image, seed: int, spans: Spans | None = None) -> dict:
    """Build and publish once, then fetch through a fresh cache and run
    on the SoC once.

    The fetch and the run are timed at the reference host speed.  The
    build is not: it takes long enough for the host's speed to change
    within it, so probes at its ends would add error rather than remove
    it.  Its wall time is returned and scaled by the whole run's probes.
    """
    from repro.baremetal.pipeline import bundle_cache_key, execute_bundle, generate_baremetal
    from repro.nvdla.config import NV_SMALL, Precision
    from repro.serve.cache import BundleCache
    from repro.store import BundleStore

    root = tempfile.mkdtemp(prefix="flow-store-", dir=WORK)
    try:
        store = BundleStore(root)
        key = bundle_cache_key(MODEL, NV_SMALL, Precision.INT8, seed=seed)
        began = time.perf_counter()
        with spans.span("build") if spans is not None else nullcontext():
            built = generate_baremetal(net, NV_SMALL, input_image=image)
        store.put_bundle(key, built)
        build_s = time.perf_counter() - began
        expected = built.vp_result.output
        digest = built.artifact_digest()
        del built
        cache = BundleCache(store=store)
        with HostTimer() as fetch:
            try:
                fetched = cache.get_or_build(key, _refuse_build)
            except _StoreMiss:
                fetched = None
        if fetched is None or cache.stats.store_hits != 1:
            raise RuntimeError("the bundle did not come back from the store")
        failed = int(fetched.artifact_digest() != digest)
        with HostTimer() as run:
            result = execute_bundle(fetched)
        if not (
            result.ok
            and result.output is not None
            and result.output.dtype == expected.dtype
            and np.array_equal(result.output, expected)
        ):
            failed += 1
        return {
            "build_s": build_s,
            "cold_start_s": fetch.seconds,
            "sim_run_s": run.seconds,
            "unscaled_cold_start_s": fetch.raw_s,
            "unscaled_sim_run_s": run.raw_s,
            # Model to first result, in wall seconds without the probes.
            "first_result_s": build_s + fetch.raw_s + run.raw_s,
            "cycles": result.cycles,
            "attempted": 2,  # the store round trip and the inference
            "failed": failed,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
        gc.collect()


def _end_to_end(iterations: list[dict], setups: list[float]) -> dict:
    flows = [it["first_result_s"] for it in iterations]
    summary = {
        "setup_s": median(setups),
        "sim_ms": median([it["cycles"] for it in iterations]) / FREQUENCY_HZ * 1e3,
        "unscaled_build_s": median([it["build_s"] for it in iterations]),
        "unscaled_latency_p50_ms": percentile(flows, 50) * 1e3,
        "unscaled_latency_p90_ms": percentile(flows, 90) * 1e3,
        "unscaled_throughput_rps": len(flows) / sum(flows),
    }
    for name in ("cold_start_s", "sim_run_s", "unscaled_cold_start_s", "unscaled_sim_run_s"):
        summary[name] = median([it[name] for it in iterations])
    # The build and the whole flow last too long for HostTimer.
    slowdown = run_slowdown()
    summary["slowdown"] = slowdown
    summary["build_s"] = summary["unscaled_build_s"] / slowdown
    for name in ("latency_p50_ms", "latency_p90_ms"):
        summary[name] = summary["unscaled_" + name] / slowdown
    summary["throughput_rps"] = summary["unscaled_throughput_rps"] * slowdown
    return summary


def run(seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(1 if trace else SETUPS):
        with HostTimer() as timer:
            net, image = setup(seed)
        setups.append(timer.seconds)

    # As many whole iterations as fit in the window, at least two: one
    # ~20-s iteration reads the host's speed of a single moment.
    window = time.perf_counter()
    iterations = [iteration(net, image, seed)]
    while not trace and (
        len(iterations) < MIN_ITERATIONS
        or (time.perf_counter() - window) * (1 + 1 / len(iterations)) <= seconds
    ):
        iterations.append(iteration(net, image, seed))
    result = {"end_to_end": _end_to_end(iterations, setups), "layers": None}
    if trace:
        spans = Spans()
        with spans.wrapping(layer_targets()):
            traced = iteration(net, image, seed, spans)
        plain, = iterations
        iterations.append(traced)
        result["layers"] = layers = layer_metrics(spans)
        layers["trace.overhead_pct"] = (
            (traced["first_result_s"] - plain["first_result_s"]) / plain["first_result_s"] * 100
        )
        layers["spans"] = spans
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    result["attempted"] = sum(it["attempted"] for it in iterations)
    result["failed"] = sum(it["failed"] for it in iterations)
    result["end_to_end"]["success_rate"] = 1 - result["failed"] / result["attempted"]
    result["paper"] = [paper_check(MODEL, iterations[0]["cycles"])]
    return result
