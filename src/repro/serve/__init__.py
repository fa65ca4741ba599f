"""Batched inference serving on top of the bare-metal flow.

The subsystem the ROADMAP's "production-scale" north star asks for:
many requests, across models/configs/precisions, served from memoised
bare-metal artefacts on a pool of reusable simulated SoCs.

- :class:`BundleCache` — the offline flow runs once per deployment.
- :class:`RequestScheduler` — fair per-deployment batching, with an
  admit-into-forming-batch path for continuous batching.
- :class:`WorkerPool` / :class:`SocWorker` / :class:`FastPathWorker` —
  reusable execution tiers: cycle-accurate SoCs and the calibrated
  fast path (``DeploymentSpec(execution_mode="fast")``).
- :class:`InferenceService` — the synchronous single-process facade;
  :class:`ServiceMetrics` for throughput / latency percentiles / hit
  rates, per deployment and per worker process.
- :class:`ServingPlane` / :class:`ProcessWorkerPool` — the
  process-parallel plane: an asyncio request plane (streaming arrivals,
  continuous batching) over spawn-safe worker processes that rehydrate
  bundles from the persistent store by cache key.  Both front ends run
  every request through :func:`serve_request`, so outputs are
  bit-identical to the single-process service (see also
  :func:`~repro.serve.request.request_rng`).
"""

from repro.serve.cache import BundleCache, BundleCacheStats, shared_cache
from repro.serve.metrics import (
    DeploymentMetrics,
    LatencySummary,
    ServiceMetrics,
    percentile,
)
from repro.serve.plane import ServingPlane
from repro.serve.procpool import ProcessStats, ProcessWorkerPool
from repro.serve.request import (
    DeploymentSpec,
    FastPathRunRequest,
    FastPathRunResult,
    InferenceRequest,
    InferenceResponse,
    make_input,
    make_input_for,
    request_rng,
)
from repro.serve.scheduler import Batch, RequestScheduler
from repro.serve.service import InferenceService
from repro.serve.workers import (
    FastPathWorker,
    SocWorker,
    WorkerPool,
    hardware_key,
    pack_input_image,
    serve_request,
)

__all__ = [
    "Batch",
    "BundleCache",
    "BundleCacheStats",
    "DeploymentMetrics",
    "DeploymentSpec",
    "FastPathRunRequest",
    "FastPathRunResult",
    "FastPathWorker",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceService",
    "LatencySummary",
    "ProcessStats",
    "ProcessWorkerPool",
    "RequestScheduler",
    "ServiceMetrics",
    "ServingPlane",
    "SocWorker",
    "WorkerPool",
    "hardware_key",
    "make_input",
    "make_input_for",
    "pack_input_image",
    "percentile",
    "request_rng",
    "serve_request",
    "shared_cache",
]
