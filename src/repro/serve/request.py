"""Request/response types of the inference service.

A request names a *deployment* — the (model, config, precision,
fidelity) point whose bare-metal artefacts the service memoises — plus
the per-request input image.  The response carries both wall-clock and
simulated-cycle latency, so the service metrics can report the two
timescales the paper distinguishes (host simulation speed vs SoC
latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.nn.graph import Network
from repro.nvdla.config import Precision


def make_input(shape: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """Draw one input image from a caller-owned seeded generator.

    Every example, benchmark and test that fabricates inputs goes
    through this helper with a single ``Generator`` instance, so a
    whole workload is reproducible from one seed.
    """
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


def make_input_for(net: Network, rng: np.random.Generator) -> np.ndarray:
    return make_input(net.input_shape, rng)


def request_rng(input_seed: int, request_id: int) -> np.random.Generator:
    """The per-request input generator: seeded by ``(seed, request_id)``.

    The serving determinism convention: every input a service
    synthesises for request *i* is drawn from a generator seeded by the
    service seed *and* the request id — never from a generator shared
    across requests — so the tensor a request receives is independent
    of batch composition, drain order and worker/process count.  An
    N-process serving plane is bit-identical to the single-process
    service because both sides derive inputs through this function.
    """
    return np.random.default_rng((input_seed, request_id))


@dataclass(frozen=True)
class DeploymentSpec:
    """One unique (model, hardware, precision) service target.

    ``execution_mode`` picks the serving tier: ``"cycle_accurate"``
    replays bundles on a full simulated SoC (ISS + buses), ``"fast"``
    uses the calibrated functional tier
    (:class:`~repro.core.fastpath.FastPathExecutor`) — same artefacts,
    bit-identical outputs, analytic cycles.
    """

    model: str
    config: str = "nv_small"
    precision: Precision = Precision.INT8
    fidelity: str = "functional"
    frequency_hz: float = 100e6
    memory_bus_width_bits: int = 32
    execution_mode: str = "cycle_accurate"

    def __post_init__(self) -> None:
        if self.fidelity not in ("functional", "timing"):
            raise ReproError(f"unknown fidelity {self.fidelity!r}")
        if self.execution_mode not in ("cycle_accurate", "fast"):
            raise ReproError(f"unknown execution mode {self.execution_mode!r}")

    def describe(self) -> str:
        mode = "" if self.execution_mode == "cycle_accurate" else f"+{self.execution_mode}"
        return (
            f"{self.model}/{self.config}/{self.precision.value}"
            f"@{self.frequency_hz / 1e6:g}MHz{mode}"
        )


@dataclass
class InferenceRequest:
    """One queued inference."""

    request_id: int
    deployment: DeploymentSpec
    input_image: np.ndarray | None = None  # None = service synthesises one
    arrival_order: int = 0  # filled by the scheduler on submit

    @property
    def model(self) -> str:
        return self.deployment.model


@dataclass
class InferenceResponse:
    """Outcome of one served inference."""

    request_id: int
    deployment: DeploymentSpec
    ok: bool
    output: np.ndarray | None
    cycles: int
    sim_seconds: float  # simulated SoC time
    wall_seconds: float  # host time spent inside the worker run
    cache_hit: bool
    worker_id: int
    batch_id: int  # which scheduler batch dispatched this request
    notes: dict = field(default_factory=dict)

    @property
    def sim_milliseconds(self) -> float:
        return self.sim_seconds * 1e3


@dataclass(frozen=True)
class FastPathRunRequest:
    """Spawn-safe wire form of one request for a worker process.

    No bundle object crosses the process boundary.  The bundle travels
    as its deployment cache key (``bundle_key``, see
    :func:`repro.baremetal.pipeline.bundle_cache_key`), which the
    worker checks against ``deployment`` before rehydrating the bundle
    from the shared :class:`~repro.store.BundleStore` — or recompiling
    it deterministically on a store miss, which yields bit-identical
    artifacts by construction.

    ``input_seed`` is the service seed of :func:`request_rng`: when
    ``input_image`` is ``None`` for a functional deployment, the worker
    draws the input from ``request_rng(input_seed, request_id)``, so
    the tensor a request receives is independent of which process
    serves it.
    """

    request_id: int
    deployment: DeploymentSpec
    bundle_key: tuple | None = None
    input_image: np.ndarray | None = None
    input_seed: int | None = None
    # Tracing context (trace_id, parent span_id) from Tracer.context():
    # the worker process parents its spans under the plane's request
    # span so the trace stitches across the process boundary.
    trace_ctx: tuple[str, str] | None = None


@dataclass(frozen=True)
class FastPathRunResult:
    """Picklable outcome of one request, in or out of process."""

    request_id: int
    ok: bool
    output: np.ndarray | None
    cycles: int
    sim_seconds: float
    wall_seconds: float  # host time inside the worker's run()
    worker_id: int = 0  # in-process worker id within its process
    # Finished span dicts recorded in the worker process for this
    # request (empty when tracing is off); the plane ingests them.
    spans: tuple = ()
