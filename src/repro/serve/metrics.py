"""Service-level metrics: throughput, latency percentiles, hit rates.

Latency is tracked on both timescales: *wall* seconds (host time to
serve a request, the number the cache is trying to shrink) and
*simulated* cycles (what the modelled SoC would take, the number the
paper reports).

Everything lives in one :class:`repro.obs.metrics.MetricsRegistry`
(``metrics.registry``), so it merges across processes and exports
through ``--metrics-out`` and ``repro metrics``.  The attributes below
(``metrics.requests += 1`` etc.) are a facade over registry counters,
and every latency summary is derived from a registry histogram
(``serve.request.wall.seconds``, ``serve.request.cycles``, and the
per-deployment ``serve.deployment.<describe>.*`` instruments), so
memory stays constant however many requests are recorded.
"""

from __future__ import annotations

from ..obs.metrics import CYCLES_BOUNDS, MetricsRegistry, counter_property
from ..obs.stats import LatencySummary, percentile

__all__ = [
    "DeploymentMetrics",
    "LatencySummary",
    "ServiceMetrics",
    "percentile",
]

DEPLOYMENT_PREFIX = "serve.deployment."


class DeploymentMetrics:
    """Per-deployment slice of the service counters: a read-only view
    of the ``serve.deployment.<name>.*`` registry instruments.

    Keyed by :meth:`DeploymentSpec.describe`, so mixed-mode services
    (fast and cycle-accurate tiers side by side) report each tier's
    traffic and latency separately — the two tiers serve identical
    tensors but live on different wall-clock scales.
    """

    def __init__(self, registry: MetricsRegistry, name: str):
        self.registry = registry
        self.prefix = f"{DEPLOYMENT_PREFIX}{name}."

    def _count(self, suffix: str) -> float:
        counter = self.registry.get(self.prefix + suffix)
        return counter.value if counter is not None else 0

    @property
    def requests(self) -> int:
        return int(self._count("requests"))

    @property
    def failures(self) -> int:
        return int(self._count("failures"))

    @property
    def wall_seconds(self) -> float:
        return float(self._count("busy.seconds"))

    def wall_summary(self) -> LatencySummary:
        return LatencySummary.of_histogram(
            self.registry.get(self.prefix + "wall.seconds"))

    def cycle_summary(self) -> LatencySummary:
        return LatencySummary.of_histogram(self.registry.get(self.prefix + "cycles"))

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
            "wall": self.wall_summary().to_dict(),
            "cycles": self.cycle_summary().to_dict(),
        }


class ServiceMetrics:
    """Counters and latency histograms accumulated across a service
    lifetime, all held in ``self.registry``."""

    requests = counter_property("serve.requests")
    failures = counter_property("serve.failures")
    batches = counter_property("serve.batches")
    # served from the in-memory cache
    bundle_hits = counter_property("serve.bundle.hits")
    # = bundle_store_hits + bundle_compiles
    bundle_misses = counter_property("serve.bundle.misses")
    # misses satisfied by the persistent store
    bundle_store_hits = counter_property("serve.bundle.store_hits")
    # misses that paid the full offline flow
    bundle_compiles = counter_property("serve.bundle.compiles")
    workers_created = counter_property("serve.workers.created")
    workers_reused = counter_property("serve.workers.reused")
    # busy time inside workers
    wall_seconds_total = counter_property("serve.busy.seconds", float)
    # end-to-end serve() time
    elapsed_seconds = counter_property("serve.elapsed.seconds", float)

    def __init__(self):
        self.registry = MetricsRegistry()
        for attr in ("requests", "failures", "batches", "bundle_hits",
                     "bundle_misses", "bundle_store_hits", "bundle_compiles",
                     "workers_created", "workers_reused", "wall_seconds_total",
                     "elapsed_seconds"):
            setattr(self, attr, 0)  # every counter in the snapshot from the start
        # Worker-process slot → its counters (runs, busy_seconds,
        # batches, restarts), aggregated by the serving plane after each
        # drain.  The single-process service leaves this empty.
        self.per_process: dict[int, dict] = {}

    def record(
        self, wall_seconds: float, cycles: int, ok: bool, deployment: str | None = None
    ) -> None:
        self._observe("serve.", "serve.request.", wall_seconds, cycles, ok)
        if deployment is not None:
            prefix = f"{DEPLOYMENT_PREFIX}{deployment}."
            self._observe(prefix, prefix, wall_seconds, cycles, ok)

    def _observe(self, counters: str, histograms: str, wall_seconds: float,
                 cycles: int, ok: bool) -> None:
        registry = self.registry
        registry.counter(counters + "requests").inc(1)
        if not ok:
            registry.counter(counters + "failures").inc(1)
        registry.counter(counters + "busy.seconds").inc(wall_seconds)
        registry.histogram(histograms + "wall.seconds").observe(wall_seconds)
        registry.histogram(histograms + "cycles", CYCLES_BOUNDS).observe(float(cycles))

    @property
    def per_deployment(self) -> dict[str, DeploymentMetrics]:
        """Deployment name → its slice, discovered from the registry (so
        a merged ``--metrics-out`` snapshot keeps the split)."""
        suffix = ".requests"
        names = [
            metric[len(DEPLOYMENT_PREFIX):-len(suffix)]
            for metric in self.registry.names()
            if metric.startswith(DEPLOYMENT_PREFIX) and metric.endswith(suffix)
        ]
        return {name: DeploymentMetrics(self.registry, name) for name in names}

    def record_resolution(self, source: str) -> None:
        """Count one bundle resolution by its source: ``"memory"`` is a
        hit; ``"store"`` and ``"compile"`` are misses."""
        if source == "memory":
            self.bundle_hits += 1
            return
        self.bundle_misses += 1
        if source == "store":
            self.bundle_store_hits += 1
        else:
            self.bundle_compiles += 1

    def record_process(self, slot: int, stats: dict) -> None:
        """Fold one worker process's counters into the aggregate view."""
        self.per_process[slot] = dict(stats)

    @property
    def process_restarts(self) -> int:
        return sum(s.get("restarts", 0) for s in self.per_process.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.bundle_hits + self.bundle_misses
        return self.bundle_hits / total if total else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second of serving."""
        elapsed = self.elapsed_seconds or self.wall_seconds_total
        return self.requests / elapsed if elapsed else 0.0

    def wall_summary(self) -> LatencySummary:
        return LatencySummary.of_histogram(
            self.registry.get("serve.request.wall.seconds"))

    def cycle_summary(self) -> LatencySummary:
        return LatencySummary.of_histogram(self.registry.get("serve.request.cycles"))

    def to_dict(self) -> dict:
        """The whole counter surface as JSON-ready data.

        Benchmarks and the cluster aggregator consume this instead of
        scraping :meth:`render` text.
        """
        return {
            "requests": self.requests,
            "failures": self.failures,
            "batches": self.batches,
            "bundle_hits": self.bundle_hits,
            "bundle_misses": self.bundle_misses,
            "bundle_store_hits": self.bundle_store_hits,
            "bundle_compiles": self.bundle_compiles,
            "cache_hit_rate": self.cache_hit_rate,
            "workers_created": self.workers_created,
            "workers_reused": self.workers_reused,
            "wall_seconds_total": self.wall_seconds_total,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "wall": self.wall_summary().to_dict(),
            "cycles": self.cycle_summary().to_dict(),
            "per_deployment": {
                name: slice_.to_dict()
                for name, slice_ in sorted(self.per_deployment.items())
            },
            "per_process": {
                str(slot): dict(stats)
                for slot, stats in sorted(self.per_process.items())
            },
        }

    def render(self) -> str:
        wall = self.wall_summary()
        cyc = self.cycle_summary()
        lines = [
            f"requests: {self.requests} ({self.failures} failed) "
            f"in {self.batches} batches",
            f"throughput: {self.throughput_rps:.2f} req/s "
            f"(elapsed {self.elapsed_seconds:.2f} s)",
            f"bundle cache: {self.bundle_hits} hits / {self.bundle_misses} misses "
            f"({self.cache_hit_rate * 100:.0f}% hit rate; "
            f"{self.bundle_store_hits} from store, "
            f"{self.bundle_compiles} compiled)",
            f"workers: {self.workers_created} created, {self.workers_reused} reuses",
            f"wall latency: p50 {wall.p50 * 1e3:.1f} ms  p99 {wall.p99 * 1e3:.1f} ms  "
            f"max {wall.max * 1e3:.1f} ms",
            f"SoC latency: p50 {cyc.p50:,.0f} cycles  p99 {cyc.p99:,.0f} cycles",
        ]
        for name in sorted(self.per_deployment):
            slice_ = self.per_deployment[name]
            wall_slice = slice_.wall_summary()
            cyc_slice = slice_.cycle_summary()
            lines.append(
                f"  {name}: {slice_.requests} requests "
                f"({slice_.failures} failed)  "
                f"wall p50 {wall_slice.p50 * 1e3:.1f} ms  "
                f"p99 {wall_slice.p99 * 1e3:.1f} ms  "
                f"max {wall_slice.max * 1e3:.1f} ms  "
                f"cycles p50 {cyc_slice.p50:,.0f}  p99 {cyc_slice.p99:,.0f}"
            )
        for slot in sorted(self.per_process):
            stats = self.per_process[slot]
            lines.append(
                f"  process {slot}: {stats.get('runs', 0)} runs in "
                f"{stats.get('batches', 0)} batches, "
                f"busy {stats.get('busy_seconds', 0.0):.2f} s, "
                f"{stats.get('restarts', 0)} restarts"
            )
        return "\n".join(lines)
