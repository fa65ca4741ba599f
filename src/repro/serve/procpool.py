"""Process-parallel serving workers.

The in-process :class:`~repro.serve.workers.WorkerPool` is bounded by
one Python core; this module runs one *whole worker pool per OS
process* so the numpy kernels of N requests really execute on N cores.

Spawn-safe by construction:

- worker processes are started with the ``spawn`` method (no forked
  locks, works identically on every platform and under pytest);
- nothing heavier than :class:`~repro.serve.request.FastPathRunRequest`
  crosses the process boundary — bundles travel as their deployment
  cache key and are rehydrated on the far side from the shared
  :class:`~repro.store.BundleStore` (memory → store → deterministic
  recompile, the same miss path every replica uses);
- each request runs :func:`~repro.serve.workers.serve_request`, the
  same core the in-process service runs, inside a ``worker.serve``
  span;
- each process loads its calibration table exactly once, from the
  JSON-ready payload it was spawned with, and owns its executors and
  bundle cache for its whole lifetime.

A worker process that dies mid-batch is detected by the dispatcher,
respawned, and the batch re-dispatched once — a second death on the
same batch raises (poison batch).  ``tests/serve/test_procpool.py``
kills workers on purpose to pin this down.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.baremetal.pipeline import bundle_cache_key
from repro.core.calibration import CalibrationTable
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.serve.request import FastPathRunRequest, FastPathRunResult

_SPAWN = multiprocessing.get_context("spawn")


class WorkerProcessDied(ReproError):
    """Internal signal: the worker process exited before replying."""


# ----------------------------------------------------------------------
# Code that runs inside the worker process.
# ----------------------------------------------------------------------


def _check_bundle_key(run: FastPathRunRequest) -> None:
    """Refuse a request whose shipped bundle key names another deployment."""
    if run.bundle_key is None:
        return
    spec = run.deployment
    expected = bundle_cache_key(spec.model, spec.config, spec.precision, spec.fidelity)
    if tuple(run.bundle_key) != expected:
        raise ReproError(
            f"request {run.request_id}: shipped bundle key "
            f"{run.bundle_key!r} does not name this deployment "
            f"(expected {expected!r})"
        )


def _worker_main(
    worker_id: int,
    store_root: str | None,
    calibration_payload: dict | None,
    max_resident_bundles: int | None,
    inbox,
    outbox,
    trace_enabled: bool = False,
) -> None:
    """Entry point of one worker process (top level: spawn-picklable)."""
    from repro.serve.cache import BundleCache
    from repro.serve.workers import WorkerPool, serve_request
    from repro.store import BundleStore

    calibration = (
        CalibrationTable.from_dict(calibration_payload)
        if calibration_payload is not None
        else None
    )
    store = BundleStore(store_root) if store_root is not None else None
    cache = BundleCache(store=store)
    pool = WorkerPool(
        calibration=calibration, max_resident_bundles=max_resident_bundles
    )
    tracer = Tracer(enabled=trace_enabled, process=worker_id)
    outbox.put(("ready", worker_id, None))
    while True:
        message = inbox.get()
        if message is None:
            return
        batch_id, runs = message
        try:
            results = []
            for run in runs:
                _check_bundle_key(run)
                spec = run.deployment
                # Parent this process's spans under the plane's request
                # span: the shipped (trace_id, span_id) is all the
                # context stitching needs.
                trace_id, parent_id = run.trace_ctx or (None, None)
                serve_span = tracer.start(
                    "worker.serve", trace_id=trace_id, parent=parent_id,
                    request_id=run.request_id, model=spec.model,
                )
                result, _source = serve_request(
                    cache, pool, spec, run.request_id, run.input_image,
                    run.input_seed, tracer, serve_span,
                )
                if tracer.enabled:
                    tracer.end(serve_span, ok=result.ok)
                    result = replace(result, spans=tuple(tracer.drain()))
                results.append(result)
        except Exception as exc:  # ship the failure, keep serving
            tracer.drain()  # half-built spans of a failed batch
            outbox.put(("error", batch_id, f"{type(exc).__name__}: {exc}"))
        else:
            outbox.put(("done", batch_id, results))


# ----------------------------------------------------------------------
# Parent-side pool.
# ----------------------------------------------------------------------


@dataclass
class ProcessStats:
    """Parent-side accounting for one worker process slot."""

    runs: int = 0
    busy_seconds: float = 0.0
    batches: int = 0
    restarts: int = 0

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "busy_seconds": self.busy_seconds,
            "batches": self.batches,
            "restarts": self.restarts,
        }


class _WorkerHandle:
    """One worker process plus its private message queues."""

    def __init__(self, pool: "ProcessWorkerPool", slot: int) -> None:
        self.pool = pool
        self.slot = slot
        self.process = None
        self.inbox = None
        self.outbox = None
        self.stats = ProcessStats()

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def spawn(self) -> None:
        """Fresh queues + process; stale pre-crash messages cannot leak."""
        self.inbox = _SPAWN.Queue()
        self.outbox = _SPAWN.Queue()
        self.process = _SPAWN.Process(
            target=_worker_main,
            args=(
                self.slot,
                self.pool.store_root,
                self.pool.calibration_payload,
                self.pool.max_resident_bundles,
                self.inbox,
                self.outbox,
                self.pool.trace_enabled,
            ),
            daemon=True,
        )
        self.process.start()

    def wait_ready(self, timeout_s: float) -> None:
        reply = self._next_reply(timeout_s)
        if reply[0] != "ready":  # pragma: no cover - protocol violation
            raise ReproError(f"worker {self.slot} sent {reply[0]!r} before ready")

    def _next_reply(self, timeout_s: float | None):
        """Next message from this worker, or raise WorkerProcessDied."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            try:
                return self.outbox.get(timeout=0.2)
            except queue_module.Empty:
                if not self.alive():
                    raise WorkerProcessDied(
                        f"worker process {self.slot} exited "
                        f"(exitcode {self.process.exitcode})"
                    ) from None
                if deadline is not None and time.monotonic() > deadline:
                    self.terminate()
                    raise ReproError(
                        f"worker process {self.slot} hung past "
                        f"{timeout_s:.0f} s; killed"
                    ) from None

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)

    def stop(self, timeout_s: float = 10.0) -> None:
        if self.process is None:
            return
        if self.process.is_alive():
            try:
                self.inbox.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
            self.process.join(timeout=timeout_s)
        self.terminate()
        for q in (self.inbox, self.outbox):
            if q is not None:
                q.close()
                q.cancel_join_thread()


class ProcessWorkerPool:
    """A fixed set of worker processes, one serving pool each.

    The parent dispatches whole batches: ``run_batch(handle, requests)``
    blocks until that worker finishes, so callers drive parallelism by
    dispatching to several handles concurrently (the asyncio plane
    keeps a free-handle queue).  Bundles are shipped by cache key and
    rehydrated from ``store_root`` inside each process.
    """

    def __init__(
        self,
        processes: int = 2,
        store_root: str | Path | None = None,
        calibration: CalibrationTable | None = None,
        max_resident_bundles: int | None = None,
        start_timeout_s: float = 120.0,
        batch_timeout_s: float | None = None,
        trace_enabled: bool = False,
    ) -> None:
        if processes <= 0:
            raise ReproError("pool needs at least one worker process")
        self.processes = processes
        self.store_root = str(store_root) if store_root is not None else None
        self.calibration_payload = (
            calibration.to_dict() if calibration is not None else None
        )
        self.max_resident_bundles = max_resident_bundles
        self.start_timeout_s = start_timeout_s
        self.batch_timeout_s = batch_timeout_s
        self.trace_enabled = trace_enabled
        self.handles: list[_WorkerHandle] = []
        self.restarts = 0
        self._next_batch_id = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn every worker (concurrently) and wait for readiness."""
        if self._started:
            return
        self.handles = [_WorkerHandle(self, slot) for slot in range(self.processes)]
        for handle in self.handles:
            handle.spawn()
        for handle in self.handles:
            handle.wait_ready(self.start_timeout_s)
        self._started = True

    def close(self) -> None:
        for handle in self.handles:
            handle.stop()
        self.handles = []
        self._started = False

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------

    def _restart(self, handle: _WorkerHandle) -> None:
        handle.terminate()
        handle.spawn()
        handle.wait_ready(self.start_timeout_s)
        handle.stats.restarts += 1
        self.restarts += 1

    def run_batch(
        self,
        handle: _WorkerHandle,
        requests: list[FastPathRunRequest],
        timeout_s: float | None = None,
    ) -> list[FastPathRunResult]:
        """Execute one batch on one worker process (blocking).

        A dead worker is respawned and the batch re-dispatched once;
        thread-safe per handle (the plane dedicates one dispatch slot
        per handle).
        """
        self.start()
        if timeout_s is None:
            timeout_s = self.batch_timeout_s
        last_death: WorkerProcessDied | None = None
        for _attempt in range(2):
            if not handle.alive():
                self._restart(handle)
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            try:
                handle.inbox.put((batch_id, list(requests)))
                while True:
                    reply = handle._next_reply(timeout_s)
                    kind, got_id, payload = reply
                    if kind == "ready" or got_id != batch_id:
                        continue  # stale chatter from a pre-crash life
                    if kind == "error":
                        raise ReproError(
                            f"worker process {handle.slot} failed a batch: {payload}"
                        )
                    handle.stats.batches += 1
                    handle.stats.runs += len(payload)
                    handle.stats.busy_seconds += sum(
                        r.wall_seconds for r in payload
                    )
                    return payload
            except WorkerProcessDied as died:
                last_death = died
        raise ReproError(
            f"worker process {handle.slot} died twice running one batch "
            f"(poison batch?): {last_death}"
        )

    # -- reporting -----------------------------------------------------

    def stats(self) -> dict[int, ProcessStats]:
        return {handle.slot: handle.stats for handle in self.handles}
