"""Pieces every workload shares: environment record, spans, statistics.

Everything here is measured from outside the program: spans are taken
around calls into its public functions, never inside them.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: The checkout root (``perfbench/`` sits directly under it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, results and span dumps; never committed.
WORK = ROOT / ".perfbench"

FREQUENCY_HZ = 100e6  # the paper's SoC clock

#: Thread-count variables that change BLAS behaviour.  Recorded, never set.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Paper-reported inference time at 100 MHz, for the informational
#: simulated-vs-paper comparison.  Models absent here have no paper
#: number and are reported as unvalidated.
PAPER_MS = {"lenet5": 4.8, "resnet18": 16.2}


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def paper_check(model: str, cycles: int) -> dict:
    """Simulated time next to the paper's number (informational, ungated)."""
    sim_ms = cycles / FREQUENCY_HZ * 1e3
    row = {"model": model, "cycles": cycles, "sim_ms": sim_ms}
    paper = PAPER_MS.get(model)
    if paper is None:
        row["status"] = "unvalidated: the paper reports no number for this model"
    else:
        row["paper_ms"] = paper
        row["error_pct"] = (sim_ms - paper) / paper * 100
    return row


#: Iterations of the host-speed probe loop, and about the loop's time
#: on an unloaded host of the 2-vCPU VM class the bounds were set on.
PROBE_ITERATIONS = 100_000
REFERENCE_PROBE_S = 0.006


#: Every probe this process has taken, in seconds.
PROBES: list[float] = []


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now (mean of 5)."""
    began = time.perf_counter()
    for _ in range(5):
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
    seconds = (time.perf_counter() - began) / 5
    PROBES.append(seconds)
    return seconds


def run_slowdown() -> float:
    """How much slower than the reference the host ran over this run: the
    median of every probe taken so far over ``REFERENCE_PROBE_S``.

    Operations too long for :class:`HostTimer` are divided by it.  The
    host's speed changes within such an operation, but over several
    minutes it drifts by up to 1.5x, and the median of the run's probes
    follows that drift.
    """
    return median(PROBES) / REFERENCE_PROBE_S


class HostTimer:
    """Times a few seconds of compute-bound work at the reference speed.

    A shared 2-vCPU VM host's speed drifts by up to 1.6x over tens of seconds.
    ``seconds`` is the wall time scaled by ``REFERENCE_PROBE_S`` over
    the mean of a probe just before and just after the work, so it
    reads as seconds on an unloaded host; ``raw_s`` keeps the wall
    time.  Only short, repeated measurements use it: over a long
    operation the speed changes within, and two probes at its ends add
    error instead of removing it.
    """

    def __enter__(self) -> "HostTimer":
        self._probe = host_probe()
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw_s = time.perf_counter() - self._began
        speed = (self._probe + host_probe()) / 2
        self.seconds = self.raw_s * REFERENCE_PROBE_S / speed


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    Worker processes still alive are killed and joined.  Then the
    resource tracker that ``multiprocessing`` starts for the workers'
    queues is stopped and waited for: left alone it outlives this
    process, and once it ends nothing reaps it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is None:
        return
    # Closing the tracker's pipe makes it exit.
    os.close(tracker._fd)
    tracker._fd = None
    if tracker._pid is not None:
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def import_src() -> None:
    """Make the program importable from the checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Spans:
    """Spans around calls into the program, kept in memory.

    Each span is a dict with ``name``, ``start``, ``end``, the index of
    its parent span (the innermost span open when it started) and any
    counts read off the call's arguments or result.  The wrapped calls
    all run on the main thread.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of the spans now open

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(result, args)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.update(count(result, args))
            return result

        return wrapper

    @contextmanager
    def wrapping(self, targets):
        """Wrap ``(owner, attribute, span name, count)`` targets for the
        duration of the block, restoring the originals on exit."""
        saved = []
        try:
            for owner, attribute, name, count in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.timed(name, original, count))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def total(self, name: str) -> float:
        """Seconds spent in every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, key: str) -> int:
        """Sum of one count over every span that carries it."""
        return sum(s.get(key, 0) for s in self.spans)

    def attribution(self, name: str) -> tuple[float, float]:
        """(unattributed seconds, children coverage) of spans ``name``:
        their time minus the time their direct children cover."""
        total = self.total(name)
        covered = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] is not None and self.spans[s["parent"]]["name"] == name
        )
        return total - covered, (covered / total if total else 0.0)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def layer_targets() -> list[tuple]:
    """The program's public functions the traced run wraps, on the
    module objects (or classes) where callers look them up."""
    import repro.baremetal.pipeline as pipeline
    import repro.compiler.compile as compile_module
    import repro.store.serialize as serialize
    import repro.store.store as store_module
    from repro.core.soc import Soc
    from repro.vp.runtime import NvdlaRuntime

    def loadable_counts(loadable, _args):
        return {
            "schedule_ops": len(loadable.schedule.ops),
            "weight_bytes": len(loadable.weight_blob),
        }

    def trace_counts(commands, args):
        trace = args[0]
        return {
            "csb_txns": len(trace.csb),
            "dbb_txns": len(trace.dbb),
            "config_commands": len(commands),
        }

    def soc_counts(result, _args):
        return {"sim_cycles": result.cycles, "instructions": result.stats.instructions}

    return [
        (pipeline, "compile_network", "compiler.compile", loadable_counts),
        (compile_module, "calibrate_network", "nn.quantize.calibrate", None),
        (compile_module, "lower_network", "compiler.lower", None),
        (compile_module, "fuse_descriptor_chains", "compiler.fuse", None),
        (compile_module, "pack_schedule_weights", "compiler.pack_weights", None),
        (compile_module, "allocate_memory", "compiler.allocate", None),
        (NvdlaRuntime, "execute", "vp.execute", None),
        (pipeline, "trace_to_config", "baremetal.trace_to_config", trace_counts),
        (pipeline, "generate_assembly", "baremetal.codegen", None),
        (pipeline, "assemble", "riscv.assemble",
         lambda program, _args: {"program_words": len(program.words)}),
        (pipeline, "extract_initial_memory", "baremetal.extract", None),
        (store_module.BundleStore, "put_bundle", "store.put", None),
        (store_module.BundleStore, "get_bundle", "store.get", None),
        (store_module, "serialize_bundle", "store.serialize",
         lambda blob, _args: {"object_bytes": len(blob)}),
        (store_module, "deserialize_bundle", "store.deserialize", None),
        (serialize, "parse_trace", "store.parse_trace", None),
        (Soc, "run_inference", "soc.run", soc_counts),
    ]


def layer_metrics(spans: Spans) -> dict:
    """Per-layer times, counts and attribution of the build, store and
    cycle-accurate layers.  ``build`` is the span the workload opens
    around the offline flow; the others come from :func:`layer_targets`."""
    metrics = {
        f"{name}_s": spans.total(name)
        for name in (
            "nn.quantize.calibrate", "compiler.compile", "compiler.lower",
            "compiler.fuse", "compiler.pack_weights", "compiler.allocate",
            "vp.execute", "baremetal.trace_to_config", "baremetal.codegen",
            "baremetal.extract", "riscv.assemble", "store.put",
            "store.serialize", "store.get", "store.deserialize",
            "store.parse_trace", "soc.run",
        )
    }
    for key in ("schedule_ops", "weight_bytes"):
        metrics[f"compiler.{key}"] = spans.count(key)
    for key in ("csb_txns", "dbb_txns"):
        metrics[f"vp.{key}"] = spans.count(key)
    metrics["baremetal.config_commands"] = spans.count("config_commands")
    metrics["riscv.program_words"] = spans.count("program_words")
    metrics["store.object_bytes"] = spans.count("object_bytes")
    metrics["soc.sim_cycles"] = cycles = spans.count("sim_cycles")
    metrics["soc.instructions"] = spans.count("instructions")
    metrics["soc.host_ns_per_sim_cycle"] = (
        metrics["soc.run_s"] * 1e9 / cycles if cycles else 0.0
    )
    for parent, prefix in (
        ("build", "build"),
        ("compiler.compile", "compiler"),
        ("store.put", "store.put"),
        ("store.get", "store.get"),
    ):
        unattributed, coverage = spans.attribution(parent)
        metrics[f"{prefix}.unattributed_s"] = unattributed
        metrics[f"{prefix}.coverage"] = coverage
    return metrics
