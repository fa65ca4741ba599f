"""The repository benchmark: one command, two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow-mobilenet --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric of ``BENCHMARK.json``, with ``--trace 1`` every
per-layer one.  The lines before it record the environment and the
simulated-vs-paper comparison.  The full result, and with ``--trace 1``
the spans, are also written under ``.perfbench/``.  The exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK, environment, import_src, stop_children  # noqa: E402

WORKLOADS = ("flow-mobilenet", "serve-burst-1p")


def _declared(trace: bool) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its workers (see the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    declared = _declared(trace)
    import_src()
    WORK.mkdir(exist_ok=True)

    import flow
    import serving

    env = environment(args.workload, args.seed)
    try:
        if args.workload == "flow-mobilenet":
            result = flow.run(args.seed, args.seconds, trace)
            if trace:
                result["layers"].update(dict.fromkeys(serving.LAYER_NAMES, 0.0))
        else:
            result = serving.run(args.seed, args.seconds, trace)
    finally:
        stop_children()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    values = result["layers"] if trace else result["end_to_end"]
    if trace:
        values.pop("spans").dump(WORK / "spans" / f"{stem}.jsonl")
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"perfbench: no value for declared metrics {missing}")
    bad = sorted(name for name in declared if not math.isfinite(values[name]))
    if bad:
        raise SystemExit(f"perfbench: non-finite values for {bad}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
    }
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {"env": env, "paper": result["paper"], **summary, "end_to_end": result["end_to_end"]}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({"paper": result["paper"]}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
