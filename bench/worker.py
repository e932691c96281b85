"""One benchmark pass in a fresh interpreter.

Builds the seeded inputs of one workload, runs its operations in order,
checks every output exactly, and prints one JSON line: per-op latencies and
failures, a digest of every serialized output, bracket widths, the process's
own peak RSS and, with ``--trace``, the per-layer metrics from the tracer's
spans (the spans themselves go to ``bench/traces/``).  ``bench/run.py``
starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / "bench" / "traces"


def _import_package():
    """Import the package, refusing any copy that is not this checkout's."""
    import entropy_banach

    expected = (ROOT / "src" / "entropy_banach").resolve()
    if Path(entropy_banach.__file__).resolve().parent != expected:
        raise SystemExit(f"error: imported {entropy_banach.__file__}, expected {expected}")
    return entropy_banach


def run_ops(ops, tracer=None) -> dict:
    """Run ops in order; time each call, then check its output untimed."""
    digest = hashlib.sha256()
    records, widths, extras = [], [], {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        start = time.perf_counter()
        try:
            result, text = op.run()
            error = None
        except Exception as exc:  # a failed op is counted, the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
            text = f"error: {type(exc).__name__}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            widths += [b.upper - b.lower for b in op.brackets(result)]
            extras.update(op.extras(result))
        digest.update(op.name.encode() + b"\0" + text.encode() + b"\0")
        records.append([op.name, seconds, error])
    return {"ops": records, "wall_s": sum(r[1] for r in records),
            "digest": digest.hexdigest(), "bracket_widths": widths, "extras": extras}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after building the inputs")
    args = parser.parse_args(argv)

    package = _import_package()
    import numpy

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        print(f"error: unknown workload {args.workload!r} or size {args.size!r}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.size)
    if args.setup_only:
        print(json.dumps({"ops": len(ops)}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        report = run_ops(ops, tracer)
    finally:
        if tracer is not None:
            tracer.remove()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                         "numpy": numpy.__version__, "package": package.__version__}
    if tracer is not None:
        spans = tracer.spans
        report["layers"] = tracing.layer_metrics(spans)
        report["outside_spans_s"] = report["wall_s"] - tracing.top_level_seconds(spans)
        TRACE_DIR.mkdir(exist_ok=True)
        with open(TRACE_DIR / f"{args.workload}-seed{args.seed}.json", "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts", "error"],
                       "ops": [op.name for op in ops], "spans": spans}, handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
