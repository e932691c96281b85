"""Benchmark of the entropy-banach package: seeded, closed-loop, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload brackets --seed 1 --seconds 25 --trace 0

Workloads are ``brackets``, ``dial`` and ``constructions`` (see
``bench/SPEC.md``).  A run makes passes of the workload's fixed operation
list, each in a fresh child interpreter so the package's caches start cold;
as many passes as ``--seconds`` holds at the workload's nominal pass time.
Before the first pass and after each one it starts the interpreter a few
times more to time set-up (interpreter start, ``import entropy_banach``,
seeded input generation).  ``setup_s`` is the median set-up sample and
each op's latency is its best over the passes.  With ``--trace 1`` one
traced pass follows and the per-layer metrics come from it.  Every output
is checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
#: set-up samples per run, spread over the gaps before and after the passes
SETUP_SAMPLES = 12
#: every run must end well inside the three minutes a run may take
RUN_LIMIT_S = 170.0
#: seconds one full-size pass takes on a shared 2-core VM; fixes the pass count
NOMINAL_PASS_S = {"brackets": 7.5, "dial": 30.0, "constructions": 5.0}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
                    "peak_rss_mb": "MB"}
#: the end-to-end metrics of BENCHMARK.json; latency_p50_s is only printed,
#: since on ``dial`` it is the time of a single op
GATED = ("setup_s", "wall_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one child to completion; return its wall time and its report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Set-up samples, the untraced passes and, with ``trace``, one traced pass."""
    if not (ROOT / "src" / "entropy_banach" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]

    def setups(count: int) -> list[float]:
        return [_worker(base + ["--setup-only"], deadline)[0] for _ in range(count)]

    # the set-up samples are spread over the whole run: the machine's speed
    # drifts for seconds at a time, and their median should span that drift
    # rather than one moment of it
    passes = max(1, int(seconds / NOMINAL_PASS_S[workload]))
    per_gap = -(-SETUP_SAMPLES // (passes + 1))
    setup, untraced = setups(per_gap), []
    for _ in range(passes):
        untraced.append(_worker(base, deadline)[1])
        setup += setups(per_gap)
    traced = [_worker(base + ["--trace"], deadline)[1]] if trace else []
    return {"setup": setup, "untraced": untraced, "traced": traced}


def summarize(raw: dict, trace: bool) -> tuple[dict, list[str]]:
    """The contract's result object plus human-readable lines for every metric."""
    untraced, traced = raw["untraced"], raw["traced"]
    everything = untraced + traced
    attempted = sum(len(r["ops"]) for r in everything)
    failed = sum(1 for r in everything for op in r["ops"] if op[2] is not None)
    digests = {r["digest"] for r in everything}
    correct = failed == 0 and len(digests) == 1

    # an op's latency is its best over the passes: every pass runs the same
    # inputs, and on a shared machine interference only ever adds time
    lat = [min(r["ops"][i][1] for r in untraced) for i in range(len(untraced[0]["ops"]))]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    e2e = {
        "setup_s": statistics.median(raw["setup"]),
        "wall_s": sum(lat),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    machine = untraced[0]["machine"]
    lines = [
        f"machine: nproc={machine['nproc']} python={machine['python']} "
        f"numpy={machine['numpy']} package={machine['package']}",
        "setup_s samples: " + ", ".join(f"{s:.4f}" for s in raw["setup"]) + " s",
        f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(lat)} ops per "
        "pass; one client, closed loop; op latency = best over the untraced passes",
        "untraced pass walls: " + ", ".join(f"{r['wall_s']:.3f}" for r in untraced) + " s",
    ]
    for name, value in e2e.items():
        lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    lines.append(f"latency_p90_s = {p90:.6g} s ({len(lat)} ops, "
                 f"{sum(1 for v in lat if v > p90)} beyond it)")
    lines.append(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    widths = untraced[0]["bracket_widths"]
    if widths:
        lines.append(f"bracket_width_mean = {statistics.fmean(widths):.6g} nats "
                     f"({len(widths)} brackets)")
    if "dial_residual" in untraced[0]["extras"]:
        lines.append(f"dial_residual = {untraced[0]['extras']['dial_residual']:.6g} nats")
    for r in everything:
        for name, _seconds, error in r["ops"]:
            if error is not None:
                lines.append(f"FAILED {name}: {error}")
    if len(digests) > 1:
        lines.append("FAILED: passes of one seed serialized different outputs")

    if trace:
        layers = dict(traced[0]["layers"])
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        layers["trace.wall_s"] = traced[0]["wall_s"]
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced[0]["wall_s"] - untraced_wall
        layers["trace.outside_spans_s"] = traced[0]["outside_spans_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]} for k in GATED}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") or name.endswith("per_r_of_a") else "count"


def _terminate(signum, frame):
    # raising here unwinds subprocess.run, which kills and reaps the child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entropy-banach benchmark")
    parser.add_argument("--workload", required=True, choices=list(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op list, for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        result, lines = summarize(raw, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
