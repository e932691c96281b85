"""Traced-run report of all three workloads in one command.

    python3 bench/report.py --seed 1 --seconds 25

For each workload this makes the passes of ``run.py --trace 1`` and
prints every end-to-end metric with its unit, the per-module self-time
shares of the traced pass, the inclusive shares of the layers the benchmark
was designed around next to the cProfile shares that motivated it, the
Markov zero ratio and the dial's brackets per ``r_of_a`` with their bases,
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

import run
import tracer

#: workload -> (label, traced functions, cumulative share seen under cProfile)
PROFILE_SHARES = {
    "brackets": [("compose", {"plmap.compose"}, 0.36),
                 ("Markov scan", {"entropy.entropy_lower_markov"}, 0.41),
                 ("horseshoe_max", {"entropy.horseshoe_max"}, 0.18)],
    "dial": [("Markov scan", {"entropy.entropy_lower_markov"}, 0.79),
             ("compose", {"plmap.compose"}, 0.10)],
    "constructions": [("linear_combination + eval_many",
                       {"plmap.linear_combination", "plmap.eval_many"}, 0.89)],
}


def module_shares(layers: dict, wall: float) -> dict[str, float]:
    per_module: dict[str, float] = defaultdict(float)
    for key, value in layers.items():
        if key.endswith(".self_s"):
            per_module[key.split(".")[0]] += value
    return {module: seconds / wall for module, seconds in per_module.items()}


def report(workload: str, seed: int, seconds: float) -> list[str]:
    raw = run.measure(workload, seed, seconds, trace=True)
    _, lines = run.summarize(raw, trace=False)
    result, _ = run.summarize(raw, trace=True)
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    wall = layers["trace.wall_s"]
    out = [f"== {workload} (seed {seed}) =="] + lines
    out.append(f"correct={result['correct']} attempted={result['attempted']} "
               f"failed={result['failed']}")
    out.append(f"tracing overhead: {layers['trace.overhead_s']:+.3f} s "
               f"(traced {wall:.3f} s vs untraced {layers['trace.untraced_wall_s']:.3f} s)")
    shares = module_shares(layers, wall)
    shares["(outside traced functions)"] = layers["trace.outside_spans_s"] / wall
    out.append("self-time share of the traced wall, by module:")
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        out.append(f"  {module:28s} {share:7.1%}")
    with open(run.ROOT / "bench" / "traces" / f"{workload}-seed{seed}.json") as handle:
        spans = [tuple(s) for s in json.load(handle)["spans"]]
    out.append("inclusive share vs the cProfile share quoted when the workload was chosen:")
    for label, names, quoted in PROFILE_SHARES[workload]:
        share = tracer.covered_seconds(spans, names) / wall
        flag = "  <- differs widely" if abs(share - quoted) > 0.15 else ""
        out.append(f"  {label:32s} traced {share:6.1%}  cProfile ~{quoted:.0%}{flag}")
    mk = "entropy.entropy_lower_markov"
    out.append(f"{mk}.zero_ratio = {layers[mk + '.zero_ratio']:.4f} "
               f"({layers[mk + '.zero_results']:.0f} of {layers[mk + '.calls']:.0f} calls "
               f"returned 0.0; {layers[mk + '.cap_hits']:.0f} hit the partition cap)")
    out.append(f"dial.brackets_per_r_of_a = {layers['dial.brackets_per_r_of_a']:.2f} "
               f"({layers['dial.entropy_bounds_under_r_of_a']:.0f} entropy_bounds calls "
               f"under {layers['dial.r_of_a.calls']:.0f} r_of_a calls)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced report of every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    for workload in PROFILE_SHARES:
        try:
            lines = report(workload, args.seed, args.seconds)
        except run.BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
