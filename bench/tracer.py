"""Timing wrappers installed on the package's public functions from outside.

A wrapper goes on each traced function and on every package module that
imported that function by name (``entropy.compose``, ``dial.entropy_bounds``,
the package namespace itself, ...), so internal calls are caught without
editing the package.  Each call records a span: function name, start, end,
parent span, the benchmark op it ran under, the counters taken from the
call's arguments or result, and the exception it raised, if any.  Spans are
kept in memory; the caller writes them out when the run ends.  ``remove``
puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "entropy_banach"


def _len_result(args, kwargs, result):
    return len(result)


def _eval_points(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["xs_sorted"])


def _candidates(args, kwargs, result):
    # breakpoints offered to the hull search; above the package's candidate
    # limit the search itself falls back to a reduced set
    return len(args[0]) if args else len(kwargs["f"])


#: (module, function) -> counters as (metric suffix, extractor) pairs
TARGETS = {
    ("plmap", "compose"): (("out_breakpoints", _len_result),),
    ("plmap", "eval_many"): (("points", _eval_points),),
    ("plmap", "linear_combination"): (("out_breakpoints", _len_result),),
    ("plmap", "lap_count"): (),
    ("entropy", "entropy_bounds"): (
        ("lower_from_horseshoe", lambda a, k, r: int(r.lower_witness is not None)),),
    ("entropy", "horseshoe_max"): (
        ("candidates", _candidates), ("hits", lambda a, k, r: int(r[0] >= 2))),
    ("entropy", "entropy_lower_markov"): (
        ("zero_results", lambda a, k, r: int(r == 0.0)),),
    ("entropy", "validate_certificate"): (),
    ("dial", "r_of_a"): (),
    ("dial", "dial_entropy_check"): (),
    ("dial", "build_dial_map"): (),
    ("universal", "psi"): (),
    ("universal", "psi_horseshoe"): (),
    ("ellone", "ell1_witness"): (),
    ("ellone", "build_rademacher"): (),
    ("spaces", "independent_points"): (),
    ("spaces", "horseshoe_combination"): (),
    ("spaces", "cropped_polynomial"): (),
    ("spaces", "sin_scaled"): (),
    ("serialize", "bounds_to_obj"): (),
    ("serialize", "pl_to_obj"): (),
    ("serialize", "dumps"): (),
}


class Tracer:
    """Installs wrappers, records spans while enabled, and restores originals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op, counts, error)
        self.op = -1
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, original, counters):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, start, clock(), parent, self.op, (),
                              type(exc).__name__)
                raise
            finally:
                stack.pop()
            end = clock()
            counts = tuple(get(args, kwargs, result) for _, get in counters)
            spans[idx] = (name, start, end, parent, self.op, counts, None)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        """Wrap every traced function under each name the package binds it to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for (mod_name, func_name), counters in TARGETS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func_name)
            wrapper = self._wrap(f"{mod_name}.{func_name}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        """Put every original function back where it was found."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer calls, self time and counters from recorded spans.

    Self time is a span's duration minus the time its direct children cover;
    children of one span never overlap, because the run is single-threaded.
    """
    child_time = [0.0] * len(spans)
    under_r_of_a = [False] * len(spans)
    for i, (_name, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:  # parents are recorded before their children
            child_time[parent] += end - start
            under_r_of_a[i] = under_r_of_a[parent] or spans[parent][0] == "dial.r_of_a"

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, list[int]] = {}
    max_candidates = cap_hits = brackets_under_r = 0
    for i, (name, start, end, _parent, _op, counts, error) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if counts:
            acc = sums.setdefault(name, [0] * len(counts))
            for k, value in enumerate(counts):
                acc[k] += value
        if name == "entropy.horseshoe_max" and counts:
            max_candidates = max(max_candidates, counts[0])
        elif name == "entropy.entropy_lower_markov" and error == "ResourceLimitError":
            cap_hits += 1
        elif name == "entropy.entropy_bounds" and under_r_of_a[i]:
            brackets_under_r += 1

    out: dict[str, float] = {}
    for (mod_name, func_name), counters in TARGETS.items():
        key = f"{mod_name}.{func_name}"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_s[key]
        for k, (suffix, _) in enumerate(counters):
            out[f"{key}.{suffix}"] = sums.get(key, [0] * len(counters))[k]

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    hs, mk, eb = ("entropy.horseshoe_max", "entropy.entropy_lower_markov",
                  "entropy.entropy_bounds")
    out[f"{hs}.hit_ratio"] = ratio(out[f"{hs}.hits"], calls[hs])
    out[f"{hs}.max_candidates"] = max_candidates
    out[f"{mk}.zero_ratio"] = ratio(out[f"{mk}.zero_results"], calls[mk])
    out[f"{mk}.cap_hits"] = cap_hits
    out["entropy.lower_from_horseshoe_ratio"] = ratio(
        out[f"{eb}.lower_from_horseshoe"], calls[eb])
    out["dial.entropy_bounds_under_r_of_a"] = brackets_under_r
    out["dial.brackets_per_r_of_a"] = ratio(brackets_under_r, calls["dial.r_of_a"])
    return out


def top_level_seconds(spans: list[tuple]) -> float:
    """Time covered by spans that no other span encloses."""
    return sum(end - start for _n, start, end, parent, *_r in spans if parent < 0)


def covered_seconds(spans: list[tuple], names: set[str]) -> float:
    """Time inside any span named in ``names``, counting nested ones once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] in names
        if name in names and not inside[i]:
            total += end - start
    return total
