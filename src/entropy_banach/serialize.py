"""JSON and CSV exchange formats.

Rationals travel as decimal-free ``"p/q"`` strings (plain integers are
accepted as shorthand on input); entropy rates are JSON floats.  PL maps
are the only input; brackets, certificates, witnesses and dial
configurations are output only.
"""

from __future__ import annotations

import json
import math

from .dial import DialConfig
from .ellone import WitnessReport, WitnessStep
from .entropy import EntropyBounds, HorseshoeCertificate
from .errors import FormatError
from .plmap import IntervalQ, PLMap, eval_many, make_pl
from .rational import parse_q, qstr


def pl_to_obj(f: PLMap) -> dict:
    return {"breakpoints": [qstr(x) for x in f.breakpoints],
            "values": [qstr(y) for y in f.values]}


def pl_from_obj(obj) -> PLMap:
    """The PL map of a decoded JSON object.

    :class:`FormatError` when ``obj`` is not an object with 'breakpoints'
    and 'values' lists of rationals; ``make_pl`` checks the map itself.
    """
    if not (isinstance(obj, dict) and isinstance(obj.get("breakpoints"), list)
            and isinstance(obj.get("values"), list)):
        raise FormatError("a PL map object needs 'breakpoints' and 'values' lists")
    try:
        xs = [parse_q(x) for x in obj["breakpoints"]]
        ys = [parse_q(y) for y in obj["values"]]
    except FormatError as exc:
        raise FormatError(f"PL map: {exc}") from exc
    return make_pl(xs, ys)


def interval_to_obj(iv: IntervalQ) -> list[str]:
    return [qstr(iv.lo), qstr(iv.hi)]


def certificate_to_obj(cert: HorseshoeCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {"d": cert.d, "k": cert.iterate,
            "intervals": [interval_to_obj(iv) for iv in cert.intervals]}


def bounds_to_obj(eb: EntropyBounds) -> dict:
    upper = eb.upper if math.isfinite(eb.upper) else None
    return {"lower": eb.lower, "upper": upper, "depth": eb.depth_used,
            "certificate": certificate_to_obj(eb.lower_witness)}


def witness_step_to_obj(step: WitnessStep) -> dict:
    return {
        "m": step.m,
        "n": step.n_m,
        "epsilon": qstr(step.epsilon),
        "J": interval_to_obj(step.J),
        "window": qstr(step.window),
        "rows": list(step.rows),
        "points": [qstr(p) for p in step.points],
        "beta": [qstr(b) for b in step.beta],
        "alpha": [qstr(a) for a in step.alpha],
        "oscillation_prev": qstr(step.oscillation_prev),
        "tail": qstr(step.tail),
        "certificate": certificate_to_obj(step.certificate),
    }


def witness_to_obj(report: WitnessReport) -> dict:
    return {
        "x0": qstr(report.x0),
        "coefficient_l1_norm": qstr(report.coefficient_l1_norm),
        "f": pl_to_obj(report.f),
        "steps": [witness_step_to_obj(s) for s in report.steps],
    }


def dial_config_to_obj(cfg: DialConfig) -> dict:
    return {
        "t": cfg.t,
        "d": cfg.d,
        "a_star": qstr(cfg.a_star) if cfg.a_star is not None else None,
        "truncation": cfg.truncation,
        "lambda_grid_size": cfg.lambda_grid_size,
        "entropy_depth": cfg.entropy_depth,
        "tolerance": cfg.tolerance,
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def polyline(f: PLMap, label: str, samples: int = 0) -> str:
    """CSV polyline ``x,y`` with a ``# label`` header.

    With ``samples`` > 0 the map is resampled uniformly over its domain;
    otherwise the exact breakpoints are emitted.
    """
    if samples > 0:
        lo, hi = f.breakpoints[0], f.breakpoints[-1]
        step = (hi - lo) / samples
        points = [lo + k * step for k in range(samples + 1)]
    else:
        points = f.breakpoints
    rows = (f"{float(x)!r},{float(y)!r}\n" for x, y in zip(points, eval_many(f, points)))
    return f"# {label}\n" + "".join(rows)
