"""Command-line interface.

Every construction and check is exposed as a subcommand with JSON (or CSV
polyline) output, suitable for scripting and figure reproduction.  Exit
codes: 0 success, 1 failed check or invalid construction, 2 I/O or parse
errors, 3 resource caps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from fractions import Fraction

from . import __version__, plmap
from .checks import TENT, run_all
from .dial import (
    DialConfig,
    build_dial_map,
    check_lambdas_cap,
    dial_entropy_check,
    find_a_star,
    r_of_a,
)
from .ellone import _check_witness_cap, ell1_witness, gamma_schedule
from .entropy import entropy_bounds, horseshoe_max
from .errors import EntropyBanachError, FormatError, ResourceLimitError
from .plmap import PLMap
from .rational import parse_q, qstr
from .serialize import (
    bounds_to_obj,
    certificate_to_obj,
    dial_config_to_obj,
    dumps,
    pl_from_obj,
    pl_to_obj,
    polyline,
    witness_to_obj,
)
from .spaces import FunctionFamily, horseshoe_combination, independent_points
from .universal import make_schedule, psi, psi_horseshoe


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise FormatError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or too deep nesting
        raise FormatError(f"unreadable JSON in {path}: {exc}") from exc


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_pl(path: str) -> PLMap:
    return pl_from_obj(_load_json(path))


def _cmd_entropy(args) -> int:
    if args.depth < 1:
        raise FormatError(f"--depth must be >= 1, got {args.depth}")
    f = _load_pl(args.input)
    eb = entropy_bounds(f, args.depth)
    _emit(dumps(bounds_to_obj(eb)), args.out)
    return 0


def _cmd_horseshoe(args) -> int:
    f = _load_pl(args.input)
    d, cert = horseshoe_max(f)
    _emit(dumps({"d": d, "certificate": certificate_to_obj(cert)}), args.out)
    return 0


def _cmd_thmb(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or not isinstance(obj.get("members"), list):
        raise FormatError(f"{args.input}: a family needs a 'members' list")
    members = tuple(pl_from_obj(m) for m in obj["members"])
    family = FunctionFamily(members=members, label=obj.get("label", ""))
    if args.grid:
        grid = [parse_q(tok) for tok in args.grid.split(",")]
    else:
        lo = min(m.breakpoints[0] for m in members)
        hi = max(m.breakpoints[-1] for m in members)
        grid = [lo + (hi - lo) * Fraction(k, 32) for k in range(33)]
    pts = independent_points(family, grid)
    f, cert = horseshoe_combination(family, pts)
    payload = {
        "points": [qstr(x) for x in pts.points],
        "determinant": qstr(pts.gram_determinant),
        "combination": pl_to_obj(f),
        "certificate": certificate_to_obj(cert),
        "entropy_lower_bound": cert.rate,
    }
    _emit(dumps(payload), args.out)
    return 0


def _cmd_psi(args) -> int:
    f = _load_pl(args.input)
    parameter = parse_q(args.ratio if args.schedule == "geometric" else args.alpha)
    sched = make_schedule(args.schedule, parameter, args.N)
    g = psi(f, sched)
    cert = psi_horseshoe(f, sched, args.horseshoe) if args.horseshoe else None
    payload = {"embedded": pl_to_obj(g), "certificate": certificate_to_obj(cert)}
    _emit(dumps(payload), args.out)
    if args.polyline:
        _emit(polyline(g, f"psi {args.schedule} N={args.N}"), args.polyline)
    return 0


def _cmd_figure1(args) -> int:
    if args.samples < 0:
        raise FormatError(f"--samples must be >= 0, got {args.samples}")
    sched = make_schedule("geometric", parse_q(args.ratio), args.N)
    g = psi(TENT, sched)
    _emit(polyline(TENT, "source tent map", args.samples)
          + polyline(g, f"embedded copy ladder ratio={args.ratio} N={args.N}",
                     args.samples), args.out)
    return 0


def _cmd_ell1(args) -> int:
    _check_witness_cap(args.steps)  # before the schedule, whose size grows with steps
    schedule = gamma_schedule(args.steps, parse_q(args.tail_factor))
    delta = (Fraction(1, 2 ** max(12, 2 * args.steps + 6)) if args.delta is None
             else parse_q(args.delta))
    report = ell1_witness(delta, args.steps, schedule)
    _emit(dumps(witness_to_obj(report)), args.out)
    if args.polyline:
        _emit(polyline(report.f, f"witness M={args.steps}"), args.polyline)
    return 0


def _cmd_dial(args) -> int:
    a_star = parse_q(args.a_star) if args.a_star else None
    tokens = args.check_lambdas.split(",") if args.check_lambdas else []
    check_lambdas_cap(len(tokens))  # before the a* search, the map and any bracket
    lambdas = [parse_q(tok) for tok in tokens]
    cfg = DialConfig(t=args.t, d=args.d, truncation=args.N,
                     lambda_grid_size=args.lambda_grid,
                     entropy_depth=args.depth, tolerance=args.tol)
    cfg = replace(cfg, a_star=find_a_star(cfg) if a_star is None else a_star)
    est = r_of_a(cfg.a_star, cfg)
    f = build_dial_map(cfg)
    records = dial_entropy_check(cfg, lambdas) if lambdas else []
    payload = {
        "config": dial_config_to_obj(cfg),
        "r_at_a_star": {"value": est.value, "bracket_width": est.bracket_width,
                        "argmax_multiplier": qstr(est.argmax),
                        "precision_warning": est.warning},
        "map": pl_to_obj(f),
        "checks": [
            {
                "lambda": qstr(rec.lam),
                "achieved": bounds_to_obj(rec.achieved) if rec.achieved else None,
                "lambda_star": qstr(rec.lambda_star),
                "nearest_multiplier": (qstr(rec.nearest_multiplier)
                                       if rec.nearest_multiplier is not None
                                       else None),
                "tendency_lower": rec.tendency_lower,
                "scales": [
                    {"n": s.n, "lambda_n": qstr(s.lambda_n),
                     "multiplier": qstr(s.multiplier),
                     "in_window": s.in_window,
                     "diagonal_crossing": s.in_window,
                     "bounds": bounds_to_obj(s.bounds)}
                    for s in rec.scales
                ],
            }
            for rec in records
        ],
    }
    _emit(dumps(payload), args.out)
    if args.polyline:
        _emit(polyline(f, f"dial map t={args.t} d={args.d} N={args.N}"), args.polyline)
    return 0


def _cmd_check(args) -> int:
    started = time.time()
    results = run_all(seed=args.seed)
    for res in results:
        print(res)
    manifest = {"subcommand": "check", "parameters": {"seed": args.seed}, "outputs": [],
                "wall_time": time.time() - started, "library_version": __version__}
    body = {"manifest": manifest, "results": [asdict(r) for r in results]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dumps(body))
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise FormatError, so they take main's one exit path."""

    def error(self, message):
        raise FormatError(message)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--out", default=default,
                        help="write the primary output to this file")


def _subcommand(sub, name: str, func, summary: str,
                capped: bool = False) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    _add_common(p, suppress=True)
    if capped:  # only where the breakpoint cap bounds the work
        p.add_argument("--cap-breakpoints", type=int,
                       help="override the composition breakpoint cap (>= 1)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entropy-banach",
        description="exact piecewise-linear calculus with certified entropy "
                    "bounds, horseshoe builders, isometric embeddings, and an "
                    "entropy dial")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "entropy", _cmd_entropy, "certified entropy bracket of a PL map",
                    capped=True)
    p.add_argument("input", help="PL map JSON file")
    p.add_argument("--depth", type=int, default=8)

    p = _subcommand(sub, "horseshoe", _cmd_horseshoe,
                    "largest certified horseshoe of a PL map")
    p.add_argument("input", help="PL map JSON file")

    p = _subcommand(sub, "thmB", _cmd_thmb,
                    "alternating horseshoe combination from a function family")
    p.add_argument("input", help="family JSON file: {label, members: [...]}")
    p.add_argument("--grid", help="comma-separated rational search grid")

    p = _subcommand(sub, "psi", _cmd_psi,
                    "multiscale isometric embedding of a map on [0,1]")
    p.add_argument("input", help="PL map JSON file")
    p.add_argument("--schedule", choices=("geometric", "hoelder"),
                   default="geometric")
    p.add_argument("--ratio", default="2/3", help="geometric amplitude ratio")
    p.add_argument("--alpha", default="1/2", help="hoelder exponent")
    p.add_argument("--N", type=int, default=8, help="truncation level")
    p.add_argument("--horseshoe", type=int, default=0,
                   help="also certify a horseshoe of this order")
    p.add_argument("--polyline", help="also write a CSV polyline here")

    p = _subcommand(sub, "figure1", _cmd_figure1,
                    "CSV polylines of the tent map and its embedded copy ladder")
    p.add_argument("--ratio", default="2/3")
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--samples", type=int, default=0,
                   help="resample the polylines at this many points")

    p = _subcommand(sub, "ell1", _cmd_ell1,
                    "staged infinite-entropy witness in the sum-norm model", capped=True)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--delta", help="relative ramp half-width of the sign model; step m "
                   "needs delta < 2^-(2m+5) (default 2^-max(12, 2*steps+6))")
    p.add_argument("--tail-factor", default="2", dest="tail_factor")
    p.add_argument("--polyline", help="also write the witness polyline here")

    p = _subcommand(sub, "dial", _cmd_dial,
                    "build the fixed-entropy dial map and check multipliers", capped=True)
    p.add_argument("--t", type=float, required=True, help="target entropy")
    p.add_argument("--d", type=int, default=3, help="odd branch count")
    p.add_argument("--N", type=int, default=12, help="number of scales")
    p.add_argument("--lambda-grid", type=int, default=101, dest="lambda_grid")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--a-star", dest="a_star",
                   help="skip the dial search and use this parameter")
    p.add_argument("--check-lambdas", dest="check_lambdas", default="",
                   help="comma-separated multipliers to check, e.g. 1/2,1,2")
    p.add_argument("--polyline", help="also write the dial-map polyline here")

    p = _subcommand(sub, "check", _cmd_check, "run the full acceptance suite", capped=True)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    return parser


def main(argv=None) -> int:
    cap = plmap.BREAKPOINT_CAP
    try:
        args = build_parser().parse_args(argv)
        override = getattr(args, "cap_breakpoints", None)
        if override is not None:
            if override < 1:
                raise FormatError(f"--cap-breakpoints must be >= 1, got {override}")
            plmap.BREAKPOINT_CAP = override
        return args.func(args)
    except ResourceLimitError as exc:
        return _fail(3, str(exc))
    except FormatError as exc:
        return _fail(2, str(exc))
    except EntropyBanachError as exc:
        return _fail(1, str(exc))
    except OSError as exc:
        return _fail(2, str(exc))
    finally:
        plmap.BREAKPOINT_CAP = cap  # the flag holds for this call only


if __name__ == "__main__":
    sys.exit(main())
