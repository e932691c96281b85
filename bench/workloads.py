"""Seeded inputs, operations and output checks of the benchmark workloads.

``build(workload, seed, size)`` turns a seed into a fixed list of operations.
An operation is one call path a user of the package runs, such as the work of
a CLI subcommand or one public construction, and it is timed as a whole,
serialization included.  Its check re-verifies the output exactly and runs
outside the timed region.  Operations reach the package through module
attributes at call time, so the tracer's wrappers see every call.

Seeds change every input.  The cost of a bracket is heavy-tailed in the map
(random maps, sampled logistic maps), so ``brackets`` places fixed maps in
seeded affine charts: ``h f h^-1`` with ``h(x) = s x + t`` has the same
dynamics, lap counts and entropy as ``f``, so every seed does the same work
on different numbers and a run's time and memory are steady.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import entropy_banach as eb
from entropy_banach import serialize
from entropy_banach.errors import DependencyError
from entropy_banach.plmap import pl_equal

WORKLOADS = ("brackets", "dial", "constructions")
SIZES = ("full", "tiny")

#: seed of the fixed map catalogue of the ``brackets`` workload
CATALOGUE_SEED = 20110601
#: theta(k/64, 3) maps of the ``brackets`` workload, one from each third of 33..60
THETA_K = (37, 46, 55)
DEPTH = 8


@dataclass
class Op:
    """One timed call path plus the exact check of its output."""

    name: str
    run: Callable[[], tuple[object, str]]  # -> (result, serialized text)
    check: Callable[[object], str | None]  # -> None, or why the output is wrong
    brackets: Callable[[object], list] = field(default=lambda result: [])
    extras: Callable[[object], dict] = field(default=lambda result: {})


# --- shared checks --------------------------------------------------------------

def _bracket_problem(f, b) -> str | None:
    if not b.lower <= b.upper:
        return f"inverted bracket [{b.lower}, {b.upper}]"
    if b.lower_witness is not None and not eb.validate_certificate(f, b.lower_witness):
        return "lower-bound certificate fails exact validation"
    return None


def _bounds_text(b) -> str:
    return serialize.dumps(serialize.bounds_to_obj(b))


# --- brackets: the CLI ``entropy`` path -----------------------------------------

def _conjugate(f, s: Fraction, t: Fraction):
    """h f h^-1 for h(x) = s x + t: the same dynamics in another chart."""
    xs = [s * x + t for x in f.breakpoints]
    ys = [s * y + t for y in f.values]
    if s < 0:
        xs.reverse()
        ys.reverse()
    return eb.make_pl(xs, ys)


def _chart(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A reflection or not, and an integer shift: numbers keep their denominators."""
    return Fraction(rng.choice((-1, 1))), Fraction(rng.randint(-8, 8))


def _grid_map(rng: random.Random, pieces: int):
    xs = [0] + sorted(rng.sample(range(1, 64), pieces - 1)) + [64]
    ys = [rng.randint(0, 64) for _ in xs]
    return eb.make_pl([Fraction(x, 64) for x in xs], [Fraction(y, 64) for y in ys])


def _full_branch(widths: list[int], start: int):
    """Full branches alternating between 0 and 1 over cells of the given widths."""
    total = sum(widths)
    xs, acc = [Fraction(0)], 0
    for w in widths:
        acc += w
        xs.append(Fraction(acc, total))
    return eb.make_pl(xs, [(start + k) % 2 for k in range(len(xs))])


def _anchors():
    """(map, d) pairs whose entropy is exactly log d: a tent and full 3-branch maps."""
    return [(_full_branch([1, 2], 0), 2), (_full_branch([1, 1, 1], 0), 3),
            (_full_branch([1, 2, 1], 1), 3)]


def _catalogue():
    """Random 3-8-piece grid maps and a logistic sample, fixed for every seed."""
    rng = random.Random(CATALOGUE_SEED)
    maps = [_grid_map(rng, pieces) for pieces in range(3, 9)]
    unit = eb.IntervalQ(Fraction(0), Fraction(1))
    maps.append(eb.sample_pl(lambda x: 3.74 * x * (1 - x), unit, 17))
    return maps


def _bracket_op(name: str, f, exact_d: int | None = None) -> Op:
    def run():
        b = eb.entropy_bounds(f, DEPTH)
        return b, _bounds_text(b)

    def check(b):
        problem = _bracket_problem(f, b)
        if problem is None and exact_d is not None:
            h = math.log(exact_d)
            if not b.lower - 1e-12 <= h <= b.upper + 1e-12:
                problem = f"bracket [{b.lower}, {b.upper}] misses log {exact_d}"
        return problem

    return Op(name, run, check, lambda b: [b])


def _brackets(rng: random.Random, size: str) -> list[Op]:
    maps = [(f"anchor{i}", f, d) for i, (f, d) in enumerate(_anchors())]
    thetas = THETA_K[:1] if size == "tiny" else THETA_K
    maps += [(f"theta-{k}/64", eb.theta(Fraction(k, 64), 3), None) for k in thetas]
    if size == "full":
        maps += [(f"catalogue{i}", f, None) for i, f in enumerate(_catalogue())]
    # a fixed order: the heap's high-water mark, and so peak RSS, depends on it
    return [_bracket_op(name, _conjugate(f, *_chart(rng)), d) for name, f, d in maps]


# --- dial: the CLI ``dial`` command at a fixed a*, the vanishing check, an r(a) probe ---

A_STAR = Fraction(37, 64)
T = math.log(2)
DIALED = (Fraction(1, 2), Fraction(1), Fraction(2))
VANISHING = Fraction(18, 25)
#: probes a = k/64 near a* = 37/64 but not equal to it: they share no cache
#: entry with a*, and their peak memory stays under that of the dial command
PROBE_K = (33, 34, 35, 36, 38)


def _dial_config(size: str):
    if size == "tiny":
        return eb.DialConfig(t=T, d=3, a_star=A_STAR, truncation=4, lambda_grid_size=3,
                             entropy_depth=3, tolerance=0.2)
    return eb.DialConfig(t=T, d=3, a_star=A_STAR, truncation=12, lambda_grid_size=21,
                         entropy_depth=DEPTH, tolerance=1e-2)


def _estimate_obj(est) -> dict:
    return {"value": est.value, "bracket_width": est.bracket_width,
            "argmax_multiplier": str(est.argmax), "precision_warning": est.warning}


def _estimate_problem(est, cfg) -> str | None:
    if not 0.0 <= est.value <= math.log(cfg.d) + 1e-12:
        return f"r(a) = {est.value} outside [0, log d]"
    if not est.bracket_width >= 0.0:
        return f"negative bracket width {est.bracket_width}"
    if not Fraction(9, 10) <= est.argmax <= Fraction(10, 9):
        return f"argmax multiplier {est.argmax} outside the window"
    return None


def _records_obj(records) -> list:
    return [{"lambda": str(rec.lam),
             "achieved": serialize.bounds_to_obj(rec.achieved) if rec.achieved else None,
             "scales": [{"n": s.n, "multiplier": str(s.multiplier), "in_window": s.in_window,
                         "bounds": serialize.bounds_to_obj(s.bounds)} for s in rec.scales]}
            for rec in records]


def _scale_problem(cfg, rec, vanishing: bool) -> str | None:
    """Valid scale brackets; off-window scales report lower 0 (and upper <= 0.05)."""
    for s in rec.scales:
        f = eb.scale(eb.theta(cfg.a_star, cfg.d), s.multiplier)
        problem = _bracket_problem(f, s.bounds)
        if problem:
            return f"lambda={rec.lam}, scale {s.n}: {problem}"
        if vanishing and not s.in_window and (s.bounds.lower != 0.0
                                              or s.bounds.upper > 5e-2):
            return (f"lambda={rec.lam}: off-window scale {s.n} reports "
                    f"[{s.bounds.lower}, {s.bounds.upper}]")
    return None


def _dial_command_op(cfg) -> Op:
    """What ``entropy-banach dial --a-star 37/64 --check-lambdas 1/2,1,2`` computes."""
    def run():
        est = eb.r_of_a(cfg.a_star, cfg)
        f = eb.build_dial_map(cfg)
        records = eb.dial_entropy_check(cfg, list(DIALED))
        payload = {"config": serialize.dial_config_to_obj(cfg),
                   "r_at_a_star": _estimate_obj(est), "map": serialize.pl_to_obj(f),
                   "checks": _records_obj(records)}
        return (est, f, records), serialize.dumps(payload)

    def check(result):
        est, f, records = result
        if abs(est.value - cfg.t) > cfg.tolerance:
            return f"|r(a*) - t| = {abs(est.value - cfg.t)} exceeds the tolerance"
        xs, ys = f.breakpoints, f.values
        if list(xs) != [-x for x in reversed(xs)] or list(ys) != list(reversed(ys)):
            return "dial map is not even"
        if eb.eval_at(f, Fraction(10)) != 10 or eb.eval_at(f, Fraction(0)) != 0:
            return "dial map does not fix 0 and 10"
        for rec in records:
            got = rec.achieved
            if got is None:
                return f"no active scale for lambda={rec.lam}"
            if got.lower > cfg.t + 5e-2 or got.upper < cfg.t - 5e-2:
                return (f"lambda={rec.lam}: bracket [{got.lower}, {got.upper}] "
                        "misses t by more than 0.05")
            problem = _scale_problem(cfg, rec, vanishing=False)
            if problem:
                return problem
        return _estimate_problem(est, cfg)

    return Op("dial-a*=37/64", run, check,
              lambda result: [s.bounds for rec in result[2] for s in rec.scales],
              lambda result: {"dial_residual": abs(result[0].value - cfg.t)})


def _vanishing_op(cfg) -> Op:
    def run():
        records = eb.dial_entropy_check(cfg, [VANISHING])
        return records, serialize.dumps(_records_obj(records))

    return Op(f"dial_entropy_check-{VANISHING}", run,
              lambda records: _scale_problem(cfg, records[0], vanishing=True),
              lambda records: [s.bounds for s in records[0].scales])


def _probe_op(a: Fraction, cfg) -> Op:
    def run():
        est = eb.r_of_a(a, cfg)
        return est, serialize.dumps(_estimate_obj(est))

    return Op(f"r_of_a-{a}", run, lambda est: _estimate_problem(est, cfg))


def _dial(rng: random.Random, size: str) -> list[Op]:
    cfg = _dial_config(size)
    return [_dial_command_op(cfg), _vanishing_op(cfg),
            _probe_op(Fraction(rng.choice(PROBE_K), 64), cfg)]


# --- constructions: Theorem B, psi, the sum-norm model and witness, big horseshoes -------

def _random_family(rng: random.Random, n: int):
    members = []
    for _ in range(n):
        xs = sorted(rng.sample([Fraction(i, 12) for i in range(1, 12)], rng.randint(2, 4)))
        xs = [Fraction(0)] + xs + [Fraction(1)]
        members.append(eb.make_pl(xs, [Fraction(rng.randint(-16, 16), 8) for _ in xs]))
    return eb.FunctionFamily(members=tuple(members), label="random")


def _independent_family(rng: random.Random, n: int, grid):
    """A random family that is independent on the grid (input generation)."""
    while True:
        family = _random_family(rng, n)
        try:
            eb.independent_points(family, grid)
            return family
        except DependencyError:
            continue


def _thm_b_op(family, grid) -> Op:
    n = len(family)

    def run():
        pts = eb.independent_points(family, grid)
        f, cert = eb.horseshoe_combination(family, pts)
        payload = {"points": [str(x) for x in pts.points],
                   "determinant": str(pts.gram_determinant),
                   "combination": serialize.pl_to_obj(f),
                   "certificate": serialize.certificate_to_obj(cert),
                   "entropy_lower_bound": cert.rate}
        return (pts, f, cert), serialize.dumps(payload)

    def check(result):
        pts, f, cert = result
        xs = pts.points
        targets = [xs[0] if i % 2 == 0 else xs[-1] for i in range(n)]
        if [eb.eval_at(f, x) for x in xs] != targets:
            return "alternation is not exact"
        if cert.d != n - 1 or not eb.validate_certificate(f, cert):
            return "alternation certificate fails exact validation"
        return None

    return Op(f"thmB-{n}", run, check)


def _poly_op(coeffs, n: int) -> Op:
    def run():
        poly = eb.cropped_polynomial(coeffs, -1, 1, n + 2)
        upper = eb.entropy_upper_lap(poly, 1)
        return upper, serialize.dumps({"upper": upper})

    def check(upper):
        if upper > math.log(n - 1) + 1e-9:
            return f"degree-{n - 1} upper bound {upper} exceeds log {n - 1}"
        return None

    return Op(f"poly-{n}", run, check)


def _unit_map(rng: random.Random):
    """A random map on [0, 1] with sup norm 2 (enough for 6-horseshoes at N=16)."""
    xs = sorted(rng.sample([Fraction(i, 16) for i in range(1, 16)], 4))
    xs = [Fraction(0)] + xs + [Fraction(1)]
    ys = [Fraction(rng.randint(-31, 31), 16) for _ in xs]
    ys[rng.randrange(len(ys))] = Fraction(rng.choice((-2, 2)))
    return eb.make_pl(xs, ys)


def _psi_op(f, partner, a, b, sched, label: str) -> Op:
    def run():
        g = eb.psi(f, sched)
        return g, serialize.dumps(serialize.pl_to_obj(g))

    def check(g):
        if eb.sup_norm(g) != eb.sup_norm(f):
            return "psi is not isometric"
        lhs = eb.psi(eb.linear_combination([a, b], [f, partner]), sched)
        rhs = eb.linear_combination([a, b], [g, eb.psi(partner, sched)])
        if not pl_equal(lhs, rhs):
            return "psi is not linear"
        return None

    return Op(f"psi-{label}", run, check)


def _psi_horseshoe_op(f, sched, d: int, label: str) -> Op:
    def run():
        cert = eb.psi_horseshoe(f, sched, d)
        return cert, serialize.dumps(serialize.certificate_to_obj(cert))

    def check(cert):
        if cert.d != d or not eb.validate_certificate(eb.psi(f, sched), cert):
            return f"{d}-horseshoe of psi(f) fails exact validation"
        return None

    return Op(f"psi_horseshoe-{label}-d{d}", run, check)


def _rademacher_ops(rng: random.Random, combos: int) -> list[Op]:
    delta = Fraction(1, rng.choice((2048, 4096, 8192)))
    built = {}

    def build():
        built["model"] = model = eb.build_rademacher(8, delta)
        return model, serialize.dumps([serialize.pl_to_obj(m) for m in model.members])

    def build_check(model):
        return None if len(model.members) == 8 else "model needs 8 members"

    def combo_op(i: int, coeffs) -> Op:
        def run():
            g = eb.linear_combination(coeffs, built["model"].members)
            return g, serialize.dumps(serialize.pl_to_obj(g))

        def check(g):
            if eb.sup_norm(g) != sum(abs(c) for c in coeffs):
                return "sum-norm isometry fails"
            return None

        return Op(f"rademacher-combo{i}", run, check)

    ops = [Op("build_rademacher", build, build_check)]
    for i in range(combos):
        ops.append(combo_op(i, [Fraction(rng.randint(-24, 24), 8) for _ in range(8)]))
    return ops


def _ell1_op(M: int, delta: Fraction, schedule) -> Op:
    def run():
        report = eb.ell1_witness(delta, M, schedule)
        return report, serialize.dumps(serialize.witness_to_obj(report))

    def check(report):
        orders = [s.certificate.d for s in report.steps]
        if orders != list(range(3, M + 3)):
            return f"certificate orders {orders}"
        for earlier, later in zip(report.steps, report.steps[1:]):
            if not (later.J.lo > earlier.J.lo and later.J.hi < earlier.J.hi):
                return "witness intervals are not nested"
        for step in report.steps:
            if not eb.validate_certificate(report.f, step.certificate):
                return f"step {step.m} certificate fails exact validation"
        if eb.eval_at(report.f, report.x0) != report.x0:
            return "witness does not fix its center"
        return None

    return Op(f"ell1_witness-M{M}", run, check)


def _sine_op(lam: float) -> Op:
    def run():
        f = eb.sin_scaled(lam, 128)
        d, cert = eb.horseshoe_max(f)
        payload = {"d": d, "certificate": serialize.certificate_to_obj(cert)}
        return (f, d, cert), serialize.dumps(payload)

    def check(result):
        f, d, cert = result
        if d < int(lam / (2 * math.pi)) or cert is None:
            return f"found only {d} branches at amplitude {lam}"
        if not eb.validate_certificate(f, cert):
            return "sine horseshoe fails exact validation"
        return None

    return Op(f"horseshoe_max-sin{lam}", run, check)


def _constructions(rng: random.Random, size: str) -> list[Op]:
    tiny = size == "tiny"
    grid = [Fraction(k, 24) for k in range(25)]
    ops = []
    for n in range(3, 6 if tiny else 9):
        ops.append(_thm_b_op(_independent_family(rng, n, grid), grid))
        coeffs = [Fraction(rng.randint(-12, 12), 4) for _ in range(n)]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        ops.append(_poly_op(coeffs, n))
    schedules = {"geometric": eb.geometric_schedule(Fraction(2, 3), 16),
                 "hoelder": eb.hoelder_schedule(Fraction(1, 2), 16)}
    maps = [_unit_map(rng) for _ in range(2 if tiny else 10)]
    for i, f in enumerate(maps):
        partner = maps[(i + 1) % len(maps)]
        a, b = (Fraction(rng.randint(-8, 8), 4) for _ in range(2))
        for kind, sched in schedules.items():
            ops.append(_psi_op(f, partner, a, b, sched, f"{kind}{i}"))
            ops += [_psi_horseshoe_op(f, sched, d, f"{kind}{i}") for d in range(2, 7)]
    ops += _rademacher_ops(rng, 3 if tiny else 20)
    tail = Fraction(rng.choice((2, 3)))
    ops.append(_ell1_op(3, Fraction(1, rng.choice((4096, 8192))), eb.gamma_schedule(3, tail)))
    if not tiny:
        ops.append(_ell1_op(4, Fraction(1, rng.choice((16384, 32768))),
                            eb.gamma_schedule(4, tail)))
        # ~3,800-3,900 breakpoints: just under the hull search's 4,000-candidate limit
        ops.append(_sine_op(92 + rng.randrange(40) / 16))
    return ops


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The fixed operation list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"brackets": _brackets, "dial": _dial,
            "constructions": _constructions}[workload](rng, size)
