"""The acceptance suite: one callable per criterion, shared by tests and the CLI.

Each check is deterministic given its seed.  Its body returns a pass flag and
a human-readable detail line; :func:`_criterion` adds the criterion's number,
name and wall time to make the result record.  Tolerances are pinned here,
next to the checks that use them.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .dial import (
    DialConfig,
    calkin_wilf,
    dial_entropy_check,
    find_a_star,
    r_of_a,
    rational_enumeration,
)
from .ellone import build_An, build_rademacher, ell1_witness, gamma_schedule, sign_point, solve_An
from .entropy import entropy_bounds, entropy_upper_lap, horseshoe_max, validate_certificate
from .errors import DependencyError
from .plmap import PLMap, eval_at, linear_combination, make_pl, pl_equal, sup_norm
from .spaces import (
    FunctionFamily,
    cropped_polynomial,
    gauss_jordan,
    horseshoe_combination,
    independent_points,
    sin_scaled,
)
from .universal import geometric_schedule, hoelder_schedule, psi, psi_horseshoe

TENT = make_pl([0, Fraction(1, 2), 1], [0, 1, 0])

#: printed 8x8 alternating sign matrix, transcribed row by row
A8_EXPECTED = (
    (+1, +1, +1, +1, +1, +1, +1, +1),
    (+1, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, +1, +1, +1, +1, +1, +1),
    (+1, +1, +1, -1, -1, -1, -1, -1),
    (-1, -1, -1, -1, +1, +1, +1, +1),
    (+1, +1, +1, +1, +1, -1, -1, -1),
    (-1, -1, -1, -1, -1, -1, +1, +1),
    (+1, +1, +1, +1, +1, +1, +1, -1),
)


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number}: {self.name} "
                f"({self.detail}) [{self.seconds:.1f}s]")


def _criterion(number: int, name: str):
    """Make a body returning ``(passed, detail)`` a timed check of one criterion."""
    def decorate(body):
        @functools.wraps(body)
        def check(seed: int = 0) -> CheckResult:
            started = time.time()
            passed, detail = body(seed)
            return CheckResult(number, name, passed, detail, time.time() - started)
        return check
    return decorate


@_criterion(1, "sign-matrix solver vs elimination")
def criterion_1(seed: int) -> tuple[bool, str]:
    """solve_An equals elimination on random inputs, with the max bound."""
    rng = random.Random(seed or 12345)
    cases = 0
    for n in range(2, 51):
        rows = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(build_An(n).entries)]
        pivots, _ = gauss_jordan(rows, n)  # [A_n | I] reduces to [I | A_n^-1]
        doubled = [[e * 2 for e in rows[r][n:]] for r in pivots]
        if any(x.denominator != 1 for row in doubled for x in row):
            return False, f"inverse of A_{n} not half-integer"
        int2 = [[int(x) for x in row] for row in doubled]
        for _ in range(100):
            beta = [Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                    for _ in range(n)]
            alpha = solve_An(n, beta)
            den = 1
            for b in beta:
                den = lcm(den, b.denominator)
            nums = [int(b * den) for b in beta]
            oracle = [Fraction(sum(int2[i][j] * nums[j] for j in range(n)), 2 * den)
                      for i in range(n)]
            if alpha != oracle:
                return False, f"mismatch at n={n}"
            if max(map(abs, alpha)) > max(map(abs, beta)):
                return False, f"max bound violated at n={n}"
            cases += 1
    return True, f"{cases} random systems, exact equality"


@_criterion(2, "8x8 sign matrix fidelity")
def criterion_2(seed: int) -> tuple[bool, str]:
    matrix = build_An(8)
    ok = matrix.entries == A8_EXPECTED
    return ok, "matches the transcribed matrix entry for entry" if ok else "entry mismatch"


@_criterion(3, "full-branch bracket exactness")
def criterion_3(seed: int) -> tuple[bool, str]:
    for d in range(2, 11):
        xs = [Fraction(k, d) for k in range(d + 1)]
        ys = [Fraction(k % 2) for k in range(d + 1)]
        eb = entropy_bounds(make_pl(xs, ys), 1)
        if abs(eb.lower - math.log(d)) > 1e-9 or abs(eb.upper - math.log(d)) > 1e-9:
            return False, f"d={d}: [{eb.lower}, {eb.upper}]"
    return True, "lower = upper = log d for d = 2..10"


def _random_family(rng: random.Random, n: int) -> FunctionFamily:
    members = []
    for _ in range(n):
        k = rng.randint(2, 4)
        xs = sorted(rng.sample([Fraction(i, 12) for i in range(1, 12)], k))
        xs = [Fraction(0)] + xs + [Fraction(1)]
        ys = [Fraction(rng.randint(-16, 16), 8) for _ in xs]
        members.append(make_pl(xs, ys))
    return FunctionFamily(members=tuple(members), label="random")


@_criterion(4, "alternating horseshoe realization")
def criterion_4(seed: int) -> tuple[bool, str]:
    """Alternating-combination horseshoes plus polynomial sharpness."""
    rng = random.Random(seed or 99)
    grid = [Fraction(k, 24) for k in range(25)]
    for n in range(3, 9):
        for attempt in range(20):
            family = _random_family(rng, n)
            try:
                pts = independent_points(family, grid)
                break
            except DependencyError:
                continue
        else:
            return False, f"no independent family found at n={n}"
        f, cert = horseshoe_combination(family, pts)
        targets = [pts.points[0] if (i + 1) % 2 == 1 else pts.points[-1]
                   for i in range(n)]
        if any(eval_at(f, x) != t for x, t in zip(pts.points, targets)):
            return False, f"alternation not exact at n={n}"
        if cert.d != n - 1 or not validate_certificate(f, cert):
            return False, f"certificate invalid at n={n}"
        if cert.rate < math.log(n - 1) - 1e-12:
            return False, f"lower bound below log({n - 1})"
        # sharpness partner: a degree-(n-1) polynomial stays below log(n-1)
        coeffs = [Fraction(rng.randint(-12, 12), 4) for _ in range(n)]
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        poly = cropped_polynomial(coeffs, -1, 1, n + 2)
        upper = entropy_upper_lap(poly, 1)
        if upper > math.log(n - 1) + 1e-9:
            return False, f"degree-{n - 1} upper bound {upper} too large"
    return True, "n = 3..8: exact alternation, certified log(n-1), sharp uppers"


def _random_unit_pl(rng: random.Random) -> PLMap:
    k = rng.randint(0, 4)
    xs = sorted(rng.sample([Fraction(i, 16) for i in range(1, 16)], k))
    xs = [Fraction(0)] + xs + [Fraction(1)]
    ys = [Fraction(rng.randint(-32, 32), 16) for _ in xs]
    return make_pl(xs, ys)


@_criterion(5, "embedding isometry and linearity")
def criterion_5(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed or 7)
    schedules = [geometric_schedule(Fraction(2, 3), 8),
                 hoelder_schedule(Fraction(1, 2), 8)]
    for i in range(50):
        f = _random_unit_pl(rng)
        g = _random_unit_pl(rng)
        a = Fraction(rng.randint(-8, 8), 4)
        b = Fraction(rng.randint(-8, 8), 4)
        for sched in schedules:
            if sup_norm(psi(f, sched)) != sup_norm(f):
                return False, f"isometry failed at sample {i}"
            lhs = psi(linear_combination([a, b], [f, g]), sched)
            rhs = linear_combination([a, b], [psi(f, sched), psi(g, sched)])
            if not pl_equal(lhs, rhs):
                return False, f"linearity failed at sample {i}"
    return True, "50 random inputs, both schedules, exact equalities"


@_criterion(6, "embedding unbounded horseshoes")
def criterion_6(seed: int) -> tuple[bool, str]:
    sched = geometric_schedule(Fraction(2, 3), 16)
    g = psi(TENT, sched)
    for d in range(2, 7):
        cert = psi_horseshoe(TENT, sched, d)
        if cert.d != d or not validate_certificate(g, cert):
            return False, f"d={d} certificate failed"
    return True, "certified d = 2..6 with truncation 16, exact covering"


@_criterion(7, "sum-norm model and staged witness")
def criterion_7(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed or 21)
    model = build_rademacher(8, Fraction(1, 4096))
    for i in range(100):
        coeffs = [Fraction(rng.randint(-24, 24), 8) for _ in range(8)]
        combo = linear_combination(coeffs, model.members)
        if sup_norm(combo) != sum(abs(c) for c in coeffs):
            return False, f"isometry failed at sample {i}"
    pattern = [rng.choice((-1, 1)) for _ in range(8)]
    x = sign_point(model.N, pattern)
    if [eval_at(m, x) for m in model.members] != [Fraction(p) for p in pattern]:
        return False, "sign point does not realize its pattern"
    report = ell1_witness(Fraction(1, 4096), 3, gamma_schedule(3, 2))
    ds = [s.certificate.d for s in report.steps]
    if ds != [3, 4, 5]:
        return False, f"certificate orders {ds}"
    for earlier, later in zip(report.steps, report.steps[1:]):
        if not (later.J.lo > earlier.J.lo and later.J.hi < earlier.J.hi):
            return False, "witness intervals not nested"
    for step in report.steps:
        if not validate_certificate(report.f, step.certificate):
            return False, f"step {step.m} certificate failed"
    if eval_at(report.f, report.x0) != report.x0:
        return False, "witness does not fix its center"
    budget = sum(2 * (m + 3) * g for m, g in
                 enumerate(gamma_schedule(3, 2).gammas, start=1))
    if report.coefficient_l1_norm > budget:
        return False, "coefficient mass over budget"
    return True, "exact isometry, nested certificates d = 3, 4, 5, fixed center"


@_criterion(8, "entropy dial")
def criterion_8(seed: int) -> tuple[bool, str]:
    t = math.log(2)
    cfg = DialConfig(t=t, d=3, truncation=12, lambda_grid_size=21,
                     entropy_depth=8, tolerance=1e-2)
    a_star = find_a_star(cfg)
    cfg = replace(cfg, a_star=a_star)
    est = r_of_a(a_star, cfg)
    if abs(est.value - t) > cfg.tolerance:
        return False, f"|r(a*) - t| = {abs(est.value - t):.4f}"
    records = dial_entropy_check(cfg, [Fraction(1, 2), Fraction(1), Fraction(2)])
    for rec in records:
        if rec.achieved is None:
            return False, f"no active scale for lambda={rec.lam}"
        if rec.achieved.lower > t + 5e-2 or rec.achieved.upper < t - 5e-2:
            return False, (f"lambda={rec.lam}: bracket "
                           f"[{rec.achieved.lower:.4f}, {rec.achieved.upper:.4f}] "
                           f"misses {t:.4f} by more than 0.05")
    vanish = dial_entropy_check(cfg, [Fraction(8, 10) * Fraction(9, 10)])[0]
    for scale in vanish.scales:
        if scale.in_window:
            continue
        if scale.bounds.lower != 0.0 or scale.bounds.upper > 5e-2:
            return False, (f"out-of-window scale n={scale.n} reports "
                           f"[{scale.bounds.lower}, {scale.bounds.upper}]")
    return True, (f"a* = {a_star}, |r - t| = {abs(est.value - t):.4f}; brackets for "
                  "lambda = 1/2, 1, 2 within 0.05 of t; off-window scales vanish")


@_criterion(9, "scaled-sine horseshoes")
def criterion_9(seed: int) -> tuple[bool, str]:
    for d in (2, 3, 5):
        f = sin_scaled(2 * math.pi * d, 128)
        found, cert = horseshoe_max(f)
        if found < d or cert is None or not validate_certificate(f, cert):
            return False, f"d={d}: found {found}"
    return True, "amplitude 2 pi d yields at least d branches for d = 2, 3, 5"


@_criterion(10, "rational enumeration")
def criterion_10(seed: int) -> tuple[bool, str]:
    enum = rational_enumeration(400)
    if enum.terms[0] != 1:
        return False, "first term != 1"
    for a, b in zip(enum.terms, enum.terms[1:]):
        if b > 2 * a:
            return False, f"ratio violation {a} -> {b}"
    targets = set(calkin_wilf(100))
    missing = targets - set(enum.terms)
    if missing:
        return False, f"{len(missing)} of the first 100 targets missing"
    return True, "first 100 targets present, every up-step at most doubles"


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in ALL_CRITERIA]
