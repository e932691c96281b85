"""A one-parameter function whose nonzero multiples all share one entropy value.

Three ingredients:

* a family theta_a = (1-a) id + a T_d interpolating between the identity and
  a full d-branch horseshoe on [9, 10] (identity off that interval, carrier
  [0, 12]); its entropy under scalar multiples vanishes for multipliers
  outside [9/10, 10/9].  r(a) is the largest entropy-bracket midpoint over a
  fixed exact grid of multipliers in that window (an estimate, neither a
  lower nor an upper bound on the sup over the window), and a bisection
  finds a* with r(a*) within the tolerance of t, or names the pair of a
  across which r jumps past t;

* an enumeration of the positive rationals (Calkin-Wilf order with doubling
  bridges) in which consecutive terms never more than double;

* the multiscale assembly: scale n carries lambda_n times a copy of
  theta_{a*} compressed into I_n = [0.9 * 4^-n, 4^-n], glued monotonically,
  fixed at 10 from 10 on, and extended evenly.  For any multiplier lambda
  the scales with lambda * lambda_n inside the active window reproduce the
  dialed entropy; all other scales report certified near-zero brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import entropy, plmap
from .entropy import EntropyBounds, entropy_bounds, entropy_upper_lap, invariant_restriction
from .errors import ConstructionError, DomainError, ResourceLimitError
from .plmap import PLMap, _as_float, _floats, even_extension, linear_combination, make_pl, scale

WINDOW_LO = Fraction(9, 10)
WINDOW_HI = Fraction(10, 9)

#: most multipliers r(a) scores, for a budget of about 10 s per r(a): at
#: depth 8 and a = 3/4, r(a) took 10.2 s and 40 MB at the cap (2-core VM)
LAMBDA_GRID_CAP = 2000

#: most scales the dial map carries (``--N``), for a budget of about 3 s and
#: 128 MB per run: scale n's rationals have about 2n bits, so memory grows as
#: N^2; at the cap, with one checked multiplier, a run took 2.5 s and 119 MB (2-core VM)
TRUNCATION_CAP = 2000

#: iterate depth for out-of-window scale diagnostics (their lap counts
#: grow linearly, so deep iterates are cheap and push the bound down)
VANISH_DEPTH = 32

#: enumeration terms searched for the multiplier nearest the window argmax
DENSITY_TERMS = 1024

#: relative margin of a float product of two rationals: its rounding error
#: is below 4e-16 of it, so outside the margin the float order is exact (near
#: the window, below 10/9, it bounds the error of a distance too)
_FLOAT_MARGIN = 1e-12


def full_horseshoe_map(d: int) -> PLMap:
    """d full branches on [9, 10], identity elsewhere on [0, 12]."""
    if d < 3 or d % 2 == 0:
        raise DomainError(f"need an odd branch count >= 3, got {d}")
    xs = [Fraction(0), Fraction(9)]
    ys = [Fraction(0), Fraction(9)]
    for k in range(1, d + 1):
        xs.append(Fraction(9) + Fraction(k, d))
        ys.append(Fraction(10) if k % 2 == 1 else Fraction(9))
    xs.append(Fraction(12))
    ys.append(Fraction(12))
    return make_pl(xs, ys)


@lru_cache(maxsize=512)
def theta(a, d: int) -> PLMap:
    """(1 - a) id + a T_d: identity off (9, 10), a-fraction of the horseshoe on it.

    Odd d keeps both endpoints of [9, 10] fixed, which is what makes the
    combination continuous with the identity outside.
    """
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise DomainError(f"need 0 <= a <= 1, got {a}")
    ident = make_pl([0, 12], [0, 12])
    return linear_combination([1 - a, a], [ident, full_horseshoe_map(d)])


@dataclass(frozen=True)
class DialConfig:
    """Parameters of the dial construction."""

    t: float
    d: int = 3
    a_star: Fraction | None = None
    truncation: int = 12
    lambda_grid_size: int = 101
    entropy_depth: int = 8
    tolerance: float = 1e-2

    def __post_init__(self):
        if self.d < 3 or self.d % 2 == 0:
            raise DomainError(f"d must be odd and >= 3, got {self.d}")
        if not 0 < self.t < math.log(self.d):
            raise DomainError(
                f"t must lie in (0, log {self.d} = {math.log(self.d):.4f}), got {self.t}")
        for name, value, least in (("truncation", self.truncation, 1),
                                   ("lambda grid size", self.lambda_grid_size, 3),
                                   ("entropy depth", self.entropy_depth, 1)):
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
        for name, value, cap in (("lambda grid size", self.lambda_grid_size, LAMBDA_GRID_CAP),
                                 ("truncation", self.truncation, TRUNCATION_CAP)):
            if value > cap:
                raise ResourceLimitError(f"{name} {value} exceeds the cap of {cap}",
                                         needed=value, cap=cap)
        if not self.tolerance > 0:  # NaN included
            raise DomainError("tolerance must be positive")


@dataclass(frozen=True)
class REstimate:
    """Entropy-dial estimate r(a): the best bracket midpoint over
    ``_multiplier_grid(lambda_grid_size)`` (the ``--lambda-grid`` flag), the
    same as scoring the whole grid, though only the multipliers whose lap
    upper bound can still beat the best midpoint are bracketed."""

    value: float
    bracket_width: float
    argmax: Fraction
    warning: bool


def _scale_bounds(a: Fraction, lam: Fraction, d: int, depth: int) -> EntropyBounds:
    """The bracket of lam * theta_a, cached under the caps in force now."""
    return _cached_scale_bounds(a, lam, d, depth,
                                plmap.BREAKPOINT_CAP, entropy.PARTITION_CAP)


@lru_cache(maxsize=8192)
def _cached_scale_bounds(a: Fraction, lam: Fraction, d: int, depth: int,
                         breakpoint_cap: int, partition_cap: int) -> EntropyBounds:
    # the caps only key the cache: compose and the Markov scan read them
    return entropy_bounds(scale(theta(a, d), lam), depth)


def _scale_upper(a: Fraction, lam: Fraction, d: int, depth: int) -> float:
    """The lap bound of lam * theta_a, equal to its bracket's upper side,
    cached under the breakpoint cap in force now (the only cap it reads)."""
    return _cached_scale_upper(a, lam, d, depth, plmap.BREAKPOINT_CAP)


@lru_cache(maxsize=8192)
def _cached_scale_upper(a: Fraction, lam: Fraction, d: int, depth: int,
                        breakpoint_cap: int) -> float:
    return entropy_upper_lap(invariant_restriction(scale(theta(a, d), lam)), depth)


def _multiplier_grid(size: int) -> list[Fraction]:
    step = (WINDOW_HI - WINDOW_LO) / (size - 1)
    grid = {WINDOW_LO + k * step for k in range(size)}
    grid.add(Fraction(1))  # the only multiplier with no orbit escape
    return sorted(grid)


def r_of_a(a, cfg: DialConfig) -> REstimate:
    """r(a): the best bracket midpoint over ``_multiplier_grid(cfg.lambda_grid_size)``.

    The grid is a fixed set of exact multipliers that always contains 1, and
    the first of equal midpoints wins.  A midpoint never exceeds its bracket's
    upper side, the lap bound, so only the multipliers whose lap bound can
    still beat the best midpoint so far are bracketed, in order of decreasing
    lap bound: the estimate is the one of scoring the whole grid.  The
    certified bracket width at the argmax is reported as the estimate's
    uncertainty, with a warning flag when it exceeds the configured tolerance.
    """
    a, grid = Fraction(a), _multiplier_grid(cfg.lambda_grid_size)
    uppers = [_scale_upper(a, lam, cfg.d, cfg.entropy_depth) for lam in grid]
    best = (-math.inf, 0, 0.0)  # (midpoint, -grid index, width): the larger wins
    for i in sorted(range(len(grid)), key=lambda i: (-uppers[i], i)):
        if (uppers[i], -i) <= best[:2]:
            break  # neither this multiplier nor any after it can win
        eb = _scale_bounds(a, grid[i], cfg.d, cfg.entropy_depth)
        best = max(best, (eb.midpoint, -i, eb.width))
    value, i, width = best
    return REstimate(value=value, bracket_width=width, argmax=grid[-i],
                     warning=width > cfg.tolerance)


def find_a_star(cfg: DialConfig) -> Fraction:
    """Bisection on a for r(a) = cfg.t, using the bracket-midpoint estimator.

    Stops as soon as the residual drops below the tolerance, or once the
    bisection gap falls below the certification resolution (then the best
    candidate wins if it meets the tolerance).  A stall raises one line that
    names the final bracketing pair, r(lo) < t <= r(hi), and the best residual.
    """
    t = cfg.t
    lo, hi = Fraction(0), Fraction(1)
    r_lo = r_of_a(lo, cfg)
    r_hi = r_of_a(hi, cfg)
    if not r_lo.value < t < r_hi.value:
        raise ConstructionError(
            f"r does not bracket t at the endpoints: r(0)={r_lo.value:.4f}, "
            f"r(1)={r_hi.value:.4f}, t={t:.4f}")
    best_a, best_res = lo, abs(r_lo.value - t)
    if abs(r_hi.value - t) < best_res:
        best_a, best_res = hi, abs(r_hi.value - t)
    gap_floor = Fraction(1, 1 << 25)
    while True:  # the gap halves from 1, so this ends after at most 26 midpoints
        mid = (lo + hi) / 2
        est = r_of_a(mid, cfg)
        res = abs(est.value - t)
        if res < best_res:
            best_a, best_res = mid, res
        if res <= cfg.tolerance:
            return mid
        if est.value < t:
            lo, r_lo = mid, est
        else:
            hi, r_hi = mid, est
        if hi - lo < gap_floor:
            break  # below the estimator's resolution; stop chasing noise
    if best_res <= cfg.tolerance:
        return best_a
    raise ConstructionError(
        f"bisection stalled with residual {best_res:.4f} > tolerance {cfg.tolerance}: "
        f"r jumps past t={t:.4f} between a={lo} (r={r_lo.value:.4f}) "
        f"and a={hi} (r={r_hi.value:.4f})")


# --- rational enumeration ---------------------------------------------------------

@dataclass(frozen=True)
class LambdaEnumeration:
    """Positive rationals, first term 1, consecutive terms at most doubling."""

    terms: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.terms or self.terms[0] != 1:
            raise ConstructionError("enumeration must start at 1")
        if any(t <= 0 for t in self.terms):
            raise ConstructionError("enumeration terms must be positive")
        for a, b in zip(self.terms, self.terms[1:]):
            if b > 2 * a:
                raise ConstructionError(f"ratio violation: {b} > 2 * {a}")


def calkin_wilf(count: int) -> list[Fraction]:
    """First ``count`` terms of the Calkin-Wilf order on the positive rationals."""
    out = [Fraction(1)]
    q = Fraction(1)
    for _ in range(count - 1):
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)
        out.append(q)
    return out


@lru_cache(maxsize=16)
def rational_enumeration(count: int) -> LambdaEnumeration:
    """Calkin-Wilf order with doubling bridges keeping every up-step <= 2x.

    Whenever the next target more than doubles the current value, powers of
    two times the current value are inserted first.  Down-steps are free, so
    only upward jumps need bridging; repetitions are harmless.  Cached, as
    the enumeration is immutable and pure in ``count``.
    """
    if count < 1:
        raise DomainError(f"need count >= 1, got {count}")
    terms = [Fraction(1)]
    current = Fraction(1)
    # each target adds at least one term, so count - 1 targets always suffice
    for cw in calkin_wilf(count)[1:]:
        while cw > 2 * current and len(terms) < count:
            current *= 2
            terms.append(current)
        if len(terms) < count:
            terms.append(cw)
            current = cw
    return LambdaEnumeration(terms=tuple(terms))


# --- the assembled dial map ---------------------------------------------------------

def build_dial_map(cfg: DialConfig) -> PLMap:
    """The even multiscale map on [-10, 10] built from theta_{a*}.

    Scale n (1-based) carries lambda_n * (x_n / 10) * theta(10 x / x_n) on
    I_n = [0.9 x_n, x_n] with x_n = 4^-n; gaps interpolate linearly; below
    the last scale the map descends linearly to the fixed origin; from 10 on
    it is the constant 10.
    """
    if cfg.a_star is None:
        raise DomainError("a_star must be set before building the map")
    th = theta(cfg.a_star, cfg.d)
    lambdas = rational_enumeration(cfg.truncation).terms
    inner = [(x, y) for x, y in zip(th.breakpoints, th.values) if 9 <= x <= 10]

    xs = [Fraction(0)]
    ys = [Fraction(0)]
    for n in range(cfg.truncation, 0, -1):
        x_n = Fraction(1, 4) ** n
        lam_n = lambdas[n - 1]
        for u, v in inner:
            xs.append(x_n * u / 10)
            ys.append(lam_n * x_n * v / 10)
    xs.append(Fraction(10))
    ys.append(Fraction(10))
    return even_extension(make_pl(xs, ys))


@dataclass(frozen=True)
class ScaleRecord:
    """Per-scale diagnostics for one multiplier lambda."""

    n: int
    lambda_n: Fraction
    multiplier: Fraction
    #: 9/10 <= multiplier <= 10/9, exactly when the box I_n x (lam f)(I_n)
    #: meets the diagonal
    in_window: bool
    bounds: EntropyBounds


@dataclass(frozen=True)
class DialCheckRecord:
    """dial_entropy_check output for one multiplier."""

    lam: Fraction
    scales: tuple[ScaleRecord, ...]
    achieved: EntropyBounds | None
    lambda_star: Fraction
    nearest_multiplier: Fraction | None
    tendency_lower: float


def dial_entropy_check(cfg: DialConfig, lambdas: Sequence) -> list[DialCheckRecord]:
    """Per-multiplier entropy reports across the scales of the dial map.

    For each lambda, every scale n <= truncation is scored through the exact
    conjugacy of the dial map on I_n to (lambda lambda_n) theta: scales with
    the product in the active window get the configured-depth bracket and
    their max is the achieved bracket; scales outside get a deeper, cheap
    bracket (VANISH_DEPTH) that certifies vanishing entropy.  The density
    record reports how close the enumeration, extended to DENSITY_TERMS
    terms, can bring some multiplier to the window argmax (the refinement
    that drives the construction toward t as the enumeration grows), with
    its certified lower bound.
    """
    if cfg.a_star is None:
        raise DomainError("a_star must be set before checking entropies")
    lams = [Fraction(raw) for raw in lambdas]
    if 0 in lams:
        raise DomainError("the zero multiplier has no scale analysis")
    terms = rational_enumeration(cfg.truncation).terms
    est = r_of_a(cfg.a_star, cfg)
    dense = rational_enumeration(max(DENSITY_TERMS, cfg.truncation)).terms
    dense_floats = _floats(dense)
    records = []
    for lam in lams:
        # the map is even, so the dynamics of a negative multiple is conjugate
        # (via x -> -x) to that of its absolute value: identical bounds
        lam_abs = abs(lam)
        scales = []
        achieved: EntropyBounds | None = None
        for n in range(1, cfg.truncation + 1):
            mu = lam_abs * terms[n - 1]
            in_window = WINDOW_LO <= mu <= WINDOW_HI
            depth = cfg.entropy_depth if in_window else VANISH_DEPTH
            eb = _scale_bounds(Fraction(cfg.a_star), mu, cfg.d, depth)
            scales.append(ScaleRecord(
                n=n, lambda_n=terms[n - 1], multiplier=mu, in_window=in_window, bounds=eb))
            if in_window and (achieved is None or eb.midpoint > achieved.midpoint):
                achieved = eb
        nearest = _nearest_in_window(lam_abs, dense, dense_floats, est.argmax)
        tendency = 0.0 if nearest is None else _scale_bounds(
            Fraction(cfg.a_star), nearest, cfg.d, cfg.entropy_depth).lower
        records.append(DialCheckRecord(
            lam=lam, scales=tuple(scales), achieved=achieved,
            lambda_star=est.argmax, nearest_multiplier=nearest,
            tendency_lower=tendency))
    return records


def _nearest_in_window(lam: Fraction, terms: Sequence[Fraction], term_floats: np.ndarray,
                       target: Fraction) -> Fraction | None:
    """The first lam * term in [WINDOW_LO, WINDOW_HI] nearest to ``target``
    (None when no product lies in the window).

    Float products decide the window and the distances; only products
    within _FLOAT_MARGIN of a window edge, and the float ties for the least
    distance, are compared exactly.  ``term_floats`` are the floats of
    ``terms``; a float past the float range or below the normal range is
    still on the right side of the window, far from it.
    """
    with np.errstate(over="ignore"):  # an overflow is +inf, past the window as it should be
        mu = _as_float(lam) * term_floats
    lo, hi = float(WINDOW_LO), float(WINDOW_HI)
    inside = (mu > lo * (1 + _FLOAT_MARGIN)) & (mu < hi * (1 - _FLOAT_MARGIN))
    for i in np.flatnonzero(~inside & (mu > lo * (1 - _FLOAT_MARGIN))
                            & (mu < hi * (1 + _FLOAT_MARGIN))).tolist():
        inside[i] = WINDOW_LO <= lam * terms[i] <= WINDOW_HI
    at = np.flatnonzero(inside)
    if not at.size:
        return None
    dist = np.abs(mu[at] - _as_float(target))
    ties = at[dist <= dist.min() + _FLOAT_MARGIN].tolist()
    return min((lam * terms[i] for i in ties), key=lambda mu: abs(mu - target))
