"""Exact piecewise-linear function calculus over the rationals.

A :class:`PLMap` is a continuous piecewise-linear function given by strictly
increasing rational breakpoints and rational values.  Outside its domain the
function is extended by its boundary values, so every map here is a bounded
continuous function on the whole real line.  All operations are exact: two
maps agree as functions iff they evaluate equally on the union of their
breakpoints, and images/oscillations/norms are attained at breakpoints.

Everything is immutable and pure.  Orderings of rationals go through one
float filter (:func:`rank`, :func:`sort_exact`) that leaves only float ties
to exact comparison, except in :func:`eval_at`, :func:`crop` and
:func:`image_interval`, which bisect the Fractions directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, ResourceLimitError

#: ceiling on breakpoints produced by a single composition; read at call time
BREAKPOINT_CAP = 2_000_000


@dataclass(frozen=True)
class IntervalQ:
    """Closed rational interval [lo, hi] (degenerate lo == hi allowed)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConstructionError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    def contains(self, other: "IntervalQ") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class PLMap:
    """Piecewise-linear interpolant of ``values`` at ``breakpoints``.

    Evaluation left of the first breakpoint returns the first value,
    right of the last breakpoint the last value.  A single-node map is a
    constant function.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        xs, ys = self.breakpoints, self.values
        if not xs:
            raise ConstructionError("a PL map needs at least one breakpoint")
        if len(xs) != len(ys):
            raise ConstructionError(
                f"breakpoints/values length mismatch: {len(xs)} vs {len(ys)}")
        fx = _floats(xs)  # float order decides every pair but float ties
        if any(xs[i] >= xs[i + 1] for i in np.flatnonzero(fx[:-1] >= fx[1:]).tolist()):
            raise ConstructionError("breakpoints must be strictly increasing")

    @property
    def domain(self) -> IntervalQ:
        return IntervalQ(self.breakpoints[0], self.breakpoints[-1])

    def __len__(self) -> int:
        return len(self.breakpoints)


def _as_float(q: Fraction) -> float:
    """q rounded to nearest, which is monotone in q; +-inf beyond the float range.

    Int true division rounds correctly, so float(a) < float(b) implies a < b.
    """
    try:
        return q.numerator / q.denominator
    except OverflowError:
        return -math.inf if q.numerator < 0 else math.inf


def _floats(qs: Sequence[Fraction]) -> np.ndarray:
    return np.fromiter(map(_as_float, qs), float, len(qs))


def rank(xs: Sequence[Fraction], qs: Sequence[Fraction]) -> tuple[np.ndarray, np.ndarray]:
    """bisect_left and bisect_right of every q in the ascending xs, exactly.

    Searching the floats brackets each answer by the window of xs whose
    float equals q's (outside it the float order is the exact order); only
    those windows are bisected over the rationals.
    """
    fx, fq = _floats(xs), _floats(qs)
    left = np.searchsorted(fx, fq, "left")
    right = np.searchsorted(fx, fq, "right")
    for k in np.flatnonzero(left < right).tolist():
        lo, hi = int(left[k]), int(right[k])
        left[k] = bisect_left(xs, qs[k], lo, hi)
        right[k] = bisect_right(xs, qs[k], int(left[k]), hi)
    return left, right


def sort_exact(qs: Iterable[Fraction]) -> list[Fraction]:
    """sorted(qs); the float key decides first, so only float ties compare Fractions."""
    return sorted(qs, key=lambda q: (_as_float(q), q))


def make_pl(breakpoints: Sequence, values: Sequence) -> PLMap:
    """Build the PL interpolant with constant extension outside the domain."""
    xs = tuple(Fraction(x) for x in breakpoints)
    ys = tuple(Fraction(y) for y in values)
    return PLMap(xs, ys)


def eval_at(f: PLMap, x: Fraction) -> Fraction:
    """Exact value of the extended function at ``x``."""
    xs, ys = f.breakpoints, f.values
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    if xs[i] == x:
        return ys[i]
    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[i], ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def eval_many(f: PLMap, qs: Sequence[Fraction]) -> list[Fraction]:
    """Exact values at the points ``qs``, in any order, located by one :func:`rank`."""
    xs, ys = f.breakpoints, f.values
    left, right = rank(xs, qs)
    out: list[Fraction] = []
    for x, i, j in zip(qs, left.tolist(), right.tolist()):
        if i < j or i == 0:  # x is a breakpoint, or left of the domain
            out.append(ys[i])
        elif i == len(xs):
            out.append(ys[-1])
        else:
            x0, x1 = xs[i - 1], xs[i]
            y0, y1 = ys[i - 1], ys[i]
            out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def _prune_collinear(xs: list[Fraction], ys: list[Fraction]) -> tuple[tuple, tuple]:
    """Drop interior nodes where the two adjacent segments share a slope.

    Purely a representation normalization: the function is unchanged, and all
    kinks (turning points, slope changes) are preserved.  A node whose two
    neighbours lie strictly on one side of it in float order is a strict
    turn and is kept unexamined: the pruned nodes before it lie on the line
    from the last kept node, so that line falls (or rises) into it too.
    """
    if len(xs) <= 2:
        return tuple(xs), tuple(ys)
    fy = _floats(ys)
    before, mid, after = fy[:-2], fy[1:-1], fy[2:]
    turns = (((before < mid) & (after < mid)) | ((before > mid) & (after > mid))).tolist()
    keep_x = [xs[0]]
    keep_y = [ys[0]]
    for i in range(1, len(xs) - 1):
        # cross-multiplied slope comparison avoids building new Fractions
        if turns[i - 1] or ((ys[i] - keep_y[-1]) * (xs[i + 1] - xs[i])
                            != (ys[i + 1] - ys[i]) * (xs[i] - keep_x[-1])):
            keep_x.append(xs[i])
            keep_y.append(ys[i])
    keep_x.append(xs[-1])
    keep_y.append(ys[-1])
    return tuple(keep_x), tuple(keep_y)


def segment_preimages(g: PLMap,
                      targets: Sequence[Fraction]) -> Iterator[list[tuple[Fraction, int]]]:
    """Per segment of g, the pairs (x, j) strictly inside it with g(x) == targets[j].

    ``targets`` ascend; each segment's list is in x order, empty if flat.
    Composition, the covering partition and certificates all use this loop.
    """
    xs, ys = g.breakpoints, g.values
    left, right = rank(targets, ys)
    # targets strictly inside the value range of each segment: bisect_right
    # of its lower end value up to bisect_left of its upper one
    starts = np.minimum(right[:-1], right[1:]).tolist()
    stops = np.maximum(left[:-1], left[1:]).tolist()
    for i, (a, b) in enumerate(zip(starts, stops)):
        if a >= b:  # every flat segment lands here too
            yield []
            continue
        x0, y0, y1 = xs[i], ys[i], ys[i + 1]
        scale = (xs[i + 1] - x0) / (y1 - y0)
        # a falling segment meets ascending targets right to left
        order = range(a, b) if y0 < y1 else range(b - 1, a - 1, -1)
        yield [(x0 + (targets[j] - y0) * scale, j) for j in order]


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact PL representation of x -> f(g(x)).

    Breakpoints are g's own plus, segment by segment in x order, the
    preimages of f's breakpoints, where f's value is known already;
    collinear interior nodes are pruned afterwards.  Raises
    :class:`ResourceLimitError` when they exceed BREAKPOINT_CAP.
    """
    limit = BREAKPOINT_CAP
    gx, gy = g.breakpoints, g.values
    fy, fgy = f.values, eval_many(f, gy)
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    found = 0
    for i, hits in enumerate(segment_preimages(g, f.breakpoints)):
        xs.append(gx[i])
        ys.append(fgy[i])
        if not hits:
            continue
        found += len(hits)
        _check_cap(len(gx) + found, limit)
        for x, j in hits:
            xs.append(x)
            ys.append(fy[j])
    _check_cap(len(gx) + found, limit)  # g alone may exceed it
    xs.append(gx[-1])
    ys.append(fgy[-1])
    xs, ys = _prune_collinear(xs, ys)
    return PLMap(xs, ys)


def _check_cap(needed: int, limit: int) -> None:
    if needed > limit:
        raise ResourceLimitError(
            f"composition would need more than {limit} breakpoints",
            needed=needed, cap=limit)


def monotone_pieces(f: PLMap) -> list[tuple[int, int]]:
    """Maximal monotone runs as (start, end) index pairs into f.breakpoints.

    Constant runs merge into an adjacent run; an entirely constant map is a
    single run.  Consecutive runs share their turning breakpoint.  Segment
    slopes take their signs from the floats; float ties are compared exactly.
    """
    ys = f.values
    fy = _floats(ys)
    signs = (fy[1:] > fy[:-1]).astype(np.int8) - (fy[1:] < fy[:-1])
    for i in np.flatnonzero(signs == 0).tolist():
        if ys[i + 1] != ys[i]:
            signs[i] = 1 if ys[i + 1] > ys[i] else -1
    moving = np.flatnonzero(signs)  # a flat segment joins the run before it
    turns = moving[1:][signs[moving[1:]] != signs[moving[:-1]]].tolist()
    return list(zip([0, *turns], [*turns, len(ys) - 1]))


def lap_count(f: PLMap) -> int:
    """Number of maximal monotonicity intervals on the domain.

    Constant runs merge into an adjacent lap; an entirely constant map
    counts as one lap.
    """
    return len(monotone_pieces(f))


def crop(f: PLMap, a, b) -> PLMap:
    """Freeze f at its values on [a, b]: constant f(a) left, f(b) right."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise DomainError(f"crop needs a < b, got [{a}, {b}]")
    xs, ys = f.breakpoints, f.values
    lo = bisect_right(xs, a)
    hi = bisect_left(xs, b)
    new_x = [a] + list(xs[lo:hi]) + [b]
    new_y = [eval_at(f, a)] + list(ys[lo:hi]) + [eval_at(f, b)]
    return PLMap(tuple(new_x), tuple(new_y))


def linear_combination(coeffs: Sequence, fs: Sequence[PLMap]) -> PLMap:
    """Exact PL map of sum(a_i * f_i) on the union of breakpoint sets."""
    if not fs or len(coeffs) != len(fs):
        raise ConstructionError("need equally many coefficients and maps, at least one")
    cs = [Fraction(c) for c in coeffs]
    all_x = sort_exact(set().union(*(f.breakpoints for f in fs)))
    totals = [Fraction(0)] * len(all_x)
    for c, f in zip(cs, fs):
        if c == 0:
            continue
        vals = eval_many(f, all_x)
        for i, v in enumerate(vals):
            totals[i] += c * v
    xs, ys = _prune_collinear(all_x, totals)
    return PLMap(xs, ys)


def scale(f: PLMap, c) -> PLMap:
    """c * f, keeping the breakpoint set."""
    c = Fraction(c)
    return PLMap(f.breakpoints, tuple(c * y for y in f.values))


def image_interval(f: PLMap, J: IntervalQ) -> IntervalQ:
    """Exact [min, max] of f over J (attained at breakpoints in J or at its ends)."""
    xs = f.breakpoints
    vals = [eval_at(f, J.lo), eval_at(f, J.hi)]
    a = bisect_right(xs, J.lo)
    b = bisect_left(xs, J.hi)
    vals.extend(f.values[a:b])
    return IntervalQ(min(vals), max(vals))


def oscillation(f: PLMap, J: IntervalQ) -> Fraction:
    """sup over x, y in J of |f(x) - f(y)|."""
    img = image_interval(f, J)
    return img.hi - img.lo


def sup_norm(f: PLMap) -> Fraction:
    """max |f|, attained at a breakpoint."""
    return max(abs(y) for y in f.values)


def even_extension(f: PLMap) -> PLMap:
    """Reflect a map on [0, b] to the even map on [-b, b]."""
    xs, ys = f.breakpoints, f.values
    if xs[0] != 0:
        raise DomainError(f"even extension needs a domain starting at 0, got {xs[0]}")
    new_x = [-x for x in reversed(xs)] + list(xs[1:])
    new_y = list(reversed(ys)) + list(ys[1:])
    if len(new_x) == 1:
        return PLMap((xs[0],), (ys[0],))
    return PLMap(tuple(new_x), tuple(new_y))


def sample_pl(h: Callable[[float], float], domain: IntervalQ, n: int) -> PLMap:
    """PL interpolant of ``h`` at ``n`` equispaced rational nodes.

    Sample values are converted to exact rationals (binary-exact floats);
    the caller owns the approximation error of the surrogate.
    """
    if n < 2:
        raise DomainError(f"need at least 2 sample nodes, got {n}")
    if domain.lo >= domain.hi:
        raise DomainError("sampling needs a nondegenerate domain")
    step = (domain.hi - domain.lo) / (n - 1)
    xs = [domain.lo + k * step for k in range(n)]
    ys = []
    for x in xs:
        v = h(float(x))
        if not math.isfinite(v):
            raise DomainError(f"sample at x={x} is not finite: {v!r}")
        ys.append(Fraction(v))
    return PLMap(tuple(xs), tuple(ys))


def pl_equal(f: PLMap, g: PLMap) -> bool:
    """True iff f and g agree as functions on all of R."""
    probe = f.breakpoints + g.breakpoints
    return eval_many(f, probe) == eval_many(g, probe)
