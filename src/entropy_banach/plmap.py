"""Exact piecewise-linear function calculus over the rationals.

A :class:`PLMap` is a continuous piecewise-linear function given by strictly
increasing rational breakpoints and rational values.  Outside its domain the
function is extended by its boundary values, so every map here is a bounded
continuous function on the whole real line.  All operations are exact: two
maps agree as functions iff they evaluate equally on the union of their
breakpoints, and images/oscillations/norms are attained at breakpoints.

Everything is immutable and pure; values can be shared freely across
workers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import ConstructionError, DomainError, NumericError, ResourceLimitError
from .rational import q_from_float

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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


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
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise ConstructionError("breakpoints must be strictly increasing")

    @property
    def domain(self) -> IntervalQ:
        return IntervalQ(self.breakpoints[0], self.breakpoints[-1])

    def __call__(self, x) -> Fraction:
        return eval_at(self, Fraction(x))

    def __len__(self) -> int:
        return len(self.breakpoints)


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


def eval_many(f: PLMap, xs_sorted: Sequence[Fraction]) -> list[Fraction]:
    """Evaluate at an ascending sequence of points with a single merge scan."""
    xs, ys = f.breakpoints, f.values
    out: list[Fraction] = []
    i = 0
    last = len(xs) - 1
    for x in xs_sorted:
        while i < last and xs[i + 1] <= x:
            i += 1
        if x <= xs[0]:
            out.append(ys[0])
        elif x >= xs[-1]:
            out.append(ys[-1])
        elif xs[i] == x:
            out.append(ys[i])
        else:
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[i], ys[i + 1]
            out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def _prune_collinear(xs: list[Fraction], ys: list[Fraction]) -> tuple[tuple, tuple]:
    """Drop interior nodes where the two adjacent segments share a slope.

    Purely a representation normalization: the function is unchanged, and all
    kinks (turning points, slope changes) are preserved.
    """
    if len(xs) <= 2:
        return tuple(xs), tuple(ys)
    keep_x = [xs[0]]
    keep_y = [ys[0]]
    for i in range(1, len(xs) - 1):
        # cross-multiplied slope comparison avoids building new Fractions
        lhs = (ys[i] - keep_y[-1]) * (xs[i + 1] - xs[i])
        rhs = (ys[i + 1] - ys[i]) * (xs[i] - keep_x[-1])
        if lhs != rhs:
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
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        # targets strictly inside the value range of this segment
        a = bisect_right(targets, lo)
        b = bisect_left(targets, hi)
        if a >= b:  # every flat segment lands here too
            yield []
            continue
        x0 = xs[i]
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
    fy = f.values
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    found = 0
    for i, hits in enumerate(segment_preimages(g, f.breakpoints)):
        xs.append(gx[i])
        ys.append(eval_at(f, gy[i]))
        if not hits:
            continue
        found += len(hits)
        _check_cap(len(gx) + found, limit)
        for x, j in hits:
            xs.append(x)
            ys.append(fy[j])
    _check_cap(len(gx) + found, limit)  # g alone may exceed it
    xs.append(gx[-1])
    ys.append(eval_at(f, gy[-1]))
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
    single run.  Consecutive runs share their turning breakpoint.
    """
    xs, ys = f.breakpoints, f.values
    pieces = []
    start = 0
    rising = None
    for i in range(len(xs) - 1):
        if ys[i + 1] == ys[i]:
            continue
        up = ys[i + 1] > ys[i]
        if rising is not None and up != rising:
            pieces.append((start, i))
            start = i
        rising = up
    pieces.append((start, len(xs) - 1))
    return pieces


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
    all_x = sorted(set().union(*(f.breakpoints for f in fs)))
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
        try:
            ys.append(q_from_float(v))
        except ConstructionError as exc:
            raise NumericError(f"sample at x={x} is not finite: {v!r}") from exc
    return PLMap(tuple(xs), tuple(ys))


def pl_equal(f: PLMap, g: PLMap) -> bool:
    """True iff f and g agree as functions on all of R."""
    probe = sorted(set(f.breakpoints) | set(g.breakpoints))
    fs = eval_many(f, probe)
    gs = eval_many(g, probe)
    return fs == gs
