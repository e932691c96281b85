"""Exact piecewise-linear function calculus over the rationals.

A :class:`PLMap` is a continuous piecewise-linear function given by strictly
increasing rational breakpoints and rational values.  Outside its domain the
function is extended by its boundary values, so every map here is a bounded
continuous function on the whole real line.  All operations are exact: two
maps agree as functions iff they evaluate equally on the union of their
breakpoints, and images/oscillations/norms are attained at breakpoints.

Everything is immutable and pure.  Orderings of rationals go through one
float filter that leaves only float ties to exact comparison: :func:`rank`
searches a sorted list, and a linear combination merges its members'
breakpoints by float (:func:`_merge`); a map converts its breakpoints and
values to floats once and keeps them.  Each new point (an interpolated
value, a preimage) is built from integers with one final gcd
(:func:`_line`), and so is each value of a linear combination.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterator, Sequence

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
    #: the :func:`_floats` of breakpoints and values; converted here unless given
    fx: np.ndarray = field(default=None, repr=False, compare=False)
    fy: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        xs, ys = self.breakpoints, self.values
        if not xs:
            raise ConstructionError("a PL map needs at least one breakpoint")
        if len(xs) != len(ys):
            raise ConstructionError(
                f"breakpoints/values length mismatch: {len(xs)} vs {len(ys)}")
        for name, qs in (("fx", xs), ("fy", ys)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, _floats(qs))
        fx = self.fx  # float order decides every pair but float ties
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


def rank(xs: Sequence[Fraction], qs: Sequence[Fraction], fx: np.ndarray,
         fq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """bisect_left and bisect_right of every q in the ascending xs, exactly.

    ``fx`` and ``fq`` are the :func:`_floats` of xs and qs.  Searching the
    floats brackets each answer by the window of xs whose float equals q's
    (outside it the float order is the exact order).  A one-wide window
    that holds q itself is the answer as it stands; only the others are
    bisected over the rationals.
    """
    left = np.searchsorted(fx, fq, "left")
    right = np.searchsorted(fx, fq, "right")
    for k in np.flatnonzero(left < right).tolist():
        lo, hi = int(left[k]), int(right[k])
        if hi - lo == 1 and xs[lo] == qs[k]:
            continue
        left[k] = bisect_left(xs, qs[k], lo, hi)
        right[k] = bisect_right(xs, qs[k], int(left[k]), hi)
    return left, right


def make_pl(breakpoints: Sequence, values: Sequence) -> PLMap:
    """Build the PL interpolant with constant extension outside the domain."""
    xs = tuple(Fraction(x) for x in breakpoints)
    ys = tuple(Fraction(y) for y in values)
    return PLMap(xs, ys)


def eval_at(f: PLMap, x: Fraction) -> Fraction:
    """Exact value of the extended function at ``x``."""
    return eval_many(f, [x])[0]


def eval_many(f: PLMap, qs: Sequence[Fraction]) -> list[Fraction]:
    """Exact values at the points ``qs``, in any order, located by one :func:`rank`."""
    left, right = rank(f.breakpoints, qs, f.fx, _floats(qs))
    return _values_at(f, qs, left.tolist(), right.tolist())


def _line(a0: Fraction, b0: Fraction, a1: Fraction, b1: Fraction) -> tuple[int, int, int]:
    """Integers (p, q, r): the line through (a0, b0) and (a1, b1) is s -> (p*s + q) / r;
    at s = n/d it is (p*n + q*d) / (r*d), so a new point costs one gcd."""
    (m0, n0), (u0, v0) = a0.as_integer_ratio(), b0.as_integer_ratio()
    (m1, n1), (u1, v1) = a1.as_integer_ratio(), b1.as_integer_ratio()
    # ((b1 - b0) s + b0 a1 - b1 a0) / (a1 - a0), times n0 n1 v0 v1 above and below
    return ((u1 * v0 - u0 * v1) * n0 * n1, u0 * m1 * v1 * n0 - u1 * m0 * v0 * n1,
            (m1 * n0 - m0 * n1) * v0 * v1)


def _values_at(f: PLMap, qs: Sequence[Fraction], left: list[int],
               right: list[int]) -> list[Fraction]:
    """Values at ``qs`` from their bisect_left and bisect_right in f.breakpoints.

    Consecutive points in one segment share its :func:`_line`; a flat
    segment (equal node values, slope p = 0) gives its node value with no
    arithmetic and no line.
    """
    xs, ys = f.breakpoints, f.values
    seg, p, q, r = 0, 0, 0, 1  # the line of the segment (xs[seg - 1], xs[seg])
    out: list[Fraction] = []
    for x, i, j in zip(qs, left, right):
        if i < j or i == 0:  # x is a breakpoint, or left of the domain
            out.append(ys[i])
        elif i == len(xs):
            out.append(ys[-1])
        else:
            if i != seg:
                flat = ys[i - 1] == ys[i]
                seg, (p, q, r) = i, (0, 0, 1) if flat else _line(xs[i - 1], ys[i - 1], xs[i], ys[i])
            if p:
                n, d = x.as_integer_ratio()
                out.append(Fraction(p * n + q * d, r * d))
            else:
                out.append(ys[i])
    return out


def _prune_collinear(xs: Sequence[Fraction], ys: Sequence[Fraction], fx: np.ndarray,
                     fy: np.ndarray) -> PLMap:
    """The map of the nodes (xs, ys), without interior nodes where the two
    adjacent segments share a slope; fx and fy are the nodes' floats.

    Purely a representation normalization: the function is unchanged, and all
    kinks (turning points, slope changes) are preserved.  A node whose two
    neighbours lie strictly on one side of it in float order is a strict
    turn and is kept unexamined: the pruned nodes before it lie on the line
    from the last kept node, so that line falls (or rises) into it too.
    """
    before, mid, after = fy[:-2], fy[1:-1], fy[2:]
    turns = (((before < mid) & (after < mid)) | ((before > mid) & (after > mid))).tolist()
    keep, last = [True] * len(xs), 0  # last: the last node kept
    for i in range(1, len(xs) - 1):
        if not turns[i - 1]:  # drop node i if it lies on the line from node last to node i + 1
            p, q, r = _line(xs[last], ys[last], xs[i + 1], ys[i + 1])
            (n, d), (u, v) = xs[i].as_integer_ratio(), ys[i].as_integer_ratio()
            if (p * n + q * d) * v == u * r * d:
                keep[i] = False
                continue
        last = i
    return PLMap(tuple(compress(xs, keep)), tuple(compress(ys, keep)), fx[keep], fy[keep])


def segment_preimages(g: PLMap, targets: Sequence[Fraction], left: np.ndarray,
                      right: np.ndarray) -> Iterator[list[tuple[Fraction, int]]]:
    """Per segment of g, the pairs (x, j) strictly inside it with g(x) == targets[j].

    ``targets`` ascend; ``left`` and ``right`` are the :func:`rank` of g's
    values in them, which each caller also reads itself.  Each segment's
    list is in x order, empty if flat.  Composition, the covering partition
    and certificates all use this loop.
    """
    xs, ys = g.breakpoints, g.values
    ratios = [t.as_integer_ratio() for t in targets]
    # targets strictly inside the value range of each segment: bisect_right
    # of its lower end value up to bisect_left of its upper one
    starts = np.minimum(right[:-1], right[1:]).tolist()
    stops = np.maximum(left[:-1], left[1:]).tolist()
    for i, (a, b) in enumerate(zip(starts, stops)):
        if a >= b:  # every flat segment lands here too
            yield []
            continue
        p, q, r = _line(ys[i], xs[i], ys[i + 1], xs[i + 1])  # x as a function of y
        # a falling segment (r < 0) meets ascending targets right to left
        order = range(a, b) if r > 0 else range(b - 1, a - 1, -1)
        yield [(Fraction(p * ratios[j][0] + q * ratios[j][1], r * ratios[j][1]), j)
               for j in order]


def _pull_back(f: PLMap, targets: list[Fraction], ranks: tuple[np.ndarray, np.ndarray],
               joins: np.ndarray) -> tuple[list, list[int]]:
    """The f-preimages of the ascending ``targets``, ascending, and the index
    in targets of each one's image; ``ranks`` is the :func:`rank` of f's
    values in targets, and ``joins`` is :func:`_joins` of f.

    Segments are closed here: a node of f whose value is a target joins
    when one of its segments is not flat.  One walk over the segments in x
    order emits such a node once, before the hits inside its right-hand
    segment, so the preimages come out ascending and distinct.  The
    covering scan's partition always holds both ends of f's domain, so
    every preimage lies inside its hull.
    """
    xs = f.breakpoints
    left = ranks[0].tolist()
    emits = ((ranks[0] < ranks[1]) & joins).tolist()  # ys[i] is targets[left[i]]
    points, image_at = [], []
    # node i, then the hits inside segment i; the last node has no segment
    for i, hits in enumerate([*segment_preimages(f, targets, *ranks), []]):
        if emits[i]:
            points.append(xs[i])
            image_at.append(left[i])
        points.extend(x for x, _ in hits)
        image_at.extend(j for _, j in hits)
    return points, image_at


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact PL representation of x -> f(g(x)).

    Breakpoints are g's own plus, segment by segment in x order, the
    preimages of f's breakpoints, where f's value is known already;
    collinear interior nodes are pruned afterwards.  Raises
    :class:`ResourceLimitError` when they exceed BREAKPOINT_CAP.
    """
    limit = BREAKPOINT_CAP
    gx, gy, fvals = g.breakpoints, g.values, f.values
    at = rank(f.breakpoints, gy, f.fx, g.fy)
    fgy = _values_at(f, gy, *(r.tolist() for r in at))
    xs, ys, counts, hit_j = [], [], [], []  # counts: hits per segment of g
    for i, hits in enumerate(segment_preimages(g, f.breakpoints, *at)):
        xs.append(gx[i])
        ys.append(fgy[i])
        counts.append(len(hits))
        if hits:
            hit_j.extend(j for _, j in hits)
            _check_cap(len(gx) + len(hit_j), limit)
            xs.extend(x for x, _ in hits)
            ys.extend(fvals[j] for _, j in hits)
    _check_cap(len(gx) + len(hit_j), limit)  # g alone may exceed it
    xs.append(gx[-1])
    ys.append(fgy[-1])
    on_g = np.zeros(len(xs), dtype=bool)  # g's node i follows the hits of segments before it
    on_g[np.arange(len(gx)) + np.cumsum([0, *counts])] = True
    fx, fy = np.empty(len(xs)), np.empty(len(xs))
    fx[on_g], fy[on_g], fy[~on_g] = g.fx, _floats(fgy), f.fy[hit_j]
    fx[~on_g] = _floats([x for x, node in zip(xs, on_g.tolist()) if not node])
    return _prune_collinear(xs, ys, fx, fy)


def _check_cap(needed: int, limit: int) -> None:
    if needed > limit:
        raise ResourceLimitError(
            f"composition would need more than {limit} breakpoints",
            needed=needed, cap=limit)


def _signs(f: PLMap) -> np.ndarray:
    """The sign (-1, 0 or 1) of each segment's slope, taken from the floats;
    float ties are compared exactly."""
    ys, fy = f.values, f.fy
    signs = (fy[1:] > fy[:-1]).astype(np.int8) - (fy[1:] < fy[:-1])
    for i in np.flatnonzero(signs == 0).tolist():
        if ys[i + 1] != ys[i]:
            signs[i] = 1 if ys[i + 1] > ys[i] else -1
    return signs


def _joins(f: PLMap) -> np.ndarray:
    """Per node of f, whether a segment beside it is not flat: such a node
    is a preimage of its value."""
    moving = _signs(f) != 0
    out = np.zeros(len(f), dtype=bool)
    out[:-1] |= moving
    out[1:] |= moving
    return out


def _turns(f: PLMap) -> tuple[np.ndarray, np.ndarray, bool]:
    """f's turning points as breakpoint indices, the start of the flat run
    that ends at each (the turn itself without one), and whether f is
    monotone through some flat run: rising, or falling, on both sides.
    """
    signs = _signs(f)
    moving = np.flatnonzero(signs)  # a flat segment joins the run before it
    turning = signs[moving[1:]] != signs[moving[:-1]]
    through = bool((~turning & (np.diff(moving) > 1)).any())
    return moving[1:][turning], moving[:-1][turning] + 1, through


def monotone_pieces(f: PLMap) -> list[tuple[int, int]]:
    """Maximal monotone runs as (start, end) index pairs into f.breakpoints.

    Constant runs merge into an adjacent run; an entirely constant map is a
    single run.  Consecutive runs share their turning breakpoint.
    """
    turns = _turns(f)[0].tolist()
    return list(zip([0, *turns], [*turns, len(f) - 1]))


def lap_count(f: PLMap) -> int:
    """Number of maximal monotonicity intervals on the domain.

    Constant runs merge into an adjacent lap; an entirely constant map
    counts as one lap.
    """
    return len(_turns(f)[0]) + 1


def crop(f: PLMap, a, b) -> PLMap:
    """Freeze f at its values on [a, b]: constant f(a) left, f(b) right."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise DomainError(f"crop needs a < b, got [{a}, {b}]")
    xs, ys = f.breakpoints, f.values
    left, right = (r.tolist() for r in rank(xs, [a, b], f.fx, _floats([a, b])))
    f_a, f_b = _values_at(f, [a, b], left, right)
    inner = slice(right[0], left[1])  # the breakpoints strictly inside (a, b)
    return PLMap((a, *xs[inner], b), (f_a, *ys[inner], f_b))


def _equal_pairs(qs: Sequence[Fraction], a: np.ndarray, b: np.ndarray) -> list[bool]:
    """qs[i] == qs[j] for the index pairs (i, j) of a and b, from their integer
    ratios, which are in lowest terms."""
    return [qs[i].as_integer_ratio() == qs[j].as_integer_ratio()
            for i, j in zip(a.tolist(), b.tolist())]


def _merge(fs: Sequence[PLMap]) -> tuple[list[Fraction], np.ndarray, list[np.ndarray]]:
    """The ascending union of the members' breakpoints, its floats, and the
    union index of every member's nodes.

    One stable argsort merges the members' floats; rationals are compared
    only inside a run of equal floats.  A run of one rational (a point that
    several members share) collapses by equality tests alone.  Only when
    some run holds distinct rationals (past the float range, or points like
    1/3 +- 2^-80) is the order made exact, by a sort keyed on the float and
    then the rational.
    """
    qs = [x for f in fs for x in f.breakpoints]
    fx = np.concatenate([f.fx for f in fs])
    order = np.argsort(fx, kind="stable")
    new = np.ones(len(qs), dtype=bool)  # new[t]: sorted entry t starts a union point
    new[1:] = fx[order[1:]] != fx[order[:-1]]
    ties = np.flatnonzero(~new)
    if not all(_equal_pairs(qs, order[ties - 1], order[ties])):
        keys = fx.tolist()  # the float decides first, so only float ties compare Fractions
        order = np.array(sorted(order.tolist(), key=lambda i: (keys[i], qs[i])), dtype=np.intp)
        new[ties] = np.logical_not(_equal_pairs(qs, order[ties - 1], order[ties]))
    at = np.empty(len(qs), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    ends = np.cumsum([len(f) for f in fs])
    return [qs[i] for i in order[new].tolist()], fx[order[new]], np.split(at, ends[:-1])


def linear_combination(coeffs: Sequence, fs: Sequence[PLMap]) -> PLMap:
    """Exact PL map of sum(a_i * f_i) on the union of breakpoint sets.

    The union is one float merge (:func:`_merge`), which says where each
    member's nodes land in it, so each member's values are read from its
    own nodes and segment lines with no search.  Each value is summed as
    one integer pair (numerator, denominator) and made a Fraction once, so
    one gcd per output value.
    """
    if not fs or len(coeffs) != len(fs):
        raise ConstructionError("need equally many coefficients and maps, at least one")
    cs = [Fraction(c) for c in coeffs]
    all_x, fx, ats = _merge(fs)
    ks = np.arange(len(all_x))
    nums, dens = [0] * len(all_x), [1] * len(all_x)
    for c, f, at in zip(cs, fs, ats):
        if c == 0:
            continue
        a, b = c.as_integer_ratio()
        left, right = (np.searchsorted(at, ks, side).tolist() for side in ("left", "right"))
        for k, v in enumerate(_values_at(f, all_x, left, right)):
            u, w = v.as_integer_ratio()
            d = b * w
            if d == dens[k]:
                nums[k] += a * u
            else:  # n/e + a u/(b w) = (n b w + a u e) / (e b w)
                nums[k] = nums[k] * d + a * u * dens[k]
                dens[k] *= d
    totals = [Fraction(n, d) for n, d in zip(nums, dens)]
    return _prune_collinear(all_x, totals, fx, _floats(totals))


def scale(f: PLMap, c) -> PLMap:
    """c * f, keeping the breakpoint set."""
    c = Fraction(c)
    return PLMap(f.breakpoints, tuple(c * y for y in f.values), f.fx)


def image_intervals(f: PLMap, Js: Sequence[IntervalQ]) -> list[IntervalQ]:
    """Exact [min, max] of f over each J (attained at breakpoints in J or at its ends).

    One :func:`rank` locates every end; the breakpoints strictly inside J
    lie between its lower end's bisect_right and its upper end's bisect_left.
    Among those the float order picks the extremes, so only the values that
    tie with an extreme in float, and J's two end values, compare exactly.
    """
    ends = [q for J in Js for q in (J.lo, J.hi)]
    left, right = (r.tolist() for r in rank(f.breakpoints, ends, f.fx, _floats(ends)))
    vals = _values_at(f, ends, left, right)
    ys, out = f.values, []
    for k in range(0, len(ends), 2):
        lows, highs, at = [], [], right[k]
        inner = f.fy[at:left[k + 1]]
        if inner.size:
            lows = [ys[at + i] for i in np.flatnonzero(inner == inner.min()).tolist()]
            highs = [ys[at + i] for i in np.flatnonzero(inner == inner.max()).tolist()]
        out.append(IntervalQ(min(vals[k], vals[k + 1], *lows), max(vals[k], vals[k + 1], *highs)))
    return out


def oscillation(f: PLMap, J: IntervalQ) -> Fraction:
    """sup over x, y in J of |f(x) - f(y)|."""
    img, = image_intervals(f, [J])
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
    (a, b), (c, e) = domain.lo.as_integer_ratio(), domain.hi.as_integer_ratio()
    # lo + k (hi - lo) / (n - 1) = (a e (n - 1) + k (b c - a e)) / (b e (n - 1)): one gcd
    start, step, den = a * e * (n - 1), b * c - a * e, b * e * (n - 1)
    xs, fx, fy = [], [], []
    for k in range(n):
        xs.append(Fraction(start + k * step, den))
        fx.append((start + k * step) / den)  # float(x), which overflows past the float range
        v = h(fx[-1])
        if not math.isfinite(v):
            raise DomainError(f"sample at x={xs[-1]} is not finite: {v!r}")
        fy.append(v)
    # + 0.0: a sample of -0.0 is the rational 0, whose float is 0.0
    return PLMap(tuple(xs), tuple(map(Fraction, fy)), np.array(fx), np.array(fy, float) + 0.0)


def pl_equal(f: PLMap, g: PLMap) -> bool:
    """True iff f and g agree as functions on all of R."""
    probe = f.breakpoints + g.breakpoints
    return eval_many(f, probe) == eval_many(g, probe)
