"""Certified topological-entropy bounds for piecewise-linear maps.

Upper bounds come from the growth rate of lap numbers of iterates, counted
from the images of the laps of the iterate before; lower bounds come from
exact horseshoe certificates and from covering (Markov) transition matrices
over critical-point partitions.  Both sides are computed on the map
restricted to its forward-invariant image hull, which is the convention
under which entropy of a boundedly-extended map is defined here.

All covering checks are exact rational comparisons; only the final rates
(log d / k and spectral radii) are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import plmap
from .errors import ConstructionError, DomainError, ResourceLimitError
from .plmap import (
    IntervalQ,
    PLMap,
    _floats,
    _turns,
    _values_at,
    compose,
    crop,
    eval_at,
    eval_many,
    image_intervals,
    lap_count,
    make_pl,
    monotone_pieces,
    rank,
    segment_preimages,
)

#: horseshoe search is skipped on iterates with more monotone pieces than this
HORSESHOE_LAP_BUDGET = 1500

#: horseshoe_max refuses maps with more breakpoints than this (its time is
#: quadratic: about 2 s at the cap on a 2-core VM)
HORSESHOE_CAP = 32_768

#: covering-matrix partitions refuse to grow beyond this many cells
PARTITION_CAP = 4096

_POWER_TOL = 1e-10
_POWER_ITERS = 10_000


@dataclass(frozen=True)
class HorseshoeCertificate:
    """d intervals with disjoint interiors, each mapped over all of them by f^k."""

    d: int
    intervals: tuple[IntervalQ, ...]
    iterate: int = 1

    def __post_init__(self):
        if self.d < 2 or len(self.intervals) != self.d:
            raise ConstructionError(f"certificate needs d >= 2 intervals, got {self.d}")
        if self.iterate < 1:
            raise ConstructionError("certificate iterate must be >= 1")

    @property
    def rate(self) -> float:
        return math.log(self.d) / self.iterate


@dataclass(frozen=True)
class EntropyBounds:
    """Certified bracket [lower, upper] for the topological entropy."""

    lower: float
    upper: float
    lower_witness: HorseshoeCertificate | None
    depth_used: int

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ConstructionError(f"invalid bracket [{self.lower}, {self.upper}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def invariant_restriction(f: PLMap) -> PLMap:
    """Crop f to the smallest f-invariant closed interval containing f(R).

    With constant extension f(R) is the image of f's domain, and it is
    f-invariant as it stands: f maps everything, so also f(R), into f(R).
    """
    hull, = image_intervals(f, [f.domain])
    if hull.lo == hull.hi:
        return make_pl([hull.lo], [eval_at(f, hull.lo)])
    return crop(f, hull.lo, hull.hi)


def entropy_upper_lap(f: PLMap, depth: int) -> float:
    """min over k <= depth of log(laps(f^k)) / k; a valid upper bound.

    Monotone improving in depth; cap truncation only reduces the achieved
    depth and keeps the bound valid.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    g, best = f, math.log(lap_count(f))
    for k in range(2, depth + 1):
        try:
            g = compose(f, g)
        except ResourceLimitError:
            break
        best = min(best, math.log(lap_count(g)) / k)
    return best


def _branch_certificate(f: PLMap, u: Fraction, v: Fraction) -> HorseshoeCertificate:
    """The certified preimage subintervals of the covering branches of hull [u, v].

    Each piece is cut to [u, v]; f is monotone there, so the cut piece's
    image is the hull of f at its two ends.
    """
    xs = f.breakpoints
    level_u, level_v = _level_set(f, u), _level_set(f, v)
    spans = [(max(xs[s], u), min(xs[e], v)) for s, e in monotone_pieces(f)]
    spans = [(lo_x, hi_x) for lo_x, hi_x in spans if lo_x < hi_x]
    ends = eval_many(f, [x for span in spans for x in span])
    firsts = [lo_x for (lo_x, _), f_lo, f_hi in zip(spans, ends[::2], ends[1::2])
              if min(f_lo, f_hi) <= u and max(f_lo, f_hi) >= v]
    # each such branch attains u and v on [lo_x, hi_x], so the first level
    # points from lo_x on lie inside it
    at_u, at_v = (rank(level, firsts, _floats(level), _floats(firsts))[0].tolist()
                  for level in (level_u, level_v))
    return certify(f, [IntervalQ(*sorted((level_u[i], level_v[j]))) for i, j in zip(at_u, at_v)])


def _level_set(f: PLMap, target: Fraction) -> list[Fraction]:
    """Ascending: the nodes of f equal to target, and the crossings inside segments."""
    xs, ys = f.breakpoints, f.values
    out = []
    for i, hits in enumerate([*segment_preimages(f, [target], _floats([target])), []]):
        if ys[i] == target:
            out.append(xs[i])
        out.extend(x for x, _ in hits)
    return out


def _hull_boxes(f: PLMap) -> np.ndarray:
    """Per covering branch, the rectangle (il, ir, jl, jr) of breakpoint indices
    such that the branch covers [xs[i], xs[j]] for il <= i <= ir, jl <= j <= jr.

    Every piece contributes to a hull either fully inside (x-extent within
    [u, v], value range containing it) or cut at one end; in each case the
    admissible (u, v) form such a rectangle.  Empty rectangles are left out.
    Every comparison is a rank in the breakpoints: a piece end's rank is its
    index, and a value v is <= xs[k] iff its bisect_left is <= k, >= xs[k]
    iff its bisect_right is > k.  Returns an (m, 4) integer array.
    """
    xs, ys = f.breakpoints, f.values
    pieces = [(s, e) for s, e in monotone_pieces(f) if ys[s] != ys[e]]
    if not pieces:
        return np.empty((0, 4), dtype=np.int64)
    vl, vr = rank(xs, ys, f.fx, f.fy)  # ranks of f at every breakpoint
    ia, ib = np.array(pieces, dtype=np.int64).T
    # fully inside: lo <= u <= a and b <= v <= hi
    inside = np.stack([np.minimum(vl[ia], vl[ib]), ia, ib, np.maximum(vr[ia], vr[ib]) - 1])
    # boundary-cut branches: breakpoints k strictly inside a piece [a, b]
    k = np.arange(len(xs))
    p = np.minimum(np.searchsorted(ib, k, "right"), len(pieces) - 1)
    cut = (ia[p] < k) & (k < ib[p])
    k, a, b = k[cut], ia[p][cut], ib[p][cut]
    # left-cut branch [u, b]: image hull of f(u) and the end value f(b)
    left = np.stack([k, k, b, np.maximum(vr[k], vr[b]) - 1])[:, np.minimum(vl[k], vl[b]) <= k]
    # right-cut branch [a, u] seen from the v side: v = u here
    right = np.stack([np.minimum(vl[k], vl[a]), a, k, k])[:, np.maximum(vr[k], vr[a]) > k]
    rects = np.concatenate([inside, left, right], axis=1).T
    return rects[(rects[:, 0] <= rects[:, 1]) & (rects[:, 2] <= rects[:, 3])]


def _widest_hull(f: PLMap) -> tuple[int, int, int]:
    """(d, i, j): the most covering branches d of any hull [xs[i], xs[j]], i < j.

    Hulls run over pairs of breakpoints.  Each branch covers the hulls of a
    rectangle of breakpoint index pairs (:func:`_hull_boxes`).  A row sweep
    counts them: a rectangle adds 1 to its columns from its first row on and
    takes it away after its last, so one column-difference row is kept and
    only rows where some rectangle starts or ends are visited.  A row
    without such an event repeats the row above on a shorter suffix and
    cannot hold a new maximum.  Memory is O(n + rectangles) for n
    breakpoints, time O(n) per event row, so maps above HORSESHOE_CAP
    breakpoints raise :class:`ResourceLimitError`.  The first maximum in
    row-major order wins; d is 1 (and i = j = 0) when no hull has two.
    """
    n = len(f)
    if n > HORSESHOE_CAP:
        raise ResourceLimitError(
            f"horseshoe search over {n} breakpoints exceeds the cap of {HORSESHOE_CAP}",
            needed=n, cap=HORSESHOE_CAP)
    best_d, best_i, best_j = 1, 0, 0
    il, ir, jl, jr = _hull_boxes(f).T
    rows = np.concatenate((il, il, ir + 1, ir + 1))
    cols = np.concatenate((jl, jr + 1, jl, jr + 1))
    steps = np.repeat(np.array([1, -1, -1, 1], dtype=np.int64), len(il))
    order = np.argsort(rows, kind="stable")
    rows, cols, steps = rows[order], cols[order], steps[order]
    event_rows, starts = np.unique(rows, return_index=True)
    ends = [*starts[1:].tolist(), len(rows)]
    diff = np.zeros(n + 1, dtype=np.int64)  # column differences of the current row
    for row, lo, hi in zip(event_rows.tolist(), starts.tolist(), ends):
        if row >= n - 1:
            break  # no v above this u
        np.add.at(diff, cols[lo:hi], steps[lo:hi])
        counts = np.cumsum(diff[:n])[row + 1:]  # need u < v
        j = int(counts.argmax())
        if counts[j] > best_d:
            best_d, best_i, best_j = int(counts[j]), row, row + 1 + j
    return best_d, best_i, best_j


def horseshoe_max(f: PLMap) -> tuple[int, HorseshoeCertificate | None]:
    """Largest d such that some hull [u, v] has d covering monotone branches.

    The hull is :func:`_widest_hull`'s, and the certificate returned has passed
    :func:`certify`; (1, None) when no 2-horseshoe exists at this resolution.
    """
    d, i, j = _widest_hull(f)
    if d < 2:
        return 1, None
    cert = _branch_certificate(f, f.breakpoints[i], f.breakpoints[j])
    if cert.d != d:
        raise RuntimeError(f"horseshoe search counted {d} covering branches "
                           f"but extracted {cert.d}")
    return d, cert


def _turning_positions(f: PLMap) -> list[Fraction]:
    """Domain ends and turning points of f, ascending."""
    xs = f.breakpoints
    return [xs[i] for i in sorted({0, *_turns(f)[0].tolist(), len(xs) - 1})]


def entropy_lower_markov(f: PLMap, refinement: int) -> float:
    """log of the spectral radius of the covering matrix on the refined partition.

    The partition starts at the critical points of f and is refined
    ``refinement`` times by pulling partition points back through f
    (:func:`_markov_rounds`).  Each round's covering matrix (M[i][j] = 1 iff
    f(I_i) contains I_j) gives a valid entropy lower bound; the running
    maximum over rounds is returned, which makes the value non-decreasing in
    ``refinement``.  When the partition outgrows PARTITION_CAP cells first,
    :class:`ResourceLimitError` is raised with the completed rounds in
    ``achieved`` and their best bound, still valid, in ``bound``.
    """
    if refinement < 0:
        raise DomainError(f"refinement must be >= 0, got {refinement}")
    best = 0.0
    for round_no, (points, left, right) in enumerate(_markov_rounds(f, refinement)):
        if len(points) - 1 > PARTITION_CAP:
            raise ResourceLimitError(
                f"covering partition exceeded {PARTITION_CAP} cells",
                achieved=round_no, cap=PARTITION_CAP, bound=best)
        # f is monotone on a cell, so its image, the hull of f at its ends, covers the
        # cells from the first point >= its low end to (exclusive) the last <= its high end
        starts = np.minimum(left[:-1], left[1:])
        stops = np.maximum(np.maximum(right[:-1], right[1:]) - 1, starts)
        radius = _interval_rows_radius(starts, stops)
        best = max(best, math.log(radius) if radius > 1.0 else 0.0)
    return best


def _markov_rounds(f: PLMap, refinement: int) -> Iterator[tuple[list, np.ndarray, np.ndarray]]:
    """Per round, the ascending partition and the bisect_left and bisect_right
    in it of f at each of its points.

    Round r+1 adds the preimages of the points round r added (those of older
    points are in already), so each added point's image is a partition point
    and the scan carries its index; only f at the first points, the domain
    ends and turning points, is ranked.  Points are merged in by their ranks,
    their floats beside them.  No round follows one that adds no point.
    """
    points = _turning_positions(f)
    if len(points) < 2:
        return
    added, vals = points, eval_many(f, points)
    fpoints, fvals = _floats(points), _floats(vals)
    firsts = added_at = np.arange(len(points))  # where the first and the last added points sit
    image = np.zeros(len(points), dtype=np.int64)  # index of f(points[i]); unused at firsts
    for round_no in range(refinement + 1):
        left, right = image.copy(), image + 1
        left[firsts], right[firsts] = rank(points, vals, fpoints, fvals)
        yield points, left, right
        if round_no == refinement:
            return
        new, image_at = _pull_back(f, added, fpoints[added_at])
        fnew = _floats(new)
        at, past = rank(points, new, fpoints, fnew)
        fresh = np.flatnonzero(at == past)  # not partition points yet
        if not fresh.size:
            return  # the partition is closed: later rounds repeat this one
        at = at[fresh]
        # each added point goes right before the partition point at its rank, so
        # an index moves up by the number of points inserted at or before it
        image = np.insert(image, at, added_at[np.array(image_at)[fresh]])
        image += np.searchsorted(at, image, "right")
        firsts = firsts + np.searchsorted(at, firsts, "right")
        added, added_at = [new[k] for k in fresh.tolist()], at + np.arange(len(at))
        points = np.insert(np.array(points, dtype=object), at, added).tolist()
        fpoints = np.insert(fpoints, at, fnew[fresh])


def _pull_back(f: PLMap, targets: list[Fraction], ft: np.ndarray) -> tuple[list, list[int]]:
    """The f-preimages of the ascending ``targets`` (with floats ``ft``),
    ascending, and the index in targets of each one's image.

    Segments are closed here: a node of f whose value is a target joins
    when one of its segments is not flat.  One walk over the segments in x
    order emits such a node once, before the hits inside its right-hand
    segment, so the preimages come out ascending and distinct.  The
    partition always holds both ends of f's domain, so every preimage lies
    inside its hull.
    """
    xs, ys = f.breakpoints, f.values
    left, right = (r.tolist() for r in rank(targets, ys, ft, f.fy))
    # moving[i]: the segment left of node i is not flat; none lies beyond the ends
    moving = [False, *(a != b for a, b in zip(ys, ys[1:])), False]
    points, image_at = [], []
    # node i, then the hits inside segment i; the last node has no segment
    for i, hits in enumerate([*segment_preimages(f, targets, ft), []]):
        if left[i] < right[i] and (moving[i] or moving[i + 1]):  # ys[i] is targets[left[i]]
            points.append(xs[i])
            image_at.append(left[i])
        points.extend(x for x, _ in hits)
        image_at.extend(j for _, j in hits)
    return points, image_at


def _interval_rows_radius(starts: np.ndarray, stops: np.ndarray) -> float:
    """Certified lower estimate of the spectral radius of an interval-row 0/1 matrix.

    Row i has ones in columns ``starts[i]:stops[i]``.  Whether the radius is
    at most 1 is decided exactly first (:func:`_radius_at_most_one`); then
    0.0 is returned without any floating-point work.  Only once the radius
    is known to exceed 1 does power iteration on M + I (the shift removes
    periodicity) produce an approximate Perron vector, and the returned value
    is its Collatz-Wielandt floor min_i ((M+I)v)_i / v_i - 1, a lower bound
    on the radius for any nonnegative test vector up to float rounding of
    the floor itself.
    """
    if _radius_at_most_one(starts, stops):
        return 0.0
    n = len(starts)
    v = np.ones(n) / math.sqrt(n)
    prev = 0.0
    for _ in range(_POWER_ITERS):
        prefix = np.concatenate(([0.0], np.cumsum(v)))
        w = prefix[stops] - prefix[starts] + v
        norm = float(np.linalg.norm(w))
        v = w / norm
        if abs(norm - prev) <= _POWER_TOL * max(1.0, norm):
            break
        prev = norm
    # restrict to the numerically relevant support before taking the floor
    v = np.where(v > v.max() * 1e-12, v, 0.0)
    prefix = np.concatenate(([0.0], np.cumsum(v)))
    w = prefix[stops] - prefix[starts] + v
    support = v > 0.0
    floor = float(np.min(w[support] / v[support]))
    return max(floor - 1.0, 0.0)


def _radius_at_most_one(starts: np.ndarray, stops: np.ndarray) -> bool:
    """Exactly whether the interval-row 0/1 matrix has spectral radius <= 1.

    The radius is the largest over the strongly connected components, a
    single node without a self-loop contributes 0, and an irreducible 0/1
    matrix has radius 1 iff it is a single cycle (Perron-Frobenius).  So the
    radius is <= 1 iff no row has two successors inside its own component.
    One iterative Tarjan pass (partitions reach PARTITION_CAP cells, too deep
    for recursion) finds the components in O(n + nnz) and checks each as it
    completes.
    """
    starts, stops = starts.tolist(), stops.tolist()
    n = len(starts)
    index = [-1] * n  # discovery order, -1 while unvisited
    low = [0] * n
    comp = [-1] * n  # component id once the node's component is complete
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [[root, starts[root]]]  # node and its next successor to visit
        while work:
            frame = work[-1]
            v, j = frame
            if j < stops[v]:
                frame[1] = j + 1
                if index[j] < 0:
                    index[j] = low[j] = counter
                    counter += 1
                    stack.append(j)
                    work.append([j, starts[j]])
                elif comp[j] < 0 and index[j] < low[v]:
                    low[v] = index[j]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] != index[v]:
                continue
            members = []
            while not members or members[-1] != v:
                members.append(stack.pop())
                comp[members[-1]] = v
            for u in members:
                if sum(comp[w] == v for w in range(starts[u], stops[u])) > 1:
                    return False
    return True


def validate_certificate(f: PLMap, cert: HorseshoeCertificate) -> bool:
    """Re-check a certificate exactly: positive widths, disjoint interiors, full covering.

    One linear pass: sorted by (lo, hi), the intervals have disjoint
    interiors iff each ends at or before the next begins, and an image
    contains every interval iff it contains their hull.  A zero-width
    interval is rejected: copies of one fixed point would otherwise pass.
    f is continuous, so f^k(J) = f(f^(k-1)(J)) is a closed interval: the
    intervals are pushed through f k times and f^k is never built.
    """
    ivs = sorted(cert.intervals, key=lambda iv: (iv.lo, iv.hi))
    if any(iv.lo == iv.hi for iv in ivs) or any(a.hi > b.lo for a, b in zip(ivs, ivs[1:])):
        return False
    hull = IntervalQ(ivs[0].lo, max(iv.hi for iv in ivs))
    images = ivs
    for _ in range(cert.iterate):
        images = image_intervals(f, images)
    return all(img.contains(hull) for img in images)


def certify(f: PLMap, intervals: list[IntervalQ]) -> HorseshoeCertificate:
    """The horseshoe certificate of f on ``intervals``, re-checked exactly.

    Raises :class:`ConstructionError` when an interval is degenerate, the
    intervals overlap, or some image misses one of them.
    """
    cert = HorseshoeCertificate(d=len(intervals), intervals=tuple(intervals))
    if not validate_certificate(f, cert):
        raise ConstructionError(
            f"{cert.d} intervals fail the exact horseshoe check")
    return cert


def _lap_images(g: PLMap, images: dict, turns: tuple) -> dict | None:
    """The image intervals of the laps of g^(k+1), counted, from those of g^k.

    A lap of g^k sweeps its image [u, v] exactly once, so it holds one lap
    of g^(k+1) per monotone run of g over [u, v]: [u, v] is cut at each
    turning point t of g with u < s and t < v, where s starts the flat run
    that ends at t (s = t without one).  Each run's image is the hull of g
    at its two ends.  Consecutive laps of g^k meet at a turn of g^(k+1).
    The exception is a lap whose image lies in a flat of g: it adds no lap,
    and the runs around it still meet at a turn unless g is monotone
    through that flat; then laps can merge, and None is returned.  Images
    are keyed by the integer ratios of their ends, (n_lo, d_lo, n_hi,
    d_hi), and map to [lo, hi, count]; g^0 has one lap, g's domain.
    ``turns`` is ``plmap._turns(g)``.  An empty result means g^(k+1) is
    constant.
    """
    ys, (turn_ix, flat_ix, through) = g.values, turns
    at_turn = turn_ix.tolist()
    ends = {}
    for key, (u, v, _) in images.items():
        ends[key[:2]], ends[key[2:]] = u, v
    qs = list(ends.values())
    left, right = rank(g.breakpoints, qs, g.fx, _floats(qs))
    # turn t lies below q iff t < bisect_left; flat start s is at most q iff s < bisect_right
    before, past_flat = np.searchsorted(turn_ix, left), np.searchsorted(flat_ix, right)
    vals = _values_at(g, qs, left.tolist(), right.tolist())
    at = dict(zip(ends, zip(vals, past_flat.tolist(), before.tolist())))
    out: dict = {}
    constant = False
    for key, (_, _, m) in images.items():
        (gu, a, _), (gv, _, b) = at[key[:2]], at[key[2:]]
        cuts = [(y, *y.as_integer_ratio()) for y in (gu, *(ys[t] for t in at_turn[a:b]), gv)]
        for (y0, n0, d0), (y1, n1, d1) in zip(cuts, cuts[1:]):
            if n0 == n1 and d0 == d1:
                constant = True
                continue
            if n1 * d0 < n0 * d1:  # a falling run: its image is [y1, y0]
                y0, n0, d0, y1, n1, d1 = y1, n1, d1, y0, n0, d0
            out.setdefault((n0, d0, n1, d1), [y0, y1, 0])[2] += m
    return None if constant and through else out


def _read_by_search(laps: int, k: int, lower_h: float) -> bool:
    """Whether the hull search reads an iterate g^k with ``laps`` laps.

    The search on an iterate with n breakpoints (at least its lap count)
    takes O(n^2) time, so large iterates are skipped, and so are those
    whose lap ceiling cannot beat the best rate ``lower_h``; skipping only
    weakens, never falsifies, the lower bound.
    """
    return laps <= HORSESHOE_LAP_BUDGET and math.log(laps) / k > lower_h + 1e-12


def entropy_bounds(f: PLMap, depth: int) -> EntropyBounds:
    """Certified bracket on the invariant restriction g of f.

    Lower side is the better of the widest hull over iterates, certified
    once on its iterate, and the covering-matrix bound (up to ``depth``
    rounds within the partition cap), which is not computed once the hull
    meets the upper side; upper side is the lap-growth bound.
    While the search may read g^k (laps(g^k) <= laps(g^(k-1)) laps(g) fits
    :func:`_read_by_search`), g^k is composed and its laps are counted on
    it.  From the first level it cannot read on, laps come from the lap
    images of g^(k-1) (:func:`_lap_images`), and g^k is composed, forward
    from the last iterate built, only when the search reads it or when its
    laps may have merged.  That count stops before the first k whose g^k
    would exceed the breakpoint cap (laps + 1 > cap), the iterates at the
    cap itself.  Caps only reduce the achieved depth; a monotone
    restriction builds no iterate.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    g = invariant_restriction(f)
    laps_g = lap_count(g)
    if laps_g == 1:  # so is every iterate: no horseshoe, and one lap
        return EntropyBounds(0.0, 0.0, None, depth_used=depth)

    lo, hi = g.domain.lo, g.domain.hi
    whole = {(*lo.as_integer_ratio(), *hi.as_integer_ratio()): [lo, hi, 1]}  # the lap of g^0
    cap, turns = plmap.BREAKPOINT_CAP, _turns(g)
    # gk = g^built; images are those of the laps of g^(k-1), None while the iterates count
    images, gk, built, stopped = None, g, 1, False
    upper, lower_h, best, counted, laps = math.inf, 0.0, None, 0, laps_g
    for k in range(1, depth + 1):
        if built < k and images is None and not stopped and _read_by_search(laps * laps_g, k, lower_h):
            try:
                gk, built = compose(g, gk), k
            except ResourceLimitError:
                stopped = True
        if built == k and images is None:
            laps = lap_count(gk) if k > 1 else laps_g
        else:
            if images is None:  # leave the iterates at g^(k-1) = gk
                images = _lap_images(gk, whole, _turns(gk))
            images = _lap_images(g, images, turns)
            if images is not None:
                laps = max(1, sum(m for _, _, m in images.values()))
                if laps + 1 > cap:
                    break  # g^k has more breakpoints than laps: compose would refuse it
            if images is None or _read_by_search(laps, k, lower_h):
                try:
                    while not stopped and built < k:
                        gk, built = compose(g, gk), built + 1
                except ResourceLimitError:
                    stopped = True
                if images is None:
                    if built < k:
                        break  # laps may have merged, and g^k cannot be built to count them
                    laps = lap_count(gk)
        if built == k and _read_by_search(laps, k, lower_h) and len(gk) <= HORSESHOE_CAP:
            d = _widest_hull(gk)[0]
            if d >= 2 and math.log(d) / k > lower_h:
                lower_h, best = math.log(d) / k, (k, gk)
        counted = k
        upper = min(upper, math.log(laps) / k)
    lower_m = 0.0  # the covering radius cannot beat a horseshoe that meets the lap bound
    if lower_h < upper:
        try:
            lower_m = entropy_lower_markov(g, depth)
        except ResourceLimitError as exc:
            lower_m = exc.bound  # the rounds before the partition cap still count

    # min(., upper) guards against float rounding at exact equality
    if best is not None and lower_h >= lower_m - 1e-15:
        _, cert = horseshoe_max(best[1])  # certified on g^k, relabelled as one of g
        return EntropyBounds(min(lower_h, upper), upper, replace(cert, iterate=best[0]), counted)
    return EntropyBounds(min(lower_m, upper), upper, None, depth_used=counted)
