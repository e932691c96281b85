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

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from . import plmap
from .errors import ConstructionError, DomainError, ResourceLimitError
from .plmap import (
    IntervalQ,
    PLMap,
    _floats,
    _joins,
    _pull_back,
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

#: covering radii memoized, keyed on their rows as int64 bytes: a key at
#: PARTITION_CAP cells takes 2 * 8 * 4096 bytes = 64 KiB, so 256 entries
#: hold at most 16 MiB
_RADIUS_MEMO = 256

#: scan rounds the exact zero test reads: the dial's zero-entropy brackets
#: are decided at round 0, its off-window scales by round 3
_ZERO_ROUNDS = 3


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

    The laps come from :func:`_lap_counts`, so f^k is built only where laps
    may merge.  Monotone improving in depth; the breakpoint cap only stops
    the count early and keeps the bound valid.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    counts = _lap_counts(f, _iterate_chain(f))
    return min(math.log(laps) / k for k, laps in zip(range(1, depth + 1), counts))


def _hull_boxes(f: PLMap) -> np.ndarray:
    """Per covering branch, a row (il, ir, jl, jr, start) of breakpoint indices:
    it covers [xs[i], xs[j]] for il <= i <= ir, jl <= j <= jr, from xs[start].

    Every piece [a, b] meets a hull either fully inside (x-extent within
    [u, v], value range containing it) or cut at one end; the branch starts
    at a, or at k where u = xs[k] cuts it, and the admissible (u, v) form a
    rectangle (empty ones are left out).  Every comparison is a rank in the
    breakpoints: a piece end's rank is its index, and a value v is <= xs[k]
    iff its bisect_left is <= k, >= xs[k] iff its bisect_right is > k.
    """
    xs, ys = f.breakpoints, f.values
    pieces = monotone_pieces(f)
    if len(pieces) == 1 and ys[0] == ys[-1]:  # only a constant f has a flat (and sole) run
        return np.empty((0, 5), dtype=np.int64)
    vl, vr = rank(xs, ys, f.fx, f.fy)  # ranks of f at every breakpoint
    ia, ib = np.array(pieces, dtype=np.int64).T
    # fully inside: lo <= u <= a and b <= v <= hi
    inside = np.stack([np.minimum(vl[ia], vl[ib]), ia, ib, np.maximum(vr[ia], vr[ib]) - 1, ia])
    # boundary-cut branches: breakpoints k strictly inside a piece [a, b]
    k = np.arange(len(xs))
    p = np.minimum(np.searchsorted(ib, k, "right"), len(pieces) - 1)
    cut = (ia[p] < k) & (k < ib[p])
    k, a, b = k[cut], ia[p][cut], ib[p][cut]
    # left-cut branch [u, b]: image hull of f(u) and the end value f(b)
    left = np.stack([k, k, b, np.maximum(vr[k], vr[b]) - 1, k])[:, np.minimum(vl[k], vl[b]) <= k]
    # right-cut branch [a, u] seen from the v side: v = u here
    right = np.stack([np.minimum(vl[k], vl[a]), a, k, k, a])[:, np.maximum(vr[k], vr[a]) > k]
    rects = np.concatenate([inside, left, right], axis=1).T
    return rects[(rects[:, 0] <= rects[:, 1]) & (rects[:, 2] <= rects[:, 3])]


def _widest_hull(f: PLMap) -> tuple[int, int, list[int]]:
    """(i, j, starts): the hull [xs[i], xs[j]], i < j, with the most covering
    branches, and where those branches start, ascending.

    Hulls run over pairs of breakpoints.  Each branch covers the hulls of a
    rectangle of breakpoint index pairs (:func:`_hull_boxes`).  A row sweep
    counts them: a rectangle adds 1 to its columns from its first row on and
    takes it away after its last, so one column-difference row is kept and
    only rows where some rectangle starts are visited, each after the ends
    since the start row before it.  A row where rectangles only end covers
    a subset of the row above on a shorter suffix and cannot hold a new
    maximum.  Memory is O(n + rectangles) for n breakpoints, time O(n) per
    start row, so maps above HORSESHOE_CAP breakpoints raise
    :class:`ResourceLimitError`.  The first maximum in row-major order wins;
    ``starts`` holds the start of every rectangle covering its cell.  With
    no hull of two branches, i = j = 0 and ``starts`` is empty: every
    rectangle lies above the diagonal.
    """
    n = len(f)
    if n > HORSESHOE_CAP:
        raise ResourceLimitError(
            f"horseshoe search over {n} breakpoints exceeds the cap of {HORSESHOE_CAP}",
            needed=n, cap=HORSESHOE_CAP)
    best_d, best_i, best_j = 1, 0, 0
    il, ir, jl, jr, start = _hull_boxes(f).T
    is_start = np.zeros(n, dtype=bool)
    is_start[il] = True
    start_rows = np.flatnonzero(is_start).tolist()
    started = np.cumsum(is_start)  # started[r]: start rows at or before row r
    # an event's group is the start row it is applied with: its own row for a
    # start, the first start row after ir for an end (none: len(start_rows))
    group = np.concatenate((started[il] - 1, started[il] - 1, started[ir], started[ir]))
    order = np.argsort(group, kind="stable")
    cols = np.concatenate((jl, jr + 1, jl, jr + 1))[order]
    steps = np.repeat(np.array([1, -1, -1, 1], dtype=np.int64), len(il))[order]
    ends = np.cumsum(np.bincount(group, minlength=len(start_rows) + 1)).tolist()
    diff = np.zeros(n + 1, dtype=np.int64)  # column differences of the current row
    for row, lo, hi in zip(start_rows, [0, *ends], ends):
        if row >= n - 1:
            break  # no v above this u
        np.add.at(diff, cols[lo:hi], steps[lo:hi])
        counts = np.cumsum(diff[:n])[row + 1:]  # need u < v
        j = int(counts.argmax())
        if counts[j] > best_d:
            best_d, best_i, best_j = int(counts[j]), row, row + 1 + j
    covers = (il <= best_i) & (best_i <= ir) & (jl <= best_j) & (best_j <= jr)
    return best_i, best_j, sorted(start[covers].tolist())


def horseshoe_max(f: PLMap) -> tuple[int, HorseshoeCertificate | None]:
    """Largest d such that some hull [u, v] has d covering monotone branches.

    The hull and its d branches are :func:`_widest_hull`'s, and the
    certificate returned has passed :func:`certify`; (1, None) when no
    2-horseshoe exists at this resolution.  A branch is monotone and covers
    [u, v], so its first points at levels u and v lie inside it: its start
    xs[a] itself where f(a) is the level (a start inside a flat at it is no
    :func:`_pull_back` point), else the first point at the level from xs[a]
    on of one pull-back of [u, v].
    """
    i, j, starts = _widest_hull(f)
    if len(starts) < 2:
        return 1, None
    xs, ys = f.breakpoints, f.values
    targets = [xs[i], xs[j]]
    points, image_at = _pull_back(f, targets, rank(targets, ys, f.fx[[i, j]], f.fy), _joins(f))
    firsts = []
    for level, t in enumerate((xs[i], xs[j])):
        at_level = [x for x, k in zip(points, image_at) if k == level]
        at = rank(at_level, [xs[a] for a in starts], _floats(at_level), f.fx[starts])[0]
        firsts.append([xs[a] if ys[a] == t else at_level[k] for a, k in zip(starts, at.tolist())])
    return len(starts), certify(f, [IntervalQ(*sorted(pair)) for pair in zip(*firsts)])


def entropy_lower_markov(f: PLMap, refinement: int, *, _rounds: Iterator | None = None) -> float:
    """log of the spectral radius of the covering matrix on the refined partition.

    The partition starts at the critical points of f and is refined
    ``refinement`` times by pulling partition points back through f
    (:func:`_markov_rounds`).  Each round's covering matrix (M[i][j] = 1 iff
    f(I_i) contains I_j) gives a valid entropy lower bound; the running
    maximum over rounds is returned, which makes the value non-decreasing in
    ``refinement``.  When the partition outgrows PARTITION_CAP cells first,
    :class:`ResourceLimitError` is raised with the completed rounds in
    ``achieved`` and their best bound, still valid, in ``bound``.  Only
    :func:`entropy_bounds` passes ``_rounds``: the scan its zero test read.
    """
    if refinement < 0:
        raise DomainError(f"refinement must be >= 0, got {refinement}")
    best = 0.0
    rounds = _markov_rounds(f, refinement) if _rounds is None else _rounds
    for round_no, (points, left, right) in enumerate(rounds):
        if left is None:  # the round past the cap, refused from its size
            raise ResourceLimitError(
                f"covering partition exceeded {PARTITION_CAP} cells",
                achieved=round_no, cap=PARTITION_CAP, bound=best)
        radius = _interval_rows_radius(*_round_rows(points, left, right)[0])
        best = max(best, math.log(radius) if radius > 1.0 else 0.0)
    return best


def _certifies_zero(rounds: Iterator[tuple[list, np.ndarray, np.ndarray]]) -> bool:
    """Whether one of the scan ``rounds`` of a self-map g proves h(g) = 0 exactly.

    Row i of U has a one at j iff g(I_i) meets the interior of cell I_j.
    Every turning point of g is a partition point, so g is monotone on each
    cell, and the laps of g^(m+1) are at most the most paths in U of one
    length up to m, times a factor polynomial in m for the laps a flat of g
    makes constant.  So h(g) <= log rho(U) (Misiurewicz-Szlenk, Studia Math.
    67, 1980), and rho(U) <= 1, decided exactly by :func:`_radius_at_most_one`,
    gives h = 0 with no float.  A map of positive entropy never passes, since
    rho(U) >= e^h > 1.  The rounds are read lazily, up to one that passes or
    the round refused at PARTITION_CAP cells; the covering bound reads them again.
    """
    within_cap = itertools.takewhile(lambda r: r[1] is not None, rounds)
    return any(_radius_at_most_one(*_round_rows(*r)[1]) for r in within_cap)


def _round_rows(points: list, left: np.ndarray, right: np.ndarray) -> tuple[tuple, tuple]:
    """(starts, stops) of a round's covering rows C and intersects rows U.

    f is monotone on a cell, so its image is the hull [lo, hi] of f at its
    ends.  That covers cell j iff lo <= points[j] and points[j + 1] <= hi: j
    in range(bisect_left(lo), bisect_right(hi) - 1).  It meets cell j iff
    points[j + 1] > lo and points[j] < hi: j in range(bisect_right(lo) - 1,
    bisect_left(hi)), a right rank at lo (a left one drops a cell).
    """
    n = len(points) - 1
    left_lo, left_hi = np.minimum(left[:-1], left[1:]), np.maximum(left[:-1], left[1:])
    right_lo, right_hi = np.minimum(right[:-1], right[1:]), np.maximum(right[:-1], right[1:])
    c_starts, u_starts = np.minimum(left_lo, n), np.maximum(right_lo - 1, 0)
    return ((c_starts, np.maximum(right_hi - 1, c_starts)),
            (u_starts, np.maximum(np.minimum(left_hi, n), u_starts)))


def _markov_rounds(f: PLMap, refinement: int) -> Iterator[tuple[list, np.ndarray, np.ndarray]]:
    """Per round, the ascending partition and the bisect_left and bisect_right
    in it of f at each of its points.

    Round r+1 adds the preimages of the points round r added (those of older
    points are in already), so each added point's image is a partition point
    and the scan carries its index; only f at the first points, the domain
    ends and turning points, is ranked.  Points are merged in by their ranks,
    their floats beside them.  No round follows one that adds no point.

    A round's size is read from the ranks of f's values in the points added
    before it, before any preimage is built: a segment holds one preimage
    per target strictly inside its value range, and a node whose value is a
    target one more when it joins (:func:`_joins`).  Of these only the first
    points can be partition points already, since every other partition
    point's image is a point an earlier round added.  A round past
    PARTITION_CAP cells is not built: it is yielded as (cells, None, None),
    and the scan ends.
    """
    xs = f.breakpoints
    nodes = sorted({0, *_turns(f)[0].tolist(), len(xs) - 1})  # the first points' indices
    if len(nodes) < 2:
        return
    joins = _joins(f)
    joins_fresh = joins.copy()
    joins_fresh[nodes] = False
    added = points = [xs[i] for i in nodes]
    vals = eval_many(f, points)
    fpoints, fvals = _floats(points), _floats(vals)
    firsts = added_at = np.arange(len(points))  # where the first and the last added points sit
    image = np.zeros(len(points), dtype=np.int64)  # index of f(points[i]); unused at firsts
    cells = len(points) - 1
    for round_no in range(refinement + 1):
        if cells > PARTITION_CAP:
            yield cells, None, None
            return
        left, right = image.copy(), image + 1
        left[firsts], right[firsts] = rank(points, vals, fpoints, fvals)
        yield points, left, right
        if round_no == refinement:
            return
        lo, hi = ranks = rank(added, f.values, fpoints[added_at], f.fy)
        hits = np.maximum(lo[:-1], lo[1:]) - np.minimum(hi[:-1], hi[1:])
        grown = int(np.maximum(hits, 0).sum()) + int(np.count_nonzero((lo < hi) & joins_fresh))
        if not grown:
            return  # the partition is closed: later rounds repeat this one
        cells += grown
        if cells > PARTITION_CAP:
            continue  # refused at the top of the loop
        new, image_at = _pull_back(f, added, ranks, joins)
        fnew = _floats(new)
        at, past = rank(points, new, fpoints, fnew)
        fresh = np.flatnonzero(at == past)  # not partition points yet
        at = at[fresh]
        # each added point goes right before the partition point at its rank, so
        # an index moves up by the number of points inserted at or before it
        image = np.insert(image, at, added_at[np.array(image_at)[fresh]])
        image += np.searchsorted(at, image, "right")
        firsts = firsts + np.searchsorted(at, firsts, "right")
        added, added_at = [new[k] for k in fresh.tolist()], at + np.arange(len(at))
        points = np.insert(np.array(points, dtype=object), at, added).tolist()
        fpoints = np.insert(fpoints, at, fnew[fresh])


def _interval_rows_radius(starts: np.ndarray, stops: np.ndarray) -> float:
    """Certified lower estimate of the spectral radius of an interval-row 0/1 matrix.

    Row i has ones in columns ``starts[i]:stops[i]``.  Whether the radius is
    at most 1 is decided exactly first (:func:`_radius_at_most_one`); then
    0.0 is returned without any floating-point work.  Only once the radius
    is known to exceed 1 does power iteration on M + I (the shift removes
    periodicity) produce an approximate Perron vector, and the returned value
    is its Collatz-Wielandt floor min_i ((M+I)v)_i / v_i - 1, a lower bound
    on the radius for any nonnegative test vector up to float rounding of
    the floor itself.  The radius is memoized on the exact rows (the last
    _RADIUS_MEMO matrices): neighbouring scaled maps share covering
    matrices, and each is computed once.
    """
    return _rows_radius(np.asarray(starts, dtype=np.int64).tobytes(),
                        np.asarray(stops, dtype=np.int64).tobytes())


@lru_cache(maxsize=_RADIUS_MEMO)
def _rows_radius(start_bytes: bytes, stop_bytes: bytes) -> float:
    starts, stops = np.frombuffer(start_bytes, np.int64), np.frombuffer(stop_bytes, np.int64)
    if _radius_at_most_one(starts, stops):
        return 0.0
    n = len(starts)
    prefix, out, at_starts = np.zeros(n + 1), np.empty(n), np.empty(n)

    def shifted(v: np.ndarray) -> np.ndarray:
        """(M + I) v, written into the same buffer each time."""
        v.cumsum(out=prefix[1:])
        w = prefix.take(stops, out=out, mode="clip")  # the rows index prefix in range
        w -= prefix.take(starts, out=at_starts, mode="clip")
        w += v
        return w

    v = np.ones(n) / math.sqrt(n)
    prev = 0.0
    for _ in range(_POWER_ITERS):
        w = shifted(v)
        norm = math.sqrt(w.dot(w))  # what np.linalg.norm computes for a float vector
        np.divide(w, norm, out=v)
        if abs(norm - prev) <= _POWER_TOL * max(1.0, norm):
            break
        prev = norm
    # restrict to the numerically relevant support before taking the floor
    v = np.where(v > v.max() * 1e-12, v, 0.0)
    support = v > 0.0
    floor = float(np.min(shifted(v)[support] / v[support]))
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
    intervals are pushed through f k times, f^k is never built, and no
    breakpoint cap applies.
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


def _iterate_chain(g: PLMap) -> Callable[[int], PLMap | None]:
    """g^k for non-decreasing k, each level composed once, forward from the
    last one built; None from the first level the breakpoint cap refuses."""
    built, gk = 1, g

    def at(k: int) -> PLMap | None:
        nonlocal built, gk
        try:
            while gk is not None and built < k:
                gk, built = compose(g, gk), built + 1
        except ResourceLimitError:
            gk = None
        return gk

    return at


def _lap_counts(g: PLMap, chain: Callable[[int], PLMap | None]) -> Iterator[int]:
    """laps(g^k) for k = 1, 2, ..., counted from lap images (:func:`_lap_images`).

    Where laps may merge, g^k comes from ``chain``, is counted on itself
    and restarts the lap images.  Stops before the first k >= 2 with
    laps + 1 > the breakpoint cap, or at a merge level the cap refuses.
    """
    lo, hi = g.domain.lo, g.domain.hi
    whole = {(*lo.as_integer_ratio(), *hi.as_integer_ratio()): [lo, hi, 1]}  # the lap of g^0
    cap, turns, images = plmap.BREAKPOINT_CAP, _turns(g), whole
    for k in itertools.count(1):
        images = _lap_images(g, images, turns)
        if images is None:  # laps may have merged: count them on g^k
            if (gk := chain(k)) is None:
                return
            laps, images = lap_count(gk), _lap_images(gk, whole, _turns(gk))
        else:
            laps = max(1, sum(m for _, _, m in images.values()))
            if k > 1 and laps + 1 > cap:
                return  # g^k has more breakpoints than laps: compose would refuse it
        yield laps


def entropy_bounds(f: PLMap, depth: int) -> EntropyBounds:
    """Certified bracket on the invariant restriction g of f.

    Lower side is the better of the widest hull over iterates, certified
    once on its iterate, and the covering-matrix bound (up to ``depth``
    rounds within the partition cap), which is not computed once the hull
    meets the upper side; upper side is the lap-growth bound over the levels
    :func:`_lap_counts` reaches.  One chain (:func:`_iterate_chain`) builds
    g^k for the search and for the count where laps may merge.  Caps only
    reduce the achieved depth; a monotone restriction builds no iterate.

    If the search would read g^2 with no hull found on g,
    :func:`_certifies_zero` decides first, from the scan's first rounds,
    whether h = 0: if so the search reads no iterate and the scan goes no
    further (both could only give 0), else the covering bound reads them again.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    g = invariant_restriction(f)
    if lap_count(g) == 1:  # so is every iterate: no horseshoe, and one lap
        return EntropyBounds(0.0, 0.0, None, depth_used=depth)

    chain = _iterate_chain(g)
    zero_rounds, scan = itertools.tee(_markov_rounds(g, depth))
    upper, lower_h, best, zero = math.inf, 0.0, None, False
    # level 1 is always counted, so k is bound after the loop
    for k, laps in zip(range(1, depth + 1), _lap_counts(g, chain)):
        # the search takes O(n^2) time on n >= laps breakpoints: it skips large iterates and
        # those whose lap ceiling cannot beat the best rate, which only weakens the lower bound
        read = laps <= HORSESHOE_LAP_BUDGET and math.log(laps) / k > lower_h + 1e-12
        if k == 2 and read and lower_h == 0:
            zero = _certifies_zero(itertools.islice(zero_rounds, _ZERO_ROUNDS + 1))
        gk = chain(k) if read and not zero else None
        if gk is not None and len(gk) <= HORSESHOE_CAP:
            d = len(_widest_hull(gk)[2])
            if d >= 2 and math.log(d) / k > lower_h:
                lower_h, best = math.log(d) / k, (k, gk)
        upper = min(upper, math.log(laps) / k)
    lower_m = 0.0  # the covering radius cannot beat a horseshoe that meets the lap bound
    if lower_h < upper and not zero:
        try:
            lower_m = entropy_lower_markov(g, depth, _rounds=scan)
        except ResourceLimitError as exc:
            lower_m = exc.bound  # the rounds before the partition cap still count

    # min(., upper) guards against float rounding at exact equality
    if best is not None and lower_h >= lower_m - 1e-15:
        _, cert = horseshoe_max(best[1])  # certified on g^k, relabelled as one of g
        return EntropyBounds(min(lower_h, upper), upper, replace(cert, iterate=best[0]), k)
    return EntropyBounds(min(lower_m, upper), upper, None, depth_used=k)
