"""Finite-dimensional constructions: horseshoes from linearly independent families.

Given n linearly independent functions, one can pick n points whose
evaluation matrix is invertible and solve for a combination that alternates
between the smallest and largest point; its graph crosses the band between
them n-1 times, which certifies an (n-1)-horseshoe and hence entropy at
least log(n-1).  The sharpness side lives here too: cropped polynomials of
degree <= n-1 (at most n-1 laps, so entropy <= log(n-1)) and scaled sine
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .entropy import HorseshoeCertificate, certify
from .errors import ConstructionError, DependencyError, DomainError
from .plmap import (
    IntervalQ,
    PLMap,
    eval_many,
    lap_count,
    linear_combination,
    make_pl,
    sample_pl,
)

#: adaptive polynomial sampling gives up beyond this many nodes
_POLY_RESOLUTION_CAP = 1 << 16


@dataclass(frozen=True)
class FunctionFamily:
    """A finite list of PL maps treated as a basis of a function space."""

    members: tuple[PLMap, ...]
    label: str = ""

    def __post_init__(self):
        if not self.members:
            raise ConstructionError("a function family needs at least one member")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class IndependencePoints:
    """Points where the family's evaluation matrix is invertible."""

    points: tuple[Fraction, ...]
    gram_determinant: Fraction

    def __post_init__(self):
        if self.gram_determinant == 0:
            raise ConstructionError("independence points need a nonzero determinant")
        if any(self.points[i] >= self.points[i + 1]
               for i in range(len(self.points) - 1)):
            raise ConstructionError("independence points must be strictly increasing")


def gauss_jordan(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Reduce the first ``ncols`` columns of ``rows`` in place, without row swaps.

    Column c pivots on the first row, in the given order, that has not
    pivoted yet and is nonzero at c; that row is scaled to 1 at c and c is
    cleared from every other row.  The pass stops at the first column with
    no pivot.  Returns the pivot rows, one per reduced column, and the
    product of the pivots, which is the determinant of the pivot rows'
    reduced columns taken in pivot order.
    """
    pivots: list[int] = []
    product = Fraction(1)
    for c in range(ncols):
        r = next((r for r, row in enumerate(rows) if row[c] != 0 and r not in pivots), None)
        if r is None:
            break
        pivots.append(r)
        pivot = rows[r][c]
        product *= pivot
        pivot_row = rows[r] = [a / pivot for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b for a, b in zip(row, pivot_row)]
    return pivots, product


def _order_sign(seq: Sequence) -> int:
    """Sign of the permutation that sorts the distinct items of ``seq``."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def solve_linear_system(matrix: list[list[Fraction]],
                        rhs: list[Fraction]) -> list[Fraction]:
    """Exact solution of a square system by one Gauss-Jordan pass.

    Raises :class:`ConstructionError` when the matrix is singular.
    """
    n = len(matrix)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    pivots, _ = gauss_jordan(rows, n)
    if len(pivots) < n:
        raise ConstructionError("singular system")
    return [rows[r][n] for r in pivots]


def independent_points(fs: FunctionFamily, grid: Sequence) -> IndependencePoints:
    """Greedy rank extension over the grid, one point per family member.

    One Gauss-Jordan pass over the evaluation matrix, a row per grid point.
    Once columns 0..k-1 are reduced, a row that has not pivoted holds f_k(x)
    minus the relation fitted on the points chosen so far, and the pivot
    rows hold its coefficients; if no row breaks the relation, the family is
    dependent on the grid and the relation is reported.
    """
    grid_q = [Fraction(x) for x in grid]
    if not grid_q:
        raise ConstructionError("independence search needs a nonempty grid")
    n = len(fs)
    rows = list(zip(*(eval_many(f, grid_q) for f in fs.members)))
    pivots, product = gauss_jordan(rows, n)
    if not pivots:
        raise DependencyError(
            "first member vanishes on the whole grid", relation=(Fraction(1),))
    k = len(pivots)
    if k < n:
        raise DependencyError(
            f"member {k} is a grid-wide combination of the previous ones",
            relation=tuple(rows[r][k] for r in pivots) + (Fraction(-1),))
    points = [grid_q[r] for r in pivots]
    return IndependencePoints(points=tuple(sorted(points)),
                              gram_determinant=_order_sign(points) * product)


def horseshoe_combination(
    fs: FunctionFamily, pts: IndependencePoints,
) -> tuple[PLMap, HorseshoeCertificate]:
    """Combination alternating between the extreme points, with its certificate.

    Solves exactly for coefficients a with f = sum a_i f_i, f(x_i) = x_1 for
    odd i and x_n for even i (1-based).  The intervals [x_i, x_{i+1}] then
    form an (n-1)-horseshoe, validated exactly before returning.
    """
    n = len(fs)
    if n < 3:
        raise DomainError(f"need a family of at least 3 members, got {n}")
    if len(pts.points) != n:
        raise ConstructionError("points and family sizes differ")
    xs = pts.points
    matrix = list(zip(*(eval_many(f, xs) for f in fs.members)))
    targets = [xs[0] if (i + 1) % 2 == 1 else xs[-1] for i in range(n)]
    f = linear_combination(solve_linear_system(matrix, targets), fs.members)
    if eval_many(f, xs) != targets:
        raise ConstructionError("alternating combination misses its targets")
    return f, certify(f, [IntervalQ(xs[i], xs[i + 1]) for i in range(n - 1)])


def cropped_polynomial(coeffs: Sequence, a, b, resolution: int) -> PLMap:
    """PL surrogate of a polynomial on [a, b], frozen at its boundary values.

    Coefficients are low-degree first.  The polynomial is evaluated exactly
    at equispaced rational nodes; the node count doubles until the lap count
    of the surrogate stabilizes (it can never exceed the polynomial's lap
    count, which is at most its degree).
    """
    cs = [Fraction(c) for c in coeffs]
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    degree = max((i for i, c in enumerate(cs) if c != 0), default=0)
    if resolution < degree + 2:
        raise DomainError(f"resolution must be >= degree + 2 = {degree + 2}")

    def poly(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def sample(nodes: int) -> PLMap:
        step = (b - a) / (nodes - 1)
        xs = [a + k * step for k in range(nodes)]
        return make_pl(xs, [poly(x) for x in xs])

    nodes, laps = resolution, lap_count(sample(resolution))
    while nodes <= _POLY_RESOLUTION_CAP:
        nodes *= 2
        refined = sample(nodes)
        refined_laps = lap_count(refined)
        if refined_laps == laps and laps <= max(degree, 1):
            return refined
        laps = refined_laps
    raise ConstructionError(
        f"lap count failed to stabilize below {_POLY_RESOLUTION_CAP} nodes")


def sin_scaled(lam: float, resolution: int = 64) -> PLMap:
    """PL sample of x -> lam * sin(x) on [-|lam|-1, |lam|+1].

    ``resolution`` counts nodes per period; with at least 64 the sampled
    branches still cover the hulls needed for horseshoe detection.
    """
    if resolution < 64:
        raise DomainError(f"need at least 64 nodes per period, got {resolution}")
    if lam == 0.0:
        return make_pl([-1, 1], [0, 0])
    half = Fraction(abs(lam)) + 1
    periods = float(2 * half) / (2 * math.pi)
    nodes = max(int(periods * resolution) + 1, 2)
    dom = IntervalQ(-half, half)
    return sample_pl(lambda x: lam * math.sin(x), dom, nodes)
