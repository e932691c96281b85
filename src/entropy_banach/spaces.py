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
    eval_at,
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


def solve_linear_system(matrix: list[list[Fraction]],
                        rhs: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Exact (determinant, solution) of a square system by Gauss-Jordan with pivoting.

    Raises :class:`ConstructionError` when the matrix is singular.
    """
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ConstructionError("singular system")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det, [m[r][n] for r in range(n)]


def independent_points(fs: FunctionFamily, grid: Sequence) -> IndependencePoints:
    """Greedy rank extension over the grid, one point per family member.

    Maintains points x_1..x_k with invertible k x k evaluation matrix; the
    next point is any grid point where f_{k+1} breaks the unique linear
    relation fitted on the current points.  If none exists the family is
    dependent on the grid and the relation's coefficients are reported.
    """
    grid_q = [Fraction(x) for x in grid]
    if not grid_q:
        raise ConstructionError("independence search needs a nonempty grid")
    members = fs.members
    points: list[Fraction] = []
    for k, f in enumerate(members):
        if k == 0:
            found = next((x for x in grid_q if eval_at(f, x) != 0), None)
            if found is None:
                raise DependencyError(
                    "first member vanishes on the whole grid", relation=(Fraction(1),))
            points.append(found)
            continue
        matrix = [[eval_at(members[j], points[i]) for j in range(k)]
                  for i in range(k)]
        rhs = [eval_at(f, points[i]) for i in range(k)]
        _, coeffs = solve_linear_system(matrix, rhs)
        found = None
        for x in grid_q:
            if x in points:
                continue
            predicted = sum(c * eval_at(members[j], x) for j, c in enumerate(coeffs))
            if eval_at(f, x) != predicted:
                found = x
                break
        if found is None:
            relation = tuple(coeffs) + (Fraction(-1),)
            raise DependencyError(
                f"member {k} is a grid-wide combination of the previous ones",
                relation=relation)
        points.append(found)
    points.sort()
    n = len(members)
    eval_matrix = [[eval_at(members[j], points[i]) for j in range(n)]
                   for i in range(n)]
    det, _ = solve_linear_system(eval_matrix, [Fraction(0)] * n)
    return IndependencePoints(points=tuple(points), gram_determinant=det)


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
    matrix = [[eval_at(fs.members[j], xs[i]) for j in range(n)] for i in range(n)]
    targets = [xs[0] if (i + 1) % 2 == 1 else xs[-1] for i in range(n)]
    _, coeffs = solve_linear_system(matrix, targets)
    f = linear_combination(coeffs, fs.members)
    if any(eval_at(f, xs[i]) != targets[i] for i in range(n)):
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

    nodes = resolution
    f = sample(nodes)
    laps = lap_count(f)
    while nodes <= _POLY_RESOLUTION_CAP:
        nodes *= 2
        refined = sample(nodes)
        refined_laps = lap_count(refined)
        if refined_laps == laps and laps <= max(degree, 1):
            return refined
        f, laps = refined, refined_laps
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
