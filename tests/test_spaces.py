"""Tests for family-based horseshoe constructions and sharpness examples."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach.entropy import entropy_upper_lap, horseshoe_max, validate_certificate
from entropy_banach.errors import ConstructionError, DependencyError, DomainError
from entropy_banach.plmap import (
    IntervalQ,
    eval_at,
    lap_count,
    linear_combination,
    make_pl,
    sample_pl,
    sup_norm,
)
from entropy_banach.spaces import (
    FunctionFamily,
    IndependencePoints,
    cropped_polynomial,
    gauss_jordan,
    horseshoe_combination,
    independent_points,
    sin_scaled,
    solve_linear_system,
)

ONE = make_pl([0, 1], [1, 1])
X = make_pl([0, 1], [0, 1])
TENT = make_pl([0, F(1, 2), 1], [0, 1, 0])


def brute_force_invertible_triple(members, grid):
    """Oracle for the independence search: scan all grid triples."""
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            for k in range(j + 1, len(grid)):
                pts = [grid[i], grid[j], grid[k]]
                m = [[eval_at(f, p) for f in members] for p in pts]
                try:
                    solve_linear_system(m, [F(0)] * 3)
                except ConstructionError:  # singular
                    continue
                return True
    return False


def pivoting_solve(matrix, rhs):
    """Oracle for the solver: Gauss-Jordan with row swaps, the determinant from the swaps."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    det = F(1)
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


def greedy_independent_points(fs, grid):
    """Oracle for the independence search: one k x k solve per member, then one for
    the determinant, with every value from a single-point ``eval_at``."""
    grid_q = [F(x) for x in grid]
    if not grid_q:
        raise ConstructionError("independence search needs a nonempty grid")
    members = fs.members
    points = []
    for k, f in enumerate(members):
        if k == 0:
            found = next((x for x in grid_q if eval_at(f, x) != 0), None)
            if found is None:
                raise DependencyError(
                    "first member vanishes on the whole grid", relation=(F(1),))
            points.append(found)
            continue
        matrix = [[eval_at(members[j], points[i]) for j in range(k)] for i in range(k)]
        rhs = [eval_at(f, points[i]) for i in range(k)]
        _, coeffs = pivoting_solve(matrix, rhs)
        found = None
        for x in grid_q:
            if x in points:
                continue
            predicted = sum(c * eval_at(members[j], x) for j, c in enumerate(coeffs))
            if eval_at(f, x) != predicted:
                found = x
                break
        if found is None:
            raise DependencyError(
                f"member {k} is a grid-wide combination of the previous ones",
                relation=tuple(coeffs) + (F(-1),))
        points.append(found)
    points.sort()
    n = len(members)
    eval_matrix = [[eval_at(members[j], points[i]) for j in range(n)] for i in range(n)]
    det, _ = pivoting_solve(eval_matrix, [F(0)] * n)
    return IndependencePoints(points=tuple(points), gram_determinant=det)


def _outcome(search, fam, grid):
    """Points and determinant, or the dependency's message and relation."""
    try:
        pts = search(fam, grid)
    except DependencyError as err:
        return str(err), err.relation
    return pts.points, pts.gram_determinant


_SMALL_Q = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def _families_and_grids(draw):
    """Families with zero members and combinations of earlier members; grids that
    repeat points, come unsorted and reach past the members' domains."""
    members = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 9))  # mostly fresh maps, so most families reach n
        if kind == 0 and members:
            coeffs = draw(st.lists(_SMALL_Q, min_size=len(members), max_size=len(members)))
            members.append(linear_combination(coeffs, members))
        elif kind == 1:
            members.append(make_pl([0, 1], [0, 0]))
        else:
            xs = draw(st.lists(st.integers(0, 8), min_size=2, max_size=5, unique=True))
            ys = draw(st.lists(st.integers(-8, 8), min_size=len(xs), max_size=len(xs)))
            members.append(make_pl([F(x, 8) for x in sorted(xs)], [F(y, 4) for y in ys]))
    grid = draw(st.lists(st.integers(-2, 10).map(lambda k: F(k, 8)),
                         min_size=2 * len(members), max_size=14))
    return FunctionFamily(members=tuple(members)), grid


# --- the eliminator ----------------------------------------------------------------

def test_gauss_jordan_pivots_in_row_order_without_swaps():
    rows = [[F(0), F(1)], [F(2), F(3)], [F(4), F(6)]]
    assert gauss_jordan(rows, 2) == ([1, 0], F(2))
    assert rows == [[0, 1], [1, 0], [0, 0]]


def test_gauss_jordan_stops_at_the_first_column_without_pivot():
    rows = [[F(1), F(2), F(5)], [F(2), F(4), F(7)]]
    assert gauss_jordan(rows, 3) == ([0], F(1))
    assert rows == [[1, 2, 5], [0, 0, -3]]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2).map(F), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(_SMALL_Q, min_size=n, max_size=n))))
def test_solve_linear_system_matches_pivoting_oracle(system):
    matrix, rhs = system
    try:
        expected = pivoting_solve(matrix, rhs)
    except ConstructionError:
        with pytest.raises(ConstructionError, match="singular system"):
            solve_linear_system(matrix, rhs)
        return
    assert solve_linear_system(matrix, rhs) == expected


# --- independence -------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_families_and_grids())
def test_independent_points_matches_greedy_oracle(case):
    fam, grid = case
    assert _outcome(independent_points, fam, grid) == _outcome(
        greedy_independent_points, fam, grid)


def test_independent_points_vandermonde():
    fam = FunctionFamily(members=(ONE, X), label="affine")
    pts = independent_points(fam, [F(0), F(1, 2), F(1)])
    assert len(pts.points) == 2
    assert pts.gram_determinant != 0


def test_independent_points_dependency_reports_relation():
    two_x = make_pl([0, 1], [0, 2])
    fam = FunctionFamily(members=(X, two_x), label="proportional")
    with pytest.raises(DependencyError) as err:
        independent_points(fam, [F(k, 8) for k in range(9)])
    # relation: 2 * x - (2x) = 0
    assert err.value.relation == (F(2), F(-1))


def test_independent_points_quadratic_family():
    grid = [F(k, 10) for k in range(11)]
    x_sq = sample_pl(lambda v: v * v, IntervalQ(F(0), F(1)), 11)
    members = (ONE, X, x_sq)
    # oracle first: exhaustive scan confirms an invertible triple exists
    assert brute_force_invertible_triple(members, grid)
    pts = independent_points(FunctionFamily(members=members, label="quad"), grid)
    assert len(pts.points) == 3
    assert pts.gram_determinant != 0


# --- alternating combinations ----------------------------------------------------

def test_horseshoe_combination_n3():
    fam = FunctionFamily(members=(ONE, X, TENT), label="mixed")
    pts = independent_points(fam, [F(k, 8) for k in range(9)])
    f, cert = horseshoe_combination(fam, pts)
    x = pts.points
    assert eval_at(f, x[0]) == x[0]
    assert eval_at(f, x[1]) == x[2]
    assert eval_at(f, x[2]) == x[0]
    assert cert.d == 2
    assert validate_certificate(f, cert)
    assert cert.rate >= math.log(2) - 1e-12


def test_horseshoe_combination_rejects_small_family():
    fam = FunctionFamily(members=(ONE, X), label="small")
    pts = independent_points(fam, [F(0), F(1)])
    with pytest.raises(DomainError):
        horseshoe_combination(fam, pts)


# --- cropped polynomials -----------------------------------------------------------

def test_cropped_polynomial_identity():
    f = cropped_polynomial([0, 1], F(-2), F(3), 4)
    assert eval_at(f, F(1, 3)) == F(1, 3)
    assert eval_at(f, F(100)) == 3
    assert eval_at(f, F(-100)) == -2


def test_cropped_polynomial_parabola():
    f = cropped_polynomial([0, 0, 1], -1, 1, 4)
    assert lap_count(f) == 2
    assert entropy_upper_lap(f, 1) <= math.log(2) + 1e-12
    assert eval_at(f, F(5)) == 1  # frozen boundary value


def test_cropped_polynomial_degree_bound():
    # degree n-1 stays at most (n-1)-lapped, entropy at most log(n-1)
    for n in range(3, 7):
        coeffs = [F((-1) ** j, j + 1) for j in range(n)]
        f = cropped_polynomial(coeffs, -1, 1, n + 2)
        assert lap_count(f) <= n - 1
        assert entropy_upper_lap(f, 1) <= math.log(n - 1) + 1e-9


def test_cropped_polynomial_matches_exact_values():
    # PL surrogate agrees with the polynomial exactly at its nodes
    coeffs = [F(1), F(-2), F(1, 2), F(1, 3)]
    f = cropped_polynomial(coeffs, 0, 2, 6)
    for x in f.breakpoints:
        expected = sum(c * x ** k for k, c in enumerate(coeffs))
        assert eval_at(f, x) == expected


# --- scaled sine -------------------------------------------------------------------------

def test_sin_scaled_horseshoes():
    for d in (2, 3):
        f = sin_scaled(2 * math.pi * d, 64)
        found, cert = horseshoe_max(f)
        assert found >= d
        assert validate_certificate(f, cert)


def test_sin_scaled_zero():
    f = sin_scaled(0.0)
    assert sup_norm(f) == 0
    assert horseshoe_max(f) == (1, None)


def test_sin_scaled_resolution_guard():
    with pytest.raises(DomainError):
        sin_scaled(1.0, 32)


# --- exact solver oracle agreement ----------------------------------------------------

def test_solve_linear_system_roundtrip():
    m = [[F(2), F(1)], [F(1), F(-1)]]
    det, sol = solve_linear_system(m, [F(5), F(1)])
    assert det == F(-3)
    assert [sum(r * s for r, s in zip(row, sol)) for row in m] == [F(5), F(1)]
