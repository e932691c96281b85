"""Tests for family-based horseshoe constructions and sharpness examples."""

import math
from fractions import Fraction as F

import pytest

from entropy_banach.entropy import entropy_upper_lap, horseshoe_max, validate_certificate
from entropy_banach.errors import ConstructionError, DependencyError, DomainError
from entropy_banach.plmap import IntervalQ, eval_at, lap_count, make_pl, sample_pl, sup_norm
from entropy_banach.spaces import (
    FunctionFamily,
    cropped_polynomial,
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


# --- independence -------------------------------------------------------------

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
