"""Tests for the multiscale isometric embedding."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach.entropy import validate_certificate
from entropy_banach.errors import ConstructionError, DomainError
from entropy_banach.plmap import (
    PLMap,
    eval_at,
    linear_combination,
    make_pl,
    pl_equal,
    sup_norm,
)
from entropy_banach.universal import (
    geometric_schedule,
    hoelder_schedule,
    make_schedule,
    psi,
    psi_horseshoe,
)

TENT = make_pl([0, F(1, 2), 1], [0, 1, 0])
GEO = geometric_schedule(F(2, 3), 8)


@st.composite
def unit_pl_maps(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    interior = sorted(draw(st.sets(
        st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16),
        min_size=k, max_size=k)))
    xs = [F(0)] + interior + [F(1)]
    ys = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        min_size=len(xs), max_size=len(xs)))
    return make_pl(xs, ys)


# --- schedules ------------------------------------------------------------------

def test_geometric_schedule_invariants():
    s = geometric_schedule(F(2, 3), 10)
    assert s.q[0] == 1
    for n in range(10):
        assert s.q[n + 1] < s.q[n]
        assert s.q[n + 1] / s.p[n + 1] > s.q[n] / s.p[n]
        assert s.q[n] >= s.p[n]


def test_geometric_schedule_ratio_range():
    with pytest.raises(ConstructionError):
        geometric_schedule(F(1, 2), 4)
    with pytest.raises(ConstructionError):
        geometric_schedule(F(1), 4)


def test_hoelder_schedule_invariants():
    s = hoelder_schedule(F(1, 2), 12)
    assert s.q[0] == 1
    for n in range(12):
        assert s.q[n + 1] < s.q[n]
        assert s.q[n] >= s.p[n]
        assert s.q[n + 1] / s.p[n + 1] > s.q[n] / s.p[n]


# --- the embedding ---------------------------------------------------------------

def test_psi_zero_map():
    z = make_pl([0, 1], [0, 0])
    assert sup_norm(psi(z, GEO)) == 0


def test_psi_isometry_tent():
    assert sup_norm(psi(TENT, GEO)) == sup_norm(TENT)


def test_psi_figure_profile():
    s = geometric_schedule(F(2, 3), 6)
    g = psi(TENT, s)
    # copy n has amplitude (2/3)^n at the midpoint of its carrier interval
    for n in range(7):
        p = F(1, 2) ** n
        peak_x = p * (F(1, 2) / 2 + F(3, 4))  # image of the tent's apex
        assert eval_at(g, peak_x) == F(2, 3) ** n
        assert eval_at(g, F(2, 3) * p) == 0
        assert eval_at(g, F(4, 3) * p) == 0


def test_psi_even_and_zero_tail():
    g = psi(TENT, GEO)
    for x in g.breakpoints:
        assert eval_at(g, -x) == eval_at(g, x)
    assert eval_at(g, F(4, 3)) == 0
    assert eval_at(g, F(10)) == 0
    core = F(2, 3) * GEO.p[GEO.truncation]
    assert eval_at(g, core / 2) == 0


def test_psi_rejects_wrong_domain():
    with pytest.raises(DomainError):
        psi(make_pl([0, 2], [0, 1]), GEO)


def psi_oracle(f, sched):
    """psi before the integer nodes: Fraction products, mirror filtered by x > core."""
    N = sched.truncation
    core = F(2, 3) * sched.p[N]
    xs = [-core, core]
    ys = [F(0), F(0)]
    for n in range(N, -1, -1):
        p_n, q_n = sched.p[n], sched.q[n]
        for u, v in zip(f.breakpoints, f.values):
            xs.append(p_n * (F(u) / 2 + F(3, 4)))
            ys.append(q_n * v)
        xs.append(F(4, 3) * p_n)
        ys.append(F(0))
    mirror_x = [-x for x in reversed(xs) if x > core]
    mirror_y = [y for x, y in zip(reversed(xs), reversed(ys)) if x > core]
    return PLMap(tuple(mirror_x + xs), tuple(mirror_y + ys))


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(["geometric", "hoelder"]))
    low, high = (F(1, 2), F(1)) if kind == "geometric" else (F(0), F(1))
    parameter = draw(st.fractions(min_value=low, max_value=high, max_denominator=12)
                     .filter(lambda x: low < x < high))
    return make_schedule(kind, parameter, draw(st.integers(min_value=0, max_value=8)))


@settings(max_examples=60, deadline=None)
@given(unit_pl_maps(), schedules())
def test_psi_matches_oracle(f, sched):
    # unit_pl_maps draws non-dyadic breakpoints too (thirds, fifths, ...)
    g, expected = psi(f, sched), psi_oracle(f, sched)
    assert (g.breakpoints, g.values) == (expected.breakpoints, expected.values)
    assert (g.fx.tolist(), g.fy.tolist()) == (expected.fx.tolist(), expected.fy.tolist())


@settings(max_examples=30, deadline=None)
@given(unit_pl_maps())
def test_psi_isometry_random(f):
    assert sup_norm(psi(f, GEO)) == sup_norm(f)


@settings(max_examples=20, deadline=None)
@given(unit_pl_maps(), unit_pl_maps(),
       st.fractions(min_value=-2, max_value=2, max_denominator=8),
       st.fractions(min_value=-2, max_value=2, max_denominator=8))
def test_psi_linearity_random(f, g, a, b):
    sched = GEO
    lhs = psi(linear_combination([a, b], [f, g]), sched)
    rhs = linear_combination([a, b], [psi(f, sched), psi(g, sched)])
    assert pl_equal(lhs, rhs)


# --- horseshoes of embedded maps ------------------------------------------------------

def test_psi_horseshoe_minimal_level():
    # amplitude/scale ratio (4/3)^n must beat 2^d; for the tent and d = 3
    # the first admissible level is 8
    sched = geometric_schedule(F(2, 3), 16)
    cert = psi_horseshoe(TENT, sched, 3)
    top = max(iv.hi for iv in cert.intervals)
    assert top == F(4, 3) * F(1, 2) ** 6  # windows 6, 7, 8
    assert validate_certificate(psi(TENT, sched), cert)


def test_psi_horseshoe_truncation_error():
    with pytest.raises(DomainError, match=r"need N >= 8$"):
        psi_horseshoe(TENT, geometric_schedule(F(2, 3), 4), 3)


def test_psi_horseshoe_zero_map_rejected():
    with pytest.raises(DomainError):
        psi_horseshoe(make_pl([0, 1], [0, 0]), GEO, 2)


def test_psi_horseshoe_negative_side():
    flipped = make_pl([0, F(1, 2), 1], [0, -1, 0])
    sched = geometric_schedule(F(2, 3), 10)
    cert = psi_horseshoe(flipped, sched, 2)
    assert all(iv.hi <= 0 for iv in cert.intervals)
    assert validate_certificate(psi(flipped, sched), cert)


# --- hoelder quotients -------------------------------------------------------------------

def holder_quotient(g, alpha, grid):
    """max of |g(x)-g(y)| / |x-y|^alpha over pairs at distance in (0, 1].

    Pairs run over the provided grid plus all breakpoints of g; for PL maps
    the breakpoint pairs dominate.
    """
    pts = sorted(set(g.breakpoints) | {F(x) for x in grid})
    vals = [eval_at(g, x) for x in pts]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = pts[j] - pts[i]
            if dist > 1:
                break
            diff = abs(vals[j] - vals[i])
            if diff:
                best = max(best, float(diff) / float(dist) ** alpha)
    return best


def test_holder_quotient_constant():
    c = make_pl([0, 1], [2, 2])
    assert holder_quotient(c, 0.5, [F(0), F(1)]) == 0.0


def test_holder_quotient_identity():
    ident = make_pl([0, 1], [0, 1])
    q = holder_quotient(ident, 0.5, [F(0), F(1, 4), F(1)])
    # distance-1 pair gives 1; the 1/4 pair gives (1/4) / (1/2) = 1/2
    assert q == pytest.approx(1.0)


def test_holder_quotient_stabilizes_across_truncations():
    q10 = holder_quotient(psi(TENT, hoelder_schedule(F(1, 2), 10)), 0.5, [F(0)])
    q14 = holder_quotient(psi(TENT, hoelder_schedule(F(1, 2), 14)), 0.5, [F(0)])
    assert q14 <= q10 * 1.05 + 1e-9


def test_psi_horseshoe_succeeds_at_reported_minimum():
    with pytest.raises(DomainError) as err:
        psi_horseshoe(TENT, geometric_schedule(F(2, 3), 4), 3)
    needed = int(re.search(r"need N >= (\d+)$", str(err.value)).group(1))
    sched = geometric_schedule(F(2, 3), needed)
    cert = psi_horseshoe(TENT, sched, 3)
    assert validate_certificate(psi(TENT, sched), cert)
