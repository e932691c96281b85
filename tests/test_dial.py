"""Tests for the fixed-entropy dial construction."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from entropy_banach import dial
from entropy_banach.dial import (
    DialConfig,
    build_dial_map,
    calkin_wilf,
    dial_entropy_check,
    find_a_star,
    full_horseshoe_map,
    r_of_a,
    rational_enumeration,
    theta,
)
from entropy_banach.entropy import entropy_bounds, horseshoe_max
from entropy_banach.errors import DomainError
from entropy_banach.plmap import IntervalQ, eval_at, image_interval, lap_count

FAST_CFG = DialConfig(t=math.log(2), d=3, truncation=8, lambda_grid_size=7,
                      entropy_depth=6, tolerance=5e-2)


# --- the one-parameter family -----------------------------------------------------

def test_theta_zero_is_identity():
    th = theta(F(0), 3)
    assert th.breakpoints == (0, 12)
    assert th.values == (0, 12)


def test_theta_one_full_horseshoe():
    th = theta(F(1), 3)
    d, cert = horseshoe_max(th)
    assert d == 3
    eb = entropy_bounds(th, 3)
    assert eb.lower == pytest.approx(math.log(3), abs=1e-9)


def test_theta_identity_off_the_window():
    th = theta(F(1, 3), 3)
    assert eval_at(th, F(8)) == 8
    assert eval_at(th, F(11)) == 11
    assert eval_at(th, F(9)) == 9
    assert eval_at(th, F(10)) == 10


def test_theta_window_invariance_dense_grid():
    for k in range(0, 17):
        a = F(k, 16)
        img = image_interval(theta(a, 3), IntervalQ(F(9), F(10)))
        assert img.lo >= 9 and img.hi <= 10


def test_theta_lap_bound():
    for k in range(1, 9):
        th = theta(F(k, 8), 5)
        assert lap_count(th) <= 5


def test_theta_rejects_even_branch_count():
    with pytest.raises(DomainError):
        theta(F(1, 2), 4)
    with pytest.raises(DomainError):
        full_horseshoe_map(4)


# --- the dial search ------------------------------------------------------------------

def test_r_endpoints():
    r0 = r_of_a(F(0), FAST_CFG)
    assert r0.value <= FAST_CFG.tolerance
    r1 = r_of_a(F(1), FAST_CFG)
    assert abs(r1.value - math.log(3)) <= FAST_CFG.tolerance


def test_r_of_a_monotone_trend():
    vals = [r_of_a(F(k, 4), FAST_CFG).value for k in range(5)]
    assert vals[0] < vals[-1]
    assert all(b >= a - 5e-2 for a, b in zip(vals, vals[1:]))


def test_find_a_star_converges():
    a = find_a_star(FAST_CFG)
    est = r_of_a(a, FAST_CFG)
    assert 0 < a < 1
    assert abs(est.value - math.log(2)) <= FAST_CFG.tolerance


def test_find_a_star_rejects_out_of_range():
    with pytest.raises(DomainError):
        DialConfig(t=math.log(4), d=3)


@pytest.mark.parametrize("tolerance", [0.0, -1e-2, float("nan")])
def test_config_rejects_tolerance_that_is_not_positive(tolerance):
    # NaN fails every comparison, so it must not slip past the check into the search
    with pytest.raises(DomainError, match="tolerance must be positive"):
        DialConfig(t=math.log(2), d=3, tolerance=tolerance)


# --- the rational enumeration ----------------------------------------------------------

def test_enumeration_starts_at_one():
    assert rational_enumeration(1).terms == (F(1),)


def test_enumeration_bridging_prefix():
    # targets 1, 1/2, 2 need one bridge: 1, 1/2, 1, 2
    assert rational_enumeration(5).terms == (F(1), F(1, 2), F(1), F(2), F(1, 3))


def test_enumeration_ratio_constraint_exact():
    terms = rational_enumeration(500).terms
    for a, b in zip(terms, terms[1:]):
        assert b <= 2 * a


def test_enumeration_contains_first_targets():
    terms = set(rational_enumeration(400).terms)
    for q in calkin_wilf(100):
        assert q in terms


def test_calkin_wilf_order():
    assert calkin_wilf(7) == [F(1), F(1, 2), F(2), F(1, 3), F(3, 2), F(2, 3), F(3)]


# --- the assembled map -------------------------------------------------------------------

@pytest.fixture(scope="module")
def dial_cfg():
    return replace(FAST_CFG, a_star=F(37, 64))


@pytest.fixture(scope="module")
def dial_map(dial_cfg):
    return build_dial_map(dial_cfg)


def test_dial_map_fixed_top(dial_map):
    assert eval_at(dial_map, F(10)) == 10
    assert eval_at(dial_map, F(11)) == 10
    assert eval_at(dial_map, F(0)) == 0


def test_dial_map_even(dial_map):
    for x in dial_map.breakpoints:
        assert eval_at(dial_map, -x) == eval_at(dial_map, x)


def test_dial_map_scale_ordering(dial_map):
    # the image of scale n+1 sits below the image of scale n, lambda-free
    terms = rational_enumeration(FAST_CFG.truncation).terms
    for n in range(1, FAST_CFG.truncation):
        x_n = F(1, 4) ** n
        x_next = F(1, 4) ** (n + 1)
        assert terms[n] * x_next <= F(9, 10) * terms[n - 1] * x_n


def test_dial_map_scale_conjugacy(dial_cfg, dial_map):
    # on I_n the map is exactly the compressed, lambda_n-weighted family member
    th = theta(dial_cfg.a_star, dial_cfg.d)
    terms = rational_enumeration(dial_cfg.truncation).terms
    for n in (1, 3, dial_cfg.truncation):
        x_n = F(1, 4) ** n
        for u in (F(9), F(28, 3), F(29, 3), F(10), F(95, 10)):
            assert eval_at(dial_map, x_n * u / 10) == \
                terms[n - 1] * (x_n / 10) * eval_at(th, u)


def test_build_requires_a_star():
    with pytest.raises(DomainError):
        build_dial_map(FAST_CFG)


# --- multiplier checks ----------------------------------------------------------------------

def set_check_depths(monkeypatch, vanish_depth, density_terms):
    monkeypatch.setattr(dial, "VANISH_DEPTH", vanish_depth)
    monkeypatch.setattr(dial, "DENSITY_TERMS", density_terms)


def _diagonal_crossing(lam, lam_n, n):
    """Does the box I_n x (lam f)(I_n) meet the diagonal?  (The oracle for in_window.)"""
    x_n = F(1, 4) ** n
    mu = lam * lam_n
    lo, hi = F(9, 10) * x_n, x_n
    return mu * lo <= hi and mu * hi >= lo


def test_dial_entropy_check_windows(monkeypatch, dial_cfg):
    set_check_depths(monkeypatch, 12, 64)
    records = dial_entropy_check(dial_cfg, [F(1)])
    rec = records[0]
    terms = rational_enumeration(dial_cfg.truncation).terms
    for scale_rec in rec.scales:
        expected = F(9, 10) <= scale_rec.multiplier <= F(10, 9)
        assert scale_rec.in_window == expected
        assert scale_rec.in_window == _diagonal_crossing(
            F(1), scale_rec.lambda_n, scale_rec.n)
        assert scale_rec.lambda_n == terms[scale_rec.n - 1]
    assert rec.achieved is not None
    assert rec.achieved.lower <= rec.achieved.upper


def test_dial_entropy_check_vanishing_scales(monkeypatch, dial_cfg):
    set_check_depths(monkeypatch, 24, 64)
    records = dial_entropy_check(dial_cfg, [F(18, 25)])
    for scale_rec in records[0].scales:
        assert scale_rec.in_window == _diagonal_crossing(
            F(18, 25), scale_rec.lambda_n, scale_rec.n)
        if not scale_rec.in_window:
            assert scale_rec.bounds.lower == 0.0
            assert scale_rec.bounds.upper <= 0.06


def test_dial_entropy_check_rejects_nonpositive(dial_cfg):
    with pytest.raises(DomainError):
        dial_entropy_check(dial_cfg, [F(0)])


def test_enumeration_rejects_zero_count():
    with pytest.raises(DomainError):
        rational_enumeration(0)


def orbit_itinerary(f, lam, x0, steps, truncation):
    """Scale indices visited by the orbit of x0 under lam * f.

    Entry k is the index n with |x_k| in I_n = [0.9 * 4^-n, 4^-n], or None
    when the iterate sits between scales.  The construction predicts that
    orbits visit finitely many scales and at most one of them infinitely
    often; this reports what happens on the truncated map, it does not
    prove the claim.
    """
    x = F(x0)
    out = []
    for _ in range(steps):
        x = lam * eval_at(f, x)
        out.append(next((n for n in range(1, truncation + 1)
                         if F(9, 10) * F(1, 4) ** n <= abs(x) <= F(1, 4) ** n), None))
    return out


def test_orbit_itinerary_settles(dial_cfg, dial_map):
    # an orbit from between scales drifts and then stays within one scale set
    visited = orbit_itinerary(dial_map, F(1, 2), F(5), steps=48,
                              truncation=FAST_CFG.truncation)
    seen = {n for n in visited if n is not None}
    assert len(seen) <= FAST_CFG.truncation
    tail = [n for n in visited[-12:] if n is not None]
    assert len(set(tail)) <= 1


def test_negative_multiplier_matches_positive(monkeypatch, dial_cfg):
    set_check_depths(monkeypatch, 8, 32)
    pos = dial_entropy_check(dial_cfg, [F(1)])[0]
    neg = dial_entropy_check(dial_cfg, [F(-1)])[0]
    assert neg.achieved == pos.achieved
    assert [s.bounds for s in neg.scales] == [s.bounds for s in pos.scales]
    with pytest.raises(DomainError):
        dial_entropy_check(dial_cfg, [F(0)])


def test_entropy_vanishes_outside_window():
    # multiplier 4/5 sits below the active window: certified near-zero bracket
    from entropy_banach.plmap import scale
    f = scale(theta(F(37, 64), 3), F(4, 5))
    eb = entropy_bounds(f, 32)
    assert eb.lower == 0.0
    assert eb.upper <= 0.15


def test_dial_entropy_check_far_multiplier(monkeypatch, dial_cfg):
    # a multiplier whose whole enumeration misses the window: no achieved
    # bracket, no density refinement available at this truncation
    set_check_depths(monkeypatch, 4, 32)
    rec = dial_entropy_check(dial_cfg, [F(10 ** 6)])[0]
    assert rec.achieved is None
    assert rec.nearest_multiplier is None
    assert rec.tendency_lower == 0.0


def test_scale_bounds_cache_follows_the_caps(monkeypatch):
    # a bracket cached under one cap is never returned under another
    from entropy_banach import entropy, plmap
    from entropy_banach.plmap import scale
    args = (F(37, 64), F(1), 3, 5)
    assert dial._scale_bounds(*args).depth_used == 5
    monkeypatch.setattr(entropy, "PARTITION_CAP", 4)
    assert dial._scale_bounds(*args) == entropy_bounds(scale(theta(F(37, 64), 3), F(1)), 5)
    assert dial._scale_bounds(*args).lower < 0.5
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 3)
    assert dial._scale_bounds(*args).depth_used == 1
