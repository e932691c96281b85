"""Tests for the fixed-entropy dial construction."""

import math
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach import dial
from entropy_banach.dial import (
    DialConfig,
    LambdaEnumeration,
    build_dial_map,
    calkin_wilf,
    dial_entropy_check,
    find_a_star,
    full_horseshoe_map,
    r_of_a,
    rational_enumeration,
    theta,
)
from entropy_banach.entropy import EntropyBounds, entropy_bounds, horseshoe_max
from entropy_banach.errors import ConstructionError, DomainError, ResourceLimitError
from entropy_banach.plmap import IntervalQ, _floats, eval_at, image_intervals, lap_count, scale

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
        img, = image_intervals(theta(a, 3), [IntervalQ(F(9), F(10))])
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



def stub_brackets(monkeypatch, brackets):
    """Score multiplier lam by ``brackets[lam]``: its bracket and, consistently,
    its upper side as the lap bound; returns the multipliers bracketed, in order."""
    seen = []

    def bounds(a, lam, d, depth):
        seen.append(lam)
        return brackets[lam]

    monkeypatch.setattr(dial, "_scale_bounds", bounds)
    monkeypatch.setattr(dial, "_scale_upper", lambda a, lam, d, depth: brackets[lam].upper)
    return seen


def assert_unbracketed_cannot_win(est, grid, uppers, seen):
    # a multiplier left out has a lap bound below the estimate, or equal to
    # it at a later grid index: its midpoint could not have won
    k = grid.index(est.argmax)
    for i, lam in enumerate(grid):
        if lam not in seen:
            assert uppers[i] < est.value or uppers[i] == est.value and i > k


def test_r_of_a_keeps_the_first_of_equal_midpoints(monkeypatch):
    grid = dial._multiplier_grid(FAST_CFG.lambda_grid_size)
    # every multiplier scores the same bracket: the first grid multiplier wins
    seen = stub_brackets(monkeypatch, {lam: EntropyBounds(0.25, 0.75, None, 6) for lam in grid})
    est = r_of_a(F(1, 2), FAST_CFG)
    assert seen[0] == F(9, 10)
    assert (est.value, est.bracket_width, est.argmax, est.warning) == (0.5, 0.5, F(9, 10), True)
    # two equal midpoints, the later one with the larger upper side, so it is
    # bracketed first; the earlier one still wins, and the rest, with upper
    # sides below 0.5, are never bracketed
    brackets = {lam: EntropyBounds(0.0, 0.4, None, 6) for lam in grid}
    brackets[grid[2]] = EntropyBounds(0.375, 0.625, None, 6)
    brackets[grid[5]] = EntropyBounds(0.25, 0.75, None, 6)
    seen = stub_brackets(monkeypatch, brackets)
    est = r_of_a(F(1, 2), FAST_CFG)
    assert seen == [grid[5], grid[2]]
    assert (est.value, est.bracket_width, est.argmax) == (0.5, 0.25, grid[2])
    assert_unbracketed_cannot_win(est, grid, [brackets[lam].upper for lam in grid], seen)


def full_grid_oracle(a, cfg):
    """(value, width, argmax) of the first maximal bracket midpoint over the
    whole grid, and the brackets, each multiplier bracketed."""
    grid = dial._multiplier_grid(cfg.lambda_grid_size)
    brackets = [entropy_bounds(scale(theta(a, cfg.d), lam), cfg.entropy_depth) for lam in grid]
    top = max(eb.midpoint for eb in brackets)
    k = next(i for i, eb in enumerate(brackets) if eb.midpoint == top)
    return (top, brackets[k].width, grid[k]), brackets


@pytest.mark.parametrize("a", [F(37, 64), F(20, 64)])
def test_r_of_a_scores_exactly_the_multiplier_grid(monkeypatch, a):
    # criterion 8's grid: r(a) brackets grid multipliers only, each at most
    # once, and gives the estimate of scoring the whole grid; at 20/64 some
    # multipliers off the grid score higher
    cfg = DialConfig(t=math.log(2), d=3, truncation=12, lambda_grid_size=21,
                     entropy_depth=8, tolerance=1e-2)
    grid = dial._multiplier_grid(cfg.lambda_grid_size)
    seen = []

    def spy(a_, lam, d, depth):
        seen.append(lam)
        return real(a_, lam, d, depth)

    real = dial._scale_bounds
    monkeypatch.setattr(dial, "_scale_bounds", spy)
    est = r_of_a(a, cfg)
    assert len(set(seen)) == len(seen) and set(seen) <= set(grid)
    expected, brackets = full_grid_oracle(a, cfg)
    assert (est.value, est.bracket_width, est.argmax) == expected
    uppers = [dial._scale_upper(a, lam, cfg.d, cfg.entropy_depth) for lam in grid]
    assert uppers == [eb.upper for eb in brackets]
    assert_unbracketed_cannot_win(est, grid, uppers, seen)


def test_r_of_a_matches_the_full_grid_on_a_sixty_fourth_grid():
    for k in range(65):
        est = r_of_a(F(k, 64), FAST_CFG)
        expected, _ = full_grid_oracle(F(k, 64), FAST_CFG)
        assert (est.value, est.bracket_width, est.argmax) == expected, k


def test_find_a_star_converges():
    a = find_a_star(FAST_CFG)
    est = r_of_a(a, FAST_CFG)
    assert 0 < a < 1
    assert abs(est.value - math.log(2)) <= FAST_CFG.tolerance


def test_find_a_star_stall_names_the_final_bracketing_pair():
    # at tolerance 1e-2, r jumps past t = 0.35 near a = 1/2: the one-line error
    # names lo and hi with r(lo) < t <= r(hi), and the best residual
    cfg = DialConfig(t=0.35, d=3, truncation=6, lambda_grid_size=7,
                     entropy_depth=6, tolerance=1e-2)
    with pytest.raises(ConstructionError) as info:
        find_a_star(cfg)
    message = str(info.value)
    assert "\n" not in message
    found = re.fullmatch(
        r"bisection stalled with residual (\S+) > tolerance 0\.01: r jumps past "
        r"t=0\.3500 between a=(\S+) \(r=\S+\) and a=(\S+) \(r=\S+\)", message)
    assert found, message
    lo, hi = F(found[2]), F(found[3])
    assert 0 < hi - lo <= F(1, 1 << 25)
    assert r_of_a(lo, cfg).value < cfg.t <= r_of_a(hi, cfg).value
    assert float(found[1]) == pytest.approx(0.0366, abs=5e-5)
    assert float(found[1]) > cfg.tolerance


def test_find_a_star_rejects_out_of_range():
    with pytest.raises(DomainError):
        DialConfig(t=math.log(4), d=3)


@pytest.mark.parametrize("field, value, message", [
    ("truncation", 0, "truncation must be >= 1, got 0"),
    ("lambda_grid_size", 2, "lambda grid size must be >= 3, got 2"),
    ("entropy_depth", 0, "entropy depth must be >= 1, got 0"),
])
def test_config_names_the_field_below_its_bound(field, value, message):
    with pytest.raises(DomainError) as err:
        DialConfig(t=math.log(2), d=3, **{field: value})
    assert str(err.value) == message


def test_config_refuses_a_lambda_grid_above_the_cap():
    # checked on the integer: a grid of 10^30 multipliers is never built
    DialConfig(t=math.log(2), d=3, lambda_grid_size=dial.LAMBDA_GRID_CAP)
    for size in (dial.LAMBDA_GRID_CAP + 1, 10 ** 30):
        with pytest.raises(ResourceLimitError) as err:
            DialConfig(t=math.log(2), d=3, lambda_grid_size=size)
        assert str(err.value) == f"lambda grid size {size} exceeds the cap of {dial.LAMBDA_GRID_CAP}"
        assert (err.value.needed, err.value.cap) == (size, dial.LAMBDA_GRID_CAP)


def test_config_refuses_a_truncation_above_the_cap():
    # checked on the integer before any scale is built
    DialConfig(t=math.log(2), d=3, truncation=dial.TRUNCATION_CAP)
    for n in (dial.TRUNCATION_CAP + 1, 10 ** 30):
        with pytest.raises(ResourceLimitError) as err:
            DialConfig(t=math.log(2), d=3, truncation=n)
        assert str(err.value) == f"truncation {n} exceeds the cap of {dial.TRUNCATION_CAP}"
        assert (err.value.needed, err.value.cap) == (n, dial.TRUNCATION_CAP)


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


def rational_enumeration_oracle(count):
    """The enumeration before the integer pairs: Fraction steps and comparisons."""
    targets, q = [F(1)], F(1)
    for _ in range(count - 1):
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)
        targets.append(q)
    terms, current = [F(1)], F(1)
    for cw in targets[1:]:
        while cw > 2 * current and len(terms) < count:
            current *= 2
            terms.append(current)
        if len(terms) < count:
            terms.append(cw)
            current = cw
    return tuple(terms)


@pytest.mark.parametrize("count", [1, 2, 5, 64, 1024])
def test_integer_enumeration_matches_the_fraction_oracle(count):
    terms = rational_enumeration(count).terms
    assert terms == rational_enumeration_oracle(count)
    # each term is a Fraction in lowest terms, as the oracle's are
    assert all(math.gcd(*t.as_integer_ratio()) == 1 for t in terms)


def test_enumeration_rejects_a_more_than_doubling_step():
    LambdaEnumeration((F(1), F(2)))  # exactly doubling is allowed
    with pytest.raises(ConstructionError, match="ratio violation"):
        LambdaEnumeration((F(1), F(1, 3), F(2, 3) + F(1, 2 ** 80)))


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


def test_dial_entropy_check_refuses_more_multipliers_than_the_cap(monkeypatch, dial_cfg):
    # the count is checked before r(a) or any scale's bracket
    def no_bracket(*args):
        raise AssertionError("a bracket was computed before the cap check")

    monkeypatch.setattr(dial, "r_of_a", no_bracket)
    monkeypatch.setattr(dial, "_scale_bounds", no_bracket)
    with pytest.raises(ResourceLimitError) as err:
        dial_entropy_check(dial_cfg, [F(1)] * (dial.CHECK_LAMBDAS_CAP + 1))
    assert (err.value.needed, err.value.cap) == (dial.CHECK_LAMBDAS_CAP + 1, dial.CHECK_LAMBDAS_CAP)


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


def test_enumeration_is_built_once_per_count():
    assert rational_enumeration(dial.DENSITY_TERMS) is rational_enumeration(dial.DENSITY_TERMS)


_DENSE = rational_enumeration(dial.DENSITY_TERMS).terms
_WINDOW = (dial.WINDOW_LO, dial.WINDOW_HI)


def nearest_oracle(lam, terms, target):
    """The nearest multiplier as taken before the float pass: every product
    and every distance compared exactly, the first of equal ones kept."""
    return min((lam * term for term in terms if F(9, 10) <= lam * term <= F(10, 9)),
               key=lambda mu: abs(mu - target), default=None)


@st.composite
def nearest_cases(draw):
    """(lam, target): products on a window edge, 2^-70 off one, far past
    the float range, and targets halfway between two products (a tie)."""
    term, edge = draw(st.sampled_from(_DENSE)), draw(st.sampled_from(_WINDOW))
    lam = draw(st.one_of(
        st.fractions(min_value=F(1, 64), max_value=64, max_denominator=1000),
        st.just(edge / term),
        st.sampled_from([-1, 1]).map(lambda k: (edge + k * F(1, 2 ** 70)) / term),
        st.sampled_from([F(10 ** 400), F(1, 10 ** 400), F(10 ** 308, 7)])))
    inside = sorted({lam * t for t in _DENSE if _WINDOW[0] <= lam * t <= _WINDOW[1]})
    targets = [st.fractions(*_WINDOW, max_denominator=10 ** 6), st.sampled_from(_WINDOW)]
    if inside:
        targets.append(st.sampled_from(inside))
    if len(inside) > 1:
        targets.append(st.integers(0, len(inside) - 2).map(
            lambda i: (inside[i] + inside[i + 1]) / 2))
    return lam, draw(st.one_of(targets))


@settings(max_examples=200, deadline=None)
@given(nearest_cases())
def test_nearest_multiplier_matches_the_exact_oracle(case):
    lam, target = case
    assert dial._nearest_in_window(lam, _DENSE, _floats(_DENSE), target) == \
        nearest_oracle(lam, _DENSE, target)


@pytest.mark.parametrize("edge", _WINDOW)
@pytest.mark.parametrize("term", [F(1), F(1, 3), F(5, 2)])
def test_nearest_multiplier_on_a_window_edge(edge, term):
    # lam * term lands exactly on the edge: inside; 2^-70 beyond it: outside
    for lam in (edge / term, (edge - F(1, 2 ** 70)) / term, (edge + F(1, 2 ** 70)) / term):
        for target in (edge, F(1)):
            got = dial._nearest_in_window(lam, _DENSE, _floats(_DENSE), target)
            assert got == nearest_oracle(lam, _DENSE, target)
    assert dial._nearest_in_window(edge / term, _DENSE, _floats(_DENSE), edge) == edge


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
    args = (F(37, 64), F(1), 3, 5)
    assert dial._scale_bounds(*args).depth_used == 5
    monkeypatch.setattr(entropy, "PARTITION_CAP", 4)
    assert dial._scale_bounds(*args) == entropy_bounds(scale(theta(F(37, 64), 3), F(1)), 5)
    assert dial._scale_bounds(*args).lower < 0.5
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 3)
    assert dial._scale_bounds(*args).depth_used == 1


def test_scale_upper_cache_follows_the_breakpoint_cap(monkeypatch):
    # a lap bound cached under one breakpoint cap is never returned under another
    from entropy_banach import plmap
    args = (F(37, 64), F(1), 3, 5)
    f = scale(theta(F(37, 64), 3), F(1))
    uncapped = dial._scale_upper(*args)
    assert uncapped == entropy_bounds(f, 5).upper
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 3)
    assert dial._scale_upper(*args) == entropy_bounds(f, 5).upper > uncapped
