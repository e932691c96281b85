"""Exactness tests for the piecewise-linear calculus."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach import plmap
from entropy_banach.dial import theta
from entropy_banach.errors import ConstructionError, DomainError, ResourceLimitError
from entropy_banach.plmap import (
    IntervalQ,
    compose,
    crop,
    eval_at,
    eval_many,
    even_extension,
    image_interval,
    lap_count,
    linear_combination,
    make_pl,
    oscillation,
    pl_equal,
    sample_pl,
    scale,
    sup_norm,
)

TENT = make_pl([0, F(1, 2), 1], [0, 1, 0])
IDENT = make_pl([0, 1], [0, 1])


def brute_lap_count(f):
    """Oracle: count sign changes of nonzero slopes directly."""
    signs = []
    for i in range(len(f.breakpoints) - 1):
        d = f.values[i + 1] - f.values[i]
        if d:
            signs.append(1 if d > 0 else -1)
    if not signs:
        return 1
    return 1 + sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def brute_image(f, J, grid=200):
    """Oracle: min/max of f over a dense rational grid of J plus breakpoints."""
    pts = [J.lo + (J.hi - J.lo) * F(k, grid) for k in range(grid + 1)]
    pts += [x for x in f.breakpoints if J.lo <= x <= J.hi]
    vals = [eval_at(f, p) for p in pts]
    return min(vals), max(vals)


# --- construction and evaluation -------------------------------------------

def test_make_pl_identity():
    assert eval_at(IDENT, F(1, 3)) == F(1, 3)


def test_make_pl_tent():
    assert eval_at(TENT, F(1, 4)) == F(1, 2)
    assert eval_at(TENT, F(1, 2)) == 1


def test_constant_extension():
    const5 = make_pl([0, 1], [5, 5])
    assert eval_at(const5, F(100)) == 5
    assert eval_at(TENT, F(2)) == 0
    assert eval_at(TENT, F(-3)) == 0


def test_make_pl_rejects_bad_input():
    with pytest.raises(ConstructionError):
        make_pl([0, 0, 1], [1, 2, 3])
    with pytest.raises(ConstructionError):
        make_pl([1, 0], [1, 2])
    with pytest.raises(ConstructionError):
        make_pl([0, 1], [1])
    with pytest.raises(ConstructionError):
        make_pl([], [])


# --- composition ------------------------------------------------------------

def test_compose_identity():
    assert pl_equal(compose(IDENT, TENT), TENT)
    assert pl_equal(compose(TENT, IDENT), TENT)


def test_compose_tent_tent_against_pointwise_oracle():
    t2 = compose(TENT, TENT)
    # oracle: exhaustive evaluation on a dense rational grid
    for k in range(0, 401):
        x = F(k, 400)
        assert eval_at(t2, x) == eval_at(TENT, eval_at(TENT, x))
    assert t2.breakpoints == (0, F(1, 4), F(1, 2), F(3, 4), 1)
    assert t2.values == (0, 1, 0, 1, 0)


def test_compose_constant():
    const = make_pl([0, 1], [F(7, 3), F(7, 3)])
    assert pl_equal(compose(const, TENT), const)


def test_compose_cap(monkeypatch):
    t2 = compose(TENT, TENT)
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 3)
    with pytest.raises(ResourceLimitError):
        compose(TENT, t2)


#: (f, g, {cap: needed}): every cap from -1 up that makes compose(f, g) raise,
#: with the breakpoint count the error reports; every larger cap succeeds.
#: The count is g's breakpoints plus the preimages found up to the first
#: segment that pushes it past the cap, so it moves in per-segment steps.
CAP_BOUNDARY = [
    (TENT, make_pl([0, F(1, 4), F(1, 2), F(3, 4), 1], [0, 1, 0, 1, 0]),
     {-1: 6, 0: 6, 1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 6: 7, 7: 8, 8: 9}),
    (theta(F(37, 64), 3), theta(F(37, 64), 3),
     {-1: 8, 0: 8, 1: 8, 2: 8, 3: 8, 4: 8, 5: 8, 6: 8, 7: 8, 8: 10, 9: 10,
      10: 12, 11: 12}),
    # falling segments, a flat segment and f-nodes hit at g's own nodes
    (make_pl([0, F(1, 4), F(1, 2), F(3, 4), 1, F(3, 2)], [1, 0, 1, 0, 1, 0]),
     make_pl([0, 1, 2, 3, 4, 5], [F(3, 2), F(1, 2), F(1, 2), 0, F(5, 4), F(1, 3)]),
     {-1: 8, 0: 8, 1: 8, 2: 8, 3: 8, 4: 8, 5: 8, 6: 8, 7: 8, 8: 9, 9: 13,
      10: 13, 11: 13, 12: 13, 13: 16, 14: 16, 15: 16}),
    # no preimage inside any segment: g's own breakpoints exceed the cap
    (make_pl([0, 1], [0, 1]), TENT, {-1: 3, 0: 3, 1: 3, 2: 3}),
]


@pytest.mark.parametrize("f, g, needed", CAP_BOUNDARY)
def test_compose_cap_boundary(monkeypatch, f, g, needed):
    uncapped = compose(f, g)
    for cap in range(-1, max(needed) + 4):
        monkeypatch.setattr(plmap, "BREAKPOINT_CAP", cap)
        if cap in needed:
            with pytest.raises(ResourceLimitError) as info:
                compose(f, g)
            assert (info.value.needed, info.value.cap) == (needed[cap], cap)
        else:
            assert pl_equal(compose(f, g), uncapped)


@st.composite
def pl_maps(draw, max_nodes=6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    xs = sorted(draw(st.sets(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=n, max_size=n)))
    ys = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=n, max_size=n))
    return make_pl(xs, ys)


@settings(max_examples=60, deadline=None)
@given(pl_maps(), pl_maps(), st.fractions(min_value=-5, max_value=5, max_denominator=16))
def test_exact_composition_law(f, g, x):
    h = compose(f, g)
    assert eval_at(h, x) == eval_at(f, eval_at(g, x))
    for b in h.breakpoints:
        assert eval_at(h, b) == eval_at(f, eval_at(g, b))
    # a cell midpoint sees a node emitted out of x order (falling segments)
    for b0, b1 in zip(h.breakpoints, h.breakpoints[1:]):
        mid = (b0 + b1) / 2
        assert eval_at(h, mid) == eval_at(f, eval_at(g, mid))


@settings(max_examples=60, deadline=None)
@given(pl_maps(), pl_maps())
def test_lap_submultiplicativity(f, g):
    assert lap_count(compose(f, g)) <= lap_count(f) * lap_count(g)


# --- laps --------------------------------------------------------------------

def test_lap_counts():
    assert lap_count(TENT) == 2
    assert lap_count(IDENT) == 1
    assert lap_count(make_pl([0, 1], [3, 3])) == 1
    t2 = compose(TENT, TENT)
    assert lap_count(t2) == 4
    assert lap_count(t2) == brute_lap_count(t2)


def test_lap_constant_runs_merge():
    f = make_pl([0, 1, 2, 3], [0, 1, 1, 2])
    assert lap_count(f) == 1
    g = make_pl([0, 1, 2, 3], [0, 1, 1, 0])
    assert lap_count(g) == 2


# --- crop ---------------------------------------------------------------------

def test_crop_identity():
    f = crop(make_pl([-2, 2], [-2, 2]), 0, 1)
    assert eval_at(f, F(1, 2)) == F(1, 2)
    assert eval_at(f, F(5)) == 1
    assert eval_at(f, F(-5)) == 0


def test_crop_tent_left_half_pointwise():
    ramp = crop(TENT, 0, F(1, 2))
    # increasing ramp, frozen at 1 right of 1/2
    for k in range(0, 21):
        x = F(k, 20)
        expected = eval_at(TENT, x) if x <= F(1, 2) else 1
        assert eval_at(ramp, x) == expected


def test_crop_left_constant():
    f = make_pl([0, 1, 2], [1, 3, 0])
    g = crop(f, F(1, 2), F(3, 2))
    assert eval_at(g, F(1, 2) - 1) == eval_at(f, F(1, 2))


def test_crop_rejects_empty():
    with pytest.raises(DomainError):
        crop(TENT, 1, 1)


# --- linear combinations -------------------------------------------------------

def test_linear_combination_single():
    assert pl_equal(linear_combination([1], [TENT]), TENT)


def test_linear_combination_cancellation():
    z = linear_combination([1, -1], [TENT, TENT])
    assert sup_norm(z) == 0


def test_linear_combination_pointwise():
    f = linear_combination([2, 3], [IDENT, TENT])
    assert eval_at(f, F(1, 2)) == 2 * F(1, 2) + 3 * 1


@settings(max_examples=40, deadline=None)
@given(pl_maps(), pl_maps(),
       st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_linear_combination_matches_pointwise(f, g, a, b):
    h = linear_combination([a, b], [f, g])
    for x in set(f.breakpoints) | set(g.breakpoints) | {F(-9), F(9), F(1, 7)}:
        assert eval_at(h, x) == a * eval_at(f, x) + b * eval_at(g, x)


# --- images, oscillation, norm --------------------------------------------------

def test_image_interval_tent():
    assert image_interval(TENT, IntervalQ(F(0), F(1))) == IntervalQ(F(0), F(1))
    assert image_interval(TENT, IntervalQ(F(0), F(1, 4))) == IntervalQ(F(0), F(1, 2))


def test_image_interval_identity():
    J = IntervalQ(F(-1, 3), F(5, 7))
    f = make_pl([-1, 1], [-1, 1])
    assert image_interval(f, J) == J


@settings(max_examples=50, deadline=None)
@given(pl_maps(),
       st.fractions(min_value=-5, max_value=5, max_denominator=8),
       st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_image_interval_matches_exhaustive_minmax(f, a, b):
    if a > b:
        a, b = b, a
    J = IntervalQ(a, b)
    img = image_interval(f, J)
    lo, hi = brute_image(f, J)
    assert (img.lo, img.hi) == (lo, hi)


def test_oscillation():
    assert oscillation(make_pl([0, 1], [2, 2]), IntervalQ(F(-1), F(4))) == 0
    assert oscillation(IDENT, IntervalQ(F(0), F(1))) == 1
    # oracle: brute-force min/max over breakpoints inside J
    J = IntervalQ(F(1, 4), F(3, 4))
    lo, hi = brute_image(TENT, J)
    assert oscillation(TENT, J) == hi - lo == F(1, 2)


def test_sup_norm():
    assert sup_norm(linear_combination([1, -1], [IDENT, IDENT])) == 0
    assert sup_norm(TENT) == 1
    assert sup_norm(scale(TENT, -3)) == 3


@settings(max_examples=40, deadline=None)
@given(pl_maps(), st.fractions(min_value=-6, max_value=6, max_denominator=10))
def test_norm_homogeneity(f, c):
    assert sup_norm(scale(f, c)) == abs(c) * sup_norm(f)


# --- even extension ---------------------------------------------------------------

def test_even_extension_vshape():
    v = even_extension(IDENT)
    assert v.breakpoints == (-1, 0, 1)
    assert v.values == (1, 0, 1)
    for k in range(0, 11):
        x = F(k, 10)
        assert eval_at(v, -x) == eval_at(v, x)


def test_even_extension_constant():
    c = even_extension(make_pl([0, 2], [5, 5]))
    assert eval_at(c, -1) == 5 == eval_at(c, 1)


def test_even_extension_needs_zero_start():
    with pytest.raises(DomainError):
        even_extension(make_pl([1, 2], [0, 1]))


# --- sampling -----------------------------------------------------------------------

def test_sample_pl_identity():
    f = sample_pl(lambda x: x, IntervalQ(F(0), F(1)), 5)
    assert pl_equal(f, IDENT)


def test_sample_pl_chord():
    f = sample_pl(lambda x: x * x, IntervalQ(F(0), F(1)), 2)
    assert f.values == (0, 1)
    assert eval_at(f, F(1, 2)) == F(1, 2)


def test_sample_pl_sin_accuracy():
    import math
    two_pi = F(710, 113)  # rational cover of [0, 2*pi]
    f = sample_pl(math.sin, IntervalQ(F(0), two_pi), 1025)
    # interpolation error bound check on a fine grid
    worst = 0.0
    for k in range(4096):
        x = two_pi * F(k, 4096)
        worst = max(worst, abs(float(eval_at(f, x)) - math.sin(float(x))))
    assert worst < 1e-4


def test_sample_pl_rejects_non_finite():
    from entropy_banach.errors import NumericError
    with pytest.raises(NumericError):
        sample_pl(lambda x: float("nan"), IntervalQ(F(0), F(1)), 3)


def test_eval_many_agrees_with_eval_at():
    xs = [F(k, 7) - 1 for k in range(20)]
    assert eval_many(TENT, xs) == [eval_at(TENT, x) for x in xs]
