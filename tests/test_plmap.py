"""Exactness tests for the piecewise-linear calculus."""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach import plmap
from entropy_banach.dial import theta
from entropy_banach.ellone import build_rademacher
from entropy_banach.errors import ConstructionError, DomainError, ResourceLimitError
from entropy_banach.plmap import (
    IntervalQ,
    _floats,
    compose,
    crop,
    eval_at,
    eval_many,
    even_extension,
    image_intervals,
    lap_count,
    linear_combination,
    make_pl,
    monotone_pieces,
    oscillation,
    pl_equal,
    rank,
    sample_pl,
    scale,
    segment_preimages,
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


_TINY = F(1, 2 ** 70)


@st.composite
def near_tie_maps(draw, max_nodes=12):
    """PL maps with flat runs, collinear runs and values 2^-70 apart."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    xs = sorted(draw(st.sets(st.builds(lambda k, j: F(k, 6) + j * _TINY,
                                       st.integers(0, 12), st.integers(0, 2)),
                             min_size=n, max_size=n)))
    ys = [draw(st.builds(lambda k, j: F(k, 3) + j * _TINY, st.integers(0, 3), st.integers(-1, 1)))]
    for i in range(1, n):
        step = draw(st.integers(0, 3))
        if step == 0:  # flat
            ys.append(ys[-1])
        elif step == 1 and i >= 2:  # collinear with the segment before
            ys.append(ys[-1] + (ys[-1] - ys[-2]) * (xs[i] - xs[i - 1]) / (xs[i - 1] - xs[i - 2]))
        else:
            ys.append(draw(st.builds(lambda k, j: F(k, 3) + j * _TINY,
                                     st.integers(0, 3), st.integers(-1, 1))))
    return make_pl(xs, ys)


_HUGE = 2 ** 1024  # just past the largest float


@st.composite
def far_maps(draw, max_nodes=10):
    """The maps above in affine charts past the float range: every node's
    float is infinite, or the nodes straddle the largest float; reflections
    make rising segments fall."""
    f = draw(st.one_of(near_tie_maps(max_nodes), pl_maps(max_nodes)))
    charts = st.tuples(st.sampled_from([1, -1, 2 ** 968, -2 ** 968]),
                       st.sampled_from([0, _HUGE, -_HUGE, _HUGE - 2 ** 970]))
    (sx, tx), (sy, ty) = draw(charts), draw(charts)
    nodes = sorted((sx * x + tx, sy * y + ty) for x, y in zip(f.breakpoints, f.values))
    return make_pl([x for x, _ in nodes], [y for _, y in nodes])


#: rationals that collide in float: k/3 + j 2^-80, huge denominators,
#: negatives, and values around and beyond the largest float (about 1.8e308)
_COLLIDING = st.one_of(
    st.builds(lambda k, j: F(k, 3) + F(j, 2 ** 80), st.integers(-6, 6), st.integers(-3, 3)),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(10 ** 25, 10 ** 30)),
    st.builds(lambda s, k, j: s * (F(2 ** 1024) + k * 2 ** 969 + F(j, 3)),
              st.sampled_from([-1, 1]), st.integers(-2, 2), st.integers(-1, 1)),
    st.builds(lambda s, k: s * F(10 ** (308 + k)), st.sampled_from([-1, 1]), st.integers(0, 3)),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pl_maps(), near_tie_maps()), st.one_of(pl_maps(), near_tie_maps()),
       st.fractions(min_value=-5, max_value=5, max_denominator=16))
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
    assert image_intervals(TENT, [IntervalQ(F(0), F(1)), IntervalQ(F(0), F(1, 4))]) == [
        IntervalQ(F(0), F(1)), IntervalQ(F(0), F(1, 2))]
    assert image_intervals(TENT, []) == []


def test_image_interval_identity():
    J = IntervalQ(F(-1, 3), F(5, 7))
    f = make_pl([-1, 1], [-1, 1])
    assert image_intervals(f, [J]) == [J]


@settings(max_examples=50, deadline=None)
@given(pl_maps(),
       st.fractions(min_value=-5, max_value=5, max_denominator=8),
       st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_image_interval_matches_exhaustive_minmax(f, a, b):
    if a > b:
        a, b = b, a
    J = IntervalQ(a, b)
    img, = image_intervals(f, [J])
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


def test_even_extension_one_node():
    # -0 == 0, so the reflection of the point 0 is itself: still one node
    c = even_extension(make_pl([0], [5]))
    assert (c.breakpoints, c.values) == ((F(0),), (F(5),))
    assert (c.fx.tolist(), c.fy.tolist()) == ([0.0], [5.0])


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
    with pytest.raises(DomainError):
        sample_pl(lambda x: float("nan"), IntervalQ(F(0), F(1)), 3)


def sample_pl_oracle(h, domain, n):
    """sample_pl before the integer nodes: Fraction arithmetic and float(x)."""
    step = (domain.hi - domain.lo) / (n - 1)
    xs = [domain.lo + k * step for k in range(n)]
    ys = []
    for x in xs:
        v = h(float(x))
        if not math.isfinite(v):
            raise DomainError(f"sample at x={x} is not finite: {v!r}")
        ys.append(F(v))
    return make_pl(xs, ys)


def _outcome(build):
    """The map's nodes and floats, or the error's type and message, with the
    samples taken until then."""
    seen = []

    def h(x):
        seen.append(x)
        return math.nan if 0.7 < x < 0.8 else -0.0 if x < 0 else x / 4

    try:
        f = build(h)
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc), seen
    return f.breakpoints, f.values, f.fx.tolist(), f.fy.tolist(), seen


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.fractions(-2, 2, max_denominator=30), _COLLIDING),
       st.one_of(st.fractions(-2, 2, max_denominator=30), _COLLIDING),
       st.integers(2, 12))
def test_sample_pl_matches_oracle(a, b, n):
    # nodes past the float range overflow as float(x) did, at the same node
    if a == b:
        return
    domain = IntervalQ(min(a, b), max(a, b))
    got = _outcome(lambda h: sample_pl(h, domain, n))
    assert got == _outcome(lambda h: sample_pl_oracle(h, domain, n))
    if len(got) == 5:
        xs, ys, fx, fy, _ = got
        assert xs == tuple(domain.lo + k * (domain.hi - domain.lo) / (n - 1) for k in range(n))
        assert (fx, fy) == (_floats(xs).tolist(), _floats(ys).tolist())


def test_sample_pl_floats_carry_no_negative_zero():
    f = sample_pl(lambda x: -0.0, IntervalQ(F(-1), F(1)), 3)
    assert f.values == (0, 0, 0)
    assert math.copysign(1, f.fy[0]) == 1


def test_eval_many_agrees_with_eval_at():
    xs = [F(k, 7) - 1 for k in range(20)]
    assert eval_many(TENT, xs) == [eval_at_oracle(TENT, x) for x in xs]
    # runs of points inside a flat, a rising and a falling segment, both ways round
    f = make_pl([0, 1, 2, 3], [F(1, 3), F(1, 3), F(5, 2), F(-7, 4)])
    up = [F(k, 9) for k in range(1, 27) if k % 9]
    for xs in (up, up[::-1], up[::2] + up[1::2]):
        assert eval_many(f, xs) == [eval_at_oracle(f, x) for x in xs]


# --- the float-filtered rank kernel ------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(_COLLIDING, max_size=25), st.lists(_COLLIDING, max_size=25), st.data())
def test_rank_equals_bisect(xs, qs, data):
    xs = sorted(xs)  # duplicates kept
    qs = qs + data.draw(st.lists(st.sampled_from(xs), max_size=10)) if xs else qs
    left, right = rank(xs, qs, _floats(xs), _floats(qs))
    assert left.tolist() == [bisect_left(xs, q) for q in qs]
    assert right.tolist() == [bisect_right(xs, q) for q in qs]


def test_rank_one_wide_tie_is_equal_or_bisected():
    # 1/3 and 1/3 +- 2^-80 share a float: the window of 1/3 is one wide and
    # is the answer only for 1/3 itself; the neighbours must still bisect
    xs = [F(0), F(1, 3), F(1)]
    qs = [F(1, 3), F(1, 3) - F(1, 2 ** 80), F(1, 3) + F(1, 2 ** 80)]
    left, right = rank(xs, qs, _floats(xs), _floats(qs))
    assert (left.tolist(), right.tolist()) == ([1, 1, 2], [2, 1, 2])


@st.composite
def colliding_maps(draw, max_nodes=8):
    """PL maps whose breakpoints collide in float with each other and with
    other maps' (1/3 +- 2^-80, huge denominators, past the float range)."""
    xs = sorted(draw(st.sets(_COLLIDING, min_size=1, max_size=max_nodes)))
    ys = draw(st.lists(_COLLIDING, min_size=len(xs), max_size=len(xs)))
    return make_pl(xs, ys)


def prune_collinear_oracle(xs, ys):
    """The pruning loop before the float filter: every interior node is
    compared, cross-multiplied, against the last kept node."""
    if len(xs) <= 2:
        return tuple(xs), tuple(ys)
    keep_x, keep_y = [xs[0]], [ys[0]]
    for i in range(1, len(xs) - 1):
        lhs = (ys[i] - keep_y[-1]) * (xs[i + 1] - xs[i])
        rhs = (ys[i + 1] - ys[i]) * (xs[i] - keep_x[-1])
        if lhs != rhs:
            keep_x.append(xs[i])
            keep_y.append(ys[i])
    keep_x.append(xs[-1])
    keep_y.append(ys[-1])
    return tuple(keep_x), tuple(keep_y)


def segment_preimages_oracle(g, targets):
    """segment_preimages before the rank kernel: two bisects per segment."""
    xs, ys = g.breakpoints, g.values
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        a, b = bisect_right(targets, lo), bisect_left(targets, hi)
        if a >= b:
            yield []
            continue
        x0 = xs[i]
        slope_inv = (xs[i + 1] - x0) / (y1 - y0)
        order = range(a, b) if y0 < y1 else range(b - 1, a - 1, -1)
        yield [(x0 + (targets[j] - y0) * slope_inv, j) for j in order]


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_maps(), pl_maps(max_nodes=10), far_maps()))
def test_prune_collinear_matches_oracle(f):
    xs, ys = list(f.breakpoints), list(f.values)
    pruned = plmap._prune_collinear(xs, ys, _floats(xs), _floats(ys))
    assert (pruned.breakpoints, pruned.values) == prune_collinear_oracle(xs, ys)


def linear_combination_oracle(coeffs, fs):
    """linear_combination before the integer sums: one Fraction product and
    one Fraction sum per member and point."""
    all_x = sorted(set().union(*(f.breakpoints for f in fs)))
    totals = [F(0)] * len(all_x)
    for c, f in zip(map(F, coeffs), fs):
        if c == 0:
            continue
        for i, v in enumerate(eval_many(f, all_x)):
            totals[i] += c * v
    return prune_collinear_oracle(all_x, totals)


_COEFFS = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=12),
                    st.builds(lambda k, j: F(k, 3) + j * _TINY, st.integers(-3, 3), st.integers(-1, 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COEFFS, st.one_of(near_tie_maps(), pl_maps(max_nodes=10), far_maps(),
                                             colliding_maps())),
                min_size=1, max_size=4),
       st.sampled_from(["plain", "cancel", "disjoint", "shared"]), st.data())
def test_linear_combination_matches_oracle(terms, case, data):
    coeffs, fs = (list(t) for t in zip(*terms))
    if case == "shared":  # every member on the first one's breakpoints, as sign members nearly are
        fs = [make_pl(fs[0].breakpoints, data.draw(st.lists(_COLLIDING, min_size=len(fs[0]),
                                                            max_size=len(fs[0]))))
              for _ in fs]
    elif case == "cancel":  # sum c f - c (f + s): the constant -sum c s
        coeffs, fs = coeffs[:2], fs[:2]
        shifts = data.draw(st.lists(st.fractions(-2, 2, max_denominator=5),
                                    min_size=len(fs), max_size=len(fs)))
        fs += [make_pl(f.breakpoints, [y + s for y in f.values]) for f, s in zip(fs, shifts)]
        coeffs += [-c for c in coeffs]
    elif case == "disjoint" and len(fs) > 1:  # the last member right of all the others
        right = max(f.breakpoints[-1] for f in fs[:-1]) + 1 - fs[-1].breakpoints[0]
        fs[-1] = make_pl([x + right for x in fs[-1].breakpoints], fs[-1].values)
    h = linear_combination(coeffs, fs)
    assert (h.breakpoints, h.values) == linear_combination_oracle(coeffs, fs)
    assert h.fx.tolist() == _floats(h.breakpoints).tolist()
    assert h.fy.tolist() == _floats(h.values).tolist()
    if case == "cancel":
        assert len(set(h.values)) == 1


@pytest.mark.parametrize("members", [
    # every point shared: one rational per float run
    [make_pl([0, F(1, 3), 1], [0, 1, 0]), make_pl([0, F(1, 3), 1], [2, F(1, 7), -1])],
    # distinct rationals that tie in float, within one member and across members
    [make_pl([0, F(1, 3), F(1, 3) + F(1, 2 ** 80), 1], [0, 1, -1, 0]),
     make_pl([F(1, 3) - F(1, 2 ** 80), F(1, 3), F(1, 3) + F(1, 2 ** 81)], [1, 2, 3])],
    # every float infinite, ties on both sides of zero
    [make_pl([-F(2 ** 1100) - 1, -F(2 ** 1100), F(2 ** 1100)], [0, 1, 0]),
     make_pl([-F(2 ** 1100) - F(1, 2), F(2 ** 1100), F(2 ** 1100) + 3], [5, 0, 1])],
], ids=["shared", "float_ties", "infinite_floats"])
def test_linear_combination_merges_float_runs_exactly(members):
    h = linear_combination([F(2, 3), F(-5, 4)], members)
    assert (h.breakpoints, h.values) == linear_combination_oracle([F(2, 3), F(-5, 4)], members)
    assert h.fx.tolist() == _floats(h.breakpoints).tolist()


def test_linear_combination_of_sign_members_orders_no_fraction(monkeypatch):
    # the sign members share their cut points, each a run of equal floats
    # that collapses by equality alone: no hash, no ordering comparison
    members = build_rademacher(8, F(1, 4096)).members
    coeffs = [F(k, 8) - 1 for k in range(8)]
    expected = linear_combination_oracle(coeffs, members)
    calls = []
    for name in ("__hash__", "__lt__", "__gt__"):
        real = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *args, name=name, real=real: calls.append(name)
                            or real(*args))
    h = linear_combination(coeffs, members)
    monkeypatch.undo()
    assert calls == []
    assert (h.breakpoints, h.values) == expected


def between(qs):
    """Points on the chords of consecutive qs, ends included."""
    return st.builds(lambda i, t: qs[i] + (qs[i + 1] - qs[i]) * t,
                     st.integers(0, len(qs) - 2), st.fractions(0, 1, max_denominator=7))


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_maps(), pl_maps(max_nodes=10), far_maps()), st.data())
def test_segment_preimages_matches_oracle(g, data):
    extra = data.draw(st.lists(st.builds(lambda k, j: F(k, 3) + j * _TINY,
                                         st.integers(-1, 4), st.integers(-1, 1)), max_size=6))
    if len(g) > 1:  # values crossed inside segments, also far past the float range
        extra += data.draw(st.lists(between(g.values), max_size=6))
    targets = sorted(set(extra) | set(data.draw(st.lists(st.sampled_from(g.values)))))
    ranks = rank(targets, g.values, _floats(targets), g.fy)
    assert (list(segment_preimages(g, targets, *ranks))
            == list(segment_preimages_oracle(g, targets)))


def eval_at_oracle(f, x):
    """eval_at before the rank kernel: one Fraction bisect."""
    xs, ys = f.breakpoints, f.values
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    if xs[i] == x:
        return ys[i]
    x0, x1 = xs[i], xs[i + 1]
    y0, y1 = ys[i], ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def image_interval_oracle(f, J):
    """One interval's image before the rank kernel: two Fraction bisects."""
    xs = f.breakpoints
    vals = [eval_at_oracle(f, J.lo), eval_at_oracle(f, J.hi)]
    vals.extend(f.values[bisect_right(xs, J.lo):bisect_left(xs, J.hi)])
    return IntervalQ(min(vals), max(vals))


def crop_oracle(f, a, b):
    """crop before the rank kernel: two Fraction bisects."""
    xs, ys = f.breakpoints, f.values
    lo, hi = bisect_right(xs, a), bisect_left(xs, b)
    return make_pl([a, *xs[lo:hi], b], [eval_at_oracle(f, a), *ys[lo:hi], eval_at_oracle(f, b)])


def probe_points(f):
    """f's breakpoints and points between them, rationals 2^-70 apart (one
    float), and points off f's domain."""
    return st.one_of(
        st.sampled_from(f.breakpoints),
        between(f.breakpoints) if len(f) > 1 else st.nothing(),
        st.builds(lambda k, j: F(k, 6) + j * _TINY, st.integers(-3, 15), st.integers(-1, 1)),
        st.fractions(min_value=-5, max_value=5, max_denominator=16),
        st.builds(lambda s, k: s * (5 + F(k, 3)), st.sampled_from([-1, 1]), st.integers(0, 3)))


def segment_run(f):
    """Points inside one segment of f (flat, rising or falling), ascending or descending."""
    xs = f.breakpoints
    return st.builds(lambda i, ts, down: sorted((xs[i] + (xs[i + 1] - xs[i]) * t for t in ts),
                                                reverse=down),
                     st.integers(0, len(xs) - 2),
                     st.lists(st.fractions(0, 1, max_denominator=9), min_size=2, max_size=5),
                     st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_maps(), pl_maps(max_nodes=10), far_maps()), st.data())
def test_eval_many_any_order_matches_eval_at(f, data):
    # unsorted points, repeats, points outside the domain and float ties,
    # and runs of points that share a segment
    qs = data.draw(st.lists(probe_points(f), max_size=20))
    if len(f) > 1:
        for run in data.draw(st.lists(segment_run(f), max_size=3)):
            k = data.draw(st.integers(0, len(qs)))
            qs[k:k] = run
    expected = [eval_at_oracle(f, q) for q in qs]
    assert eval_many(f, qs) == expected
    assert [eval_at(f, q) for q in qs] == expected


#: the near-tie map of the CI brackets step: nodes and values 2^-70 apart
#: share their floats, and its value 1 - 2^-70 ties 1 in float
CI_NEAR_TIE = make_pl(
    [0, F(1, 3), F(1180591620717411303427, 3541774862152233910272), F(2, 3),
     F(2361183241434822606851, 3541774862152233910272), 1],
    [0, 1, F(1180591620717411303423, 1180591620717411303424), F(1, 1180591620717411303424), 0, 1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(CI_NEAR_TIE), near_tie_maps()), st.data())
def test_values_and_images_read_flats_and_float_ties_exactly(f, data):
    # a flat segment's points take its node value with no line built, and an
    # image's extremes are exact where several nodes share the extreme float
    qs = data.draw(st.lists(probe_points(f), max_size=12))
    if len(f) > 1:
        qs += data.draw(segment_run(f))
    Js = [IntervalQ(min(a, b), max(a, b)) for a, b in zip(qs, qs[1:])]
    flat_lines, real_line = [], plmap._line
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plmap, "_line", lambda *args: flat_lines.append(args[1] == args[3]) or real_line(*args))
        values, images = eval_many(f, qs), image_intervals(f, Js)
    assert not any(flat_lines)
    assert values == [eval_at_oracle(f, q) for q in qs]
    assert images == [image_interval_oracle(f, J) for J in Js]


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_maps(), pl_maps(max_nodes=10)), st.data())
def test_image_intervals_match_bisect_oracle(f, data):
    # ends on breakpoints and on float ties, degenerate intervals, and
    # intervals partly or wholly off the domain, where f is constant
    pts = probe_points(f)
    ends = data.draw(st.lists(st.tuples(pts, pts, st.booleans()), max_size=8))
    Js = [IntervalQ(min(a, b), min(a, b) if point else max(a, b)) for a, b, point in ends]
    assert image_intervals(f, Js) == [image_interval_oracle(f, J) for J in Js]


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_maps(), pl_maps(max_nodes=10)), st.data())
def test_crop_matches_bisect_oracle(f, data):
    pts = probe_points(f)
    a, b = sorted((data.draw(pts), data.draw(pts)))
    if a == b:
        with pytest.raises(DomainError):
            crop(f, a, b)
    else:
        assert crop(f, a, b) == crop_oracle(f, a, b)


def monotone_pieces_oracle(f):
    """monotone_pieces before the float signs: two comparisons per segment."""
    ys, pieces, start, rising = f.values, [], 0, None
    for i in range(len(ys) - 1):
        if ys[i + 1] == ys[i]:
            continue
        up = ys[i + 1] > ys[i]
        if rising is not None and up != rising:
            pieces.append((start, i))
            start = i
        rising = up
    pieces.append((start, len(ys) - 1))
    return pieces


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_tie_maps(), pl_maps(max_nodes=10)))
def test_monotone_pieces_match_oracle(f):
    assert monotone_pieces(f) == monotone_pieces_oracle(f)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COLLIDING, min_size=1, max_size=12), st.booleans())
def test_breakpoint_order_check_on_float_ties(xs, ascending):
    # accepted iff strictly increasing, also where neighbours share a float
    xs = sorted(xs) if ascending else xs
    increasing = all(a < b for a, b in zip(xs, xs[1:]))
    try:
        make_pl(xs, [0] * len(xs))
    except ConstructionError:
        assert not increasing
    else:
        assert increasing


@settings(max_examples=100, deadline=None)
@given(st.one_of(near_tie_maps(), far_maps()), st.one_of(near_tie_maps(), far_maps()), st.data())
def test_cached_floats_are_the_floats_of_the_tuples(f, g, data):
    # every way a map is made: given tuples, composition and pruning, crop, scale
    a, b = data.draw(st.lists(probe_points(f), min_size=2, max_size=2, unique=True))
    for h in (f, compose(f, g), compose(g, f), crop(f, min(a, b), max(a, b)), scale(f, F(-2, 3)),
              linear_combination([1, F(1, 3)], [f, g])):
        assert h.fx.tolist() == _floats(h.breakpoints).tolist()
        assert h.fy.tolist() == _floats(h.values).tolist()
