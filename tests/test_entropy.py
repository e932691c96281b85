"""Tests for certified entropy bounds, horseshoe search, and covering matrices."""

import hashlib
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entropy_banach import entropy, plmap
from entropy_banach.dial import theta
from entropy_banach.entropy import (
    PARTITION_CAP,
    EntropyBounds,
    HorseshoeCertificate,
    _interval_rows_radius,
    _lap_images,
    _radius_at_most_one,
    certify,
    entropy_bounds,
    entropy_lower_markov,
    entropy_upper_lap,
    horseshoe_max,
    invariant_restriction,
    validate_certificate,
)
from entropy_banach.errors import ConstructionError, DomainError, ResourceLimitError
from entropy_banach.plmap import (
    IntervalQ,
    _floats,
    compose,
    crop,
    eval_at,
    eval_many,
    image_intervals,
    lap_count,
    linear_combination,
    make_pl,
    monotone_pieces,
    pl_equal,
    rank,
    sample_pl,
    scale,
    segment_preimages,
    sort_exact,
)
from entropy_banach.rational import qstr
from test_plmap import far_maps, near_tie_maps, segment_preimages_oracle

TENT = make_pl([0, F(1, 2), 1], [0, 1, 0])
IDENT = make_pl([0, 1], [0, 1])

GOLDEN = Path(__file__).parent / "golden"


def full_branch_map(d):
    """d full branches on [0, 1]: values alternate 0, 1, 0, ..."""
    xs = [F(k, d) for k in range(d + 1)]
    ys = [F(k % 2) for k in range(d + 1)]
    return make_pl(xs, ys)


# --- invariant restriction ----------------------------------------------------

def test_invariant_restriction_tent_unchanged():
    assert pl_equal(invariant_restriction(TENT), TENT)


def test_invariant_restriction_constant():
    g = invariant_restriction(make_pl([0, 1], [5, 5]))
    assert g.domain.lo == g.domain.hi
    assert eval_at(g, F(5)) == 5


def test_invariant_restriction_expands_hull():
    # hand-checked hull: the image of [0,1] is [0,2], and [0,2] is invariant
    f = crop(make_pl([0, 1], [0, 2]), 0, 1)
    g = invariant_restriction(f)
    assert g.domain == IntervalQ(F(0), F(2))
    assert pl_equal(g, crop(f, 0, 2))


# --- iterates -------------------------------------------------------------------

def iterate(f, k):
    """The oracle f^k: f composed with itself k - 1 times."""
    g = f
    for _ in range(k - 1):
        g = compose(f, g)
    return g


def test_iterate_identity():
    assert pl_equal(iterate(IDENT, 10), IDENT)


def test_iterate_tent_square():
    t2 = iterate(TENT, 2)
    assert pl_equal(t2, compose(TENT, TENT))
    assert lap_count(t2) == 4


def test_iterate_one_is_f():
    assert pl_equal(iterate(TENT, 1), TENT)


# --- lap-based upper bound -------------------------------------------------------

def test_upper_identity():
    assert entropy_upper_lap(IDENT, 1) == 0.0


def test_upper_tent_depth8():
    # oracle: laps(tent^k) = 2^k, checked by exhaustive slope-sign count
    for k in range(1, 9):
        assert lap_count(iterate(TENT, k)) == 2 ** k
    assert entropy_upper_lap(TENT, 8) == pytest.approx(math.log(2), abs=1e-12)


def test_upper_monotone_ramp():
    assert entropy_upper_lap(make_pl([0, 1], [0, F(1, 2)]), 4) == 0.0


def test_upper_tent_depth20_builds_no_iterate(monkeypatch):
    # laps(tent^k) = 2^k all come from lap images: tent^20 is never composed
    def no_compose(*args):
        raise AssertionError("compose called")

    monkeypatch.setattr(entropy, "compose", no_compose)
    assert entropy_upper_lap(TENT, 20) == math.log(2)


def test_upper_monotone_in_depth():
    f = full_branch_map(3)
    prev = math.inf
    for depth in range(1, 6):
        val = entropy_upper_lap(f, depth)
        assert val <= prev + 1e-12
        prev = val


# --- horseshoe search ------------------------------------------------------------

def test_horseshoe_three_branch():
    d, cert = horseshoe_max(full_branch_map(3))
    assert d == 3
    assert validate_certificate(full_branch_map(3), cert)


def test_horseshoe_identity_none():
    assert horseshoe_max(IDENT) == (1, None)


def test_horseshoe_tent():
    d, cert = horseshoe_max(TENT)
    assert d == 2
    assert cert.intervals == (IntervalQ(F(0), F(1, 2)), IntervalQ(F(1, 2), F(1)))
    assert validate_certificate(TENT, cert)


# Oracles: the iterate chain built as a list that the lap and horseshoe
# bounds each walk again; entropy_bounds takes one pass and must agree.

def iterate_chain(f, depth):
    """[f, f^2, ..., f^depth], stopping early (never failing) at the cap."""
    chain = [f]
    for _ in range(depth - 1):
        try:
            chain.append(compose(f, chain[-1]))
        except ResourceLimitError:
            break
    return chain


def lap_upper(laps):
    """min over k of log(laps of f^k) / k, from the lap counts of the chain."""
    return min(math.log(n) / k for k, n in enumerate(laps, start=1))


def horseshoe_scan(chain, laps):
    """max over k of log(horseshoe_max(f^k)) / k, with its certificate; the
    same iterates as in entropy_bounds are skipped."""
    best, best_cert = 0.0, None
    for k, (g, n) in enumerate(zip(chain, laps), start=1):
        if (math.log(n) / k <= best + 1e-12 or n > entropy.HORSESHOE_LAP_BUDGET
                or len(g) > entropy.HORSESHOE_CAP):
            continue
        d, cert = horseshoe_max(g)
        if d >= 2 and math.log(d) / k > best:
            best = math.log(d) / k
            best_cert = HorseshoeCertificate(d=d, intervals=cert.intervals, iterate=k)
    return best, best_cert


def lower_horseshoe(f, depth):
    """max over k <= depth of log(horseshoe_max(f^k)) / k with its certificate:
    the horseshoe side of entropy_bounds on f itself."""
    chain = iterate_chain(f, depth)
    return horseshoe_scan(chain, [lap_count(g) for g in chain])


def bracket_oracle(f, depth, counted=None):
    """(lower, upper, certificate, depth used) of entropy_bounds from the oracles.

    The lap bound and the depth come from the lap counts ``counted`` when
    given, and from those of the chain otherwise."""
    g = invariant_restriction(f)
    if lap_count(g) == 1:  # constant or monotone, and so is every iterate
        return 0.0, 0.0, None, depth
    chain = iterate_chain(g, depth)
    laps = [lap_count(gk) for gk in chain]
    counted = laps if counted is None else counted
    upper = lap_upper(counted)
    lower, cert = horseshoe_scan(chain, laps)
    try:
        lower_m = entropy_lower_markov(g, depth)
    except ResourceLimitError as exc:
        lower_m = exc.bound
    if cert is None or lower < lower_m - 1e-15:
        lower, cert = lower_m, None
    return min(lower, upper), upper, cert, len(counted)


def test_lower_horseshoe_tent():
    val, cert = lower_horseshoe(TENT, 1)
    assert val == pytest.approx(math.log(2), abs=1e-12)
    assert cert.d == 2 and cert.iterate == 1


def test_lower_horseshoe_monotone_map():
    val, cert = lower_horseshoe(make_pl([0, 1], [0, 1]), 3)
    assert val == 0.0 and cert is None


def test_lower_horseshoe_three_branch():
    val, cert = lower_horseshoe(full_branch_map(3), 1)
    assert val == pytest.approx(math.log(3), abs=1e-12)


def test_horseshoe_iterate_certificate_revalidates():
    # tent^2 has a 4-horseshoe; certificate carries iterate k=2
    val, cert = lower_horseshoe(compose(TENT, TENT), 1)
    assert cert.d == 4
    t2 = compose(TENT, TENT)
    assert validate_certificate(t2, cert)


def interior_disjoint(a, b):
    return a.hi <= b.lo or b.hi <= a.lo


def pairwise_valid(f, cert):
    """The quadratic reference check: every interval, every pair, every image."""
    g = iterate(f, cert.iterate)
    ivs = cert.intervals
    if any(iv.lo == iv.hi for iv in ivs):
        return False
    for i in range(len(ivs)):
        for j in range(i + 1, len(ivs)):
            if not interior_disjoint(ivs[i], ivs[j]):
                return False
    for src in ivs:
        img, = image_intervals(g, [src])
        for dst in ivs:
            if not (img.lo <= dst.lo and dst.hi <= img.hi):
                return False
    return True


def test_certificates_have_disjoint_interiors():
    for d in range(2, 7):
        _, cert = horseshoe_max(full_branch_map(d))
        ivs = cert.intervals
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                assert interior_disjoint(ivs[i], ivs[j])


def iv(lo, hi):
    return IntervalQ(F(lo), F(hi))


THIRDS = [iv(0, F(1, 3)), iv(F(1, 3), F(2, 3)), iv(F(2, 3), 1)]
QUARTERS = [iv(F(k, 4), F(k + 1, 4)) for k in range(4)]

#: (f, intervals, iterate, verdict): every rejection path of the validator
VALIDATOR_CASES = [
    pytest.param(full_branch_map(3), [iv(0, F(1, 2)), iv(F(1, 3), 1)], 1, False,
                 id="overlapping_interiors"),
    pytest.param(TENT, [iv(0, F(1, 2)), iv(F(1, 4), F(1, 4))], 1, False,
                 id="degenerate_inside_another"),
    pytest.param(full_branch_map(3), THIRDS, 1, True, id="touching_intervals"),
    pytest.param(TENT, [iv(0, F(1, 4)), iv(F(3, 4), 1)], 1, False, id="image_misses_hull"),
    pytest.param(TENT, QUARTERS, 2, True, id="valid_for_f2"),
    pytest.param(TENT, QUARTERS, 1, False, id="not_valid_for_f"),
    pytest.param(IDENT, [iv(F(1, 2), F(1, 2))] * 2, 1, False, id="copies_of_a_fixed_point"),
]


@pytest.mark.parametrize("f, intervals, k, verdict", VALIDATOR_CASES)
def test_validator_verdicts(f, intervals, k, verdict):
    cert = HorseshoeCertificate(d=len(intervals), intervals=tuple(intervals), iterate=k)
    assert validate_certificate(f, cert) is verdict
    assert pairwise_valid(f, cert) is verdict
    # a certificate is listed in any order; the verdict does not depend on it
    flipped = HorseshoeCertificate(d=cert.d, intervals=cert.intervals[::-1], iterate=k)
    assert validate_certificate(f, flipped) is verdict


def test_validator_builds_no_iterate(monkeypatch):
    def no_compose(f, g):
        raise AssertionError("the validator composed an iterate")

    monkeypatch.setattr(entropy, "compose", no_compose)
    monkeypatch.setattr(plmap, "compose", no_compose)
    cert = HorseshoeCertificate(d=4, intervals=tuple(QUARTERS), iterate=2)
    assert validate_certificate(TENT, cert)


@pytest.mark.parametrize("k, cap", [(12, 40), (60, plmap.BREAKPOINT_CAP)])
def test_validator_passes_iterates_past_the_breakpoint_cap(monkeypatch, k, cap):
    # tent^k has 2^k + 1 breakpoints, far above the cap
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", cap)
    halves = (iv(0, F(1, 2)), iv(F(1, 2), 1))
    assert validate_certificate(TENT, HorseshoeCertificate(d=2, intervals=halves, iterate=k))


_GRID = st.sampled_from(sorted({F(a, b) for b in range(1, 5) for a in range(b + 1)}))


@st.composite
def certificates(draw):
    """Small maps, half of them alternating between 0 and 1 so that horseshoes
    are common, cut at their breakpoints or at any grid point, some of them
    off the map's domain; the intervals may gain a degenerate one, or have
    one replaced by an arbitrary, possibly overlapping one.  The iterate
    runs up to 5."""
    n = draw(st.integers(min_value=3, max_value=6))
    xs = sorted(draw(st.sets(_GRID, min_size=n, max_size=n)))
    if draw(st.booleans()):
        start = draw(st.integers(0, 1))
        ys = [F((start + i) % 2) for i in range(n)]
    else:
        ys = draw(st.lists(_GRID, min_size=n, max_size=n))
    f = make_pl(xs, ys)
    ends = st.sampled_from(xs) | _GRID
    cuts = sorted(draw(st.lists(ends, min_size=3, max_size=n, unique=True)))
    intervals = [IntervalQ(a, b) for a, b in zip(cuts, cuts[1:])]
    if draw(st.integers(0, 3)) == 3:
        x = draw(ends)
        intervals.append(IntervalQ(x, x))
    if draw(st.integers(0, 3)) == 3:
        a, b = draw(_GRID), draw(_GRID)
        intervals[draw(st.integers(0, len(intervals) - 1))] = IntervalQ(min(a, b), max(a, b))
    intervals = draw(st.permutations(intervals))
    cert = HorseshoeCertificate(d=len(intervals), intervals=tuple(intervals),
                                iterate=draw(st.integers(min_value=1, max_value=5)))
    return f, cert


@settings(max_examples=600, deadline=None)
@given(certificates())
def test_validator_matches_pairwise_oracle(f_cert):
    f, cert = f_cert
    assert validate_certificate(f, cert) == pairwise_valid(f, cert)


def test_certify_raises_on_a_failing_certificate():
    cert = certify(full_branch_map(3), THIRDS)
    assert (cert.d, cert.iterate) == (3, 1)
    with pytest.raises(ConstructionError):
        certify(TENT, [iv(0, F(1, 4)), iv(F(3, 4), 1)])


def test_certify_rejects_copies_of_a_fixed_point():
    # two copies of the fixed point 1/2 cover each other under the identity;
    # accepted, they would certify log 2 for a map of entropy 0
    with pytest.raises(ConstructionError):
        certify(IDENT, [iv(F(1, 2), F(1, 2))] * 2)


@pytest.mark.parametrize("call, error", [
    (lambda: HorseshoeCertificate(d=1, intervals=(iv(0, 1),)), ConstructionError),
    (lambda: HorseshoeCertificate(d=2, intervals=(iv(0, F(1, 2)), iv(F(1, 2), 1)), iterate=0),
     ConstructionError),
    (lambda: EntropyBounds(1.0, 0.5, None, depth_used=1), ConstructionError),
    (lambda: entropy_upper_lap(TENT, 0), DomainError),
    (lambda: entropy_bounds(TENT, 0), DomainError),
    (lambda: entropy_lower_markov(TENT, -1), DomainError),
], ids=["certificate_d1", "certificate_iterate0", "inverted_bracket", "upper_depth0",
        "bounds_depth0", "markov_refinement_neg"])
def test_preconditions_raise_library_errors(call, error):
    with pytest.raises(error):
        call()


def test_conjugacy_invariance_of_horseshoe_count():
    # affine conjugation h(x) = 2x + 3 leaves the branch structure intact
    for f in (TENT, full_branch_map(3), compose(TENT, TENT)):
        xs = tuple(2 * x + 3 for x in f.breakpoints)
        ys = tuple(2 * y + 3 for y in f.values)
        conj = make_pl(xs, ys)
        assert horseshoe_max(conj)[0] == horseshoe_max(f)[0]


# --- covering-matrix lower bound ---------------------------------------------------

def test_markov_tent_refinement0():
    assert entropy_lower_markov(TENT, 0) == pytest.approx(math.log(2), abs=1e-9)


def test_markov_identity():
    assert entropy_lower_markov(IDENT, 2) == 0.0


def test_markov_three_branch():
    assert entropy_lower_markov(full_branch_map(3), 0) == pytest.approx(
        math.log(3), abs=1e-9)


def test_markov_monotone_in_refinement():
    f = linear_combination([F(1, 2), F(1, 2)], [IDENT, TENT])
    prev = -1.0
    for r in range(4):
        val = entropy_lower_markov(f, r)
        assert val >= prev - 1e-12
        prev = val


def test_markov_never_exceeds_lap_bound():
    # lower bounds must stay below the (valid) upper bound
    for a in (F(1, 3), F(3, 5), F(7, 8)):
        f = linear_combination([1 - a, a], [IDENT, TENT])
        low = entropy_lower_markov(f, 4)
        up = entropy_upper_lap(f, 10)
        assert low <= up + 1e-9


def test_markov_cell_image_past_the_last_point():
    # f(1/3, 1/2) lies above 1/2, the last partition point: its row covers no cell
    f = make_pl([0, F(1, 4), F(1, 3), F(1, 2)], [F(1, 3), 0, F(2, 3), F(1, 2) + F(1, 2 ** 70)])
    up = entropy_upper_lap(f, 8)
    for r in range(4):
        assert 0.0 <= entropy_lower_markov(f, r) <= up + 1e-9


def record_rounds(monkeypatch):
    """Patch the Markov scan's round generator; each round's (points, left,
    right) is appended to the list returned."""
    seen, real = [], entropy._markov_rounds

    def rounds(f, refinement):
        for round_ in real(f, refinement):
            seen.append(round_)
            yield round_

    monkeypatch.setattr(entropy, "_markov_rounds", rounds)
    return seen


def test_markov_scan_stops_when_the_partition_closes(monkeypatch):
    # round 1 adds 1/2, the preimage of the end 1; pulling 1/2 back gives
    # only 0, so every later round would repeat round 1's partition
    rounds = record_rounds(monkeypatch)
    assert entropy_lower_markov(make_pl([0, F(1, 2), 1], [F(1, 2), 1, 1]), 5) == 0.0
    assert [points for points, _, _ in rounds] == [[0, 1], [0, F(1, 2), 1]]


def test_markov_scan_ranks_only_the_first_points(monkeypatch):
    # every later point's image is a partition point whose index the scan
    # carries; only f at the domain ends and turning points is ranked, each round
    g = invariant_restriction(theta(F(37, 64), 3))
    firsts = eval_many(g, entropy._turning_positions(g))
    rounds, ranked, pulled = record_rounds(monkeypatch), [], []
    real_rank, real_pull_back = entropy.rank, entropy._pull_back

    def counted_rank(xs, qs, fx, fq):
        if qs is not g.values and not any(qs is new for new in pulled):
            ranked.append(list(qs))  # neither pull-back's own nor its output's
        return real_rank(xs, qs, fx, fq)

    def pull_back(f, targets, ft):
        new, image_at = real_pull_back(f, targets, ft)
        pulled.append(new)
        return new, image_at

    monkeypatch.setattr(entropy, "rank", counted_rank)
    monkeypatch.setattr(entropy, "_pull_back", pull_back)
    entropy_lower_markov(g, 6)
    assert len(rounds) == 7
    assert ranked == [firsts] * len(rounds)


def test_markov_partition_cap(monkeypatch):
    monkeypatch.setattr(entropy, "PARTITION_CAP", 8)
    with pytest.raises(ResourceLimitError):
        entropy_lower_markov(TENT, 14)



def test_bounds_keep_markov_rounds_before_partition_cap(monkeypatch):
    # theta(37/64, 3): seven rounds fit in 500 cells and bound 0.5624, the
    # eighth needs 789 cells; the horseshoe side alone reaches only 0.5199,
    # so the bracket shows whether the capped Markov side kept its bound
    monkeypatch.setattr(entropy, "PARTITION_CAP", 500)
    f = theta(F(37, 64), 3)
    with pytest.raises(ResourceLimitError) as info:
        entropy_lower_markov(invariant_restriction(f), 8)
    assert info.value.achieved == 7
    assert info.value.bound == pytest.approx(0.5624, abs=1e-4)
    horseshoe, _ = lower_horseshoe(f, 8)
    assert horseshoe == pytest.approx(0.5199, abs=1e-4)
    eb = entropy_bounds(f, 8)
    assert eb.lower == info.value.bound
    assert eb.lower_witness is None

#: maps whose covering partitions tests/golden/markov_partitions.json pins:
#: the tent, theta(37/64, 3), two of its multiples inside the dial window
#: [9/10, 10/9], and the 17-node sample of the logistic map r = 3.74
PARTITION_MAPS = {
    "tent": TENT,
    "theta_37_64": theta(F(37, 64), 3),
    "theta_37_64_x99_100": scale(theta(F(37, 64), 3), F(99, 100)),
    "theta_37_64_x101_100": scale(theta(F(37, 64), 3), F(101, 100)),
    "logistic_374_17": sample_pl(lambda x: 3.74 * x * (1 - x),
                                 IntervalQ(F(0), F(1)), 17),
}


def ranks_oracle(points, vals):
    """bisect_left and bisect_right of every value in the partition."""
    return ([bisect_left(points, y) for y in vals], [bisect_right(points, y) for y in vals])


@pytest.mark.parametrize("name", sorted(PARTITION_MAPS))
def test_markov_partitions_match_golden(monkeypatch, name):
    # every round's partition: its size and the sha256 of its points, one
    # qstr a line; the ranks the scan carries must be those of f at the
    # points, so points[left[i]] == f(points[i]) wherever right[i] == left[i] + 1;
    # every rank the scan takes gets the floats of the partition and of the values
    g = invariant_restriction(PARTITION_MAPS[name])
    rounds, ranked_in = record_rounds(monkeypatch), []
    real_rank = entropy.rank

    def checked_rank(xs, qs, fx, fq):
        assert fx.tolist() == _floats(xs).tolist() and fq.tolist() == _floats(qs).tolist()
        ranked_in.append(xs)
        return real_rank(xs, qs, fx, fq)

    monkeypatch.setattr(entropy, "rank", checked_rank)
    entropy_lower_markov(g, 8)
    golden = json.loads((GOLDEN / "markov_partitions.json").read_text())
    assert [[len(points), hashlib.sha256("\n".join(map(qstr, points)).encode()).hexdigest()]
            for points, _, _ in rounds] == golden[name]
    for points, left, right in rounds:
        assert any(xs is points for xs in ranked_in)  # its floats were checked
        assert (left.tolist(), right.tolist()) == ranks_oracle(points, eval_many(g, points))


def test_pull_back_gets_only_last_rounds_points(monkeypatch):
    # round r+1 pulls back P_r minus P_(r-1), the points round r added
    g = invariant_restriction(theta(F(37, 64), 3))
    rounds, pulled = record_rounds(monkeypatch), []
    real_pull_back = entropy._pull_back

    def pull_back(f, targets, ft):
        pulled.append(list(targets))
        assert ft.tolist() == _floats(targets).tolist()
        return real_pull_back(f, targets, ft)

    monkeypatch.setattr(entropy, "_pull_back", pull_back)
    entropy_lower_markov(g, 6)
    partitions = [points for points, _, _ in rounds]
    assert len(pulled) == 6 and len(partitions) == 7
    assert pulled[0] == partitions[0]
    for r in range(1, 6):
        assert pulled[r] == sorted(set(partitions[r]) - set(partitions[r - 1]))


def pull_back_oracle(f, targets):
    """_pull_back before the left-to-right walk: a dict point -> image,
    deduplicating nodes reached from both of their segments."""
    xs, ys = f.breakpoints, f.values
    ft = _floats(targets)
    left, right = rank(targets, ys, ft, _floats(ys))
    on_target = (left < right).tolist()
    found = {}
    for i, hits in enumerate(segment_preimages(f, targets, left, right)):
        if ys[i] != ys[i + 1]:
            found.update((xs[k], ys[k]) for k in (i, i + 1) if on_target[k])
        found.update((x, targets[j]) for x, j in hits)
    return found


@st.composite
def pull_back_cases(draw):
    """A map and ascending targets: flat runs, flat end segments, collinear
    (also flat) nodes, and targets at node values or 2^-70 from them."""
    f = draw(st.one_of(grid_maps(), near_tie_grid_maps()))
    xs, ys = list(f.breakpoints), list(f.values)
    if draw(st.booleans()):
        ys[0] = ys[1]
    if draw(st.booleans()):
        ys[-1] = ys[-2]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(xs) - 2))
        xs.insert(i + 1, (xs[i] + xs[i + 1]) / 2)
        ys.insert(i + 1, (ys[i] + ys[i + 1]) / 2)  # collinear; flat on a flat segment
    near = st.builds(lambda y, j: y + j * _TINY, st.sampled_from(ys), st.integers(-1, 1))
    targets = draw(st.sets(st.sampled_from(ys) | near | _GRID, max_size=8))
    return make_pl(xs, ys), sorted(targets)


@settings(max_examples=300, deadline=None)
@given(pull_back_cases())
def test_pull_back_walk_matches_oracle(case):
    f, targets = case
    expected = pull_back_oracle(f, targets)
    points, image_at = entropy._pull_back(f, targets, _floats(targets))
    assert points == sort_exact(expected)
    assert [targets[j] for j in image_at] == [expected[x] for x in points]


def covering_rows_oracle(points, vals):
    """The covering rows before the rank kernel: two bisects per cell."""
    starts, stops = [], []
    for i in range(len(points) - 1):
        lo, hi = sorted((vals[i], vals[i + 1]))
        jl = bisect_left(points, lo)
        starts.append(jl)
        stops.append(max(bisect_right(points, hi) - 1, jl))
    return starts, stops


def assert_covering_rows_match_oracle(monkeypatch, f, refinement):
    """Every round's covering rows, as entropy_lower_markov passes them on,
    equal the oracle's on that round's partition."""
    rounds, rows = record_rounds(monkeypatch), []
    real_rows = entropy._interval_rows_radius

    def radius(starts, stops):
        rows.append((starts.tolist(), stops.tolist()))
        return real_rows(starts, stops)

    monkeypatch.setattr(entropy, "_interval_rows_radius", radius)
    try:
        entropy_lower_markov(f, refinement)
    except ResourceLimitError:
        rounds.pop()  # the round past the partition cap gets no rows
    assert rows == [covering_rows_oracle(points, eval_many(f, points)) for points, _, _ in rounds]
    return rows


@pytest.mark.parametrize("name", sorted(PARTITION_MAPS))
def test_covering_rows_match_oracle(monkeypatch, name):
    assert assert_covering_rows_match_oracle(
        monkeypatch, invariant_restriction(PARTITION_MAPS[name]), 6)


def intersects_rows_oracle(points, vals):
    """The intersects rows by bisection: the cells j whose interior the image
    [lo, hi] of cell i meets, points[j + 1] > lo and points[j] < hi."""
    n, rows = len(points) - 1, []
    for i in range(n):
        lo, hi = sorted((vals[i], vals[i + 1]))
        rows.append(list(range(max(bisect_right(points, lo) - 1, 0), min(bisect_left(points, hi), n))))
    return rows


#: entropy 0.41 or more: a 2-horseshoe on g^4 and a covering radius above 1
#: at round 3, but taking U's low end by comparing left ranks certifies h = 0
LEFT_RANK_PITFALL = make_pl([0, F(1, 4), F(3, 4), 1], [0, F(2, 3), 0, F(1, 4)])


@pytest.mark.parametrize("f", [*PARTITION_MAPS.values(), LEFT_RANK_PITFALL],
                         ids=[*PARTITION_MAPS, "left_rank_pitfall"])
def test_round_rows_match_oracles(f):
    # one round's ranks give both row sets: C's as the covering bound reads
    # them, and U's, as the exact zero test reads them, cell by cell
    g = invariant_restriction(f)
    for points, left, right in entropy._markov_rounds(g, 6):
        (c_starts, c_stops), (u_starts, u_stops) = entropy._round_rows(points, left, right)
        vals = eval_many(g, points)
        assert (c_starts.tolist(), c_stops.tolist()) == covering_rows_oracle(points, vals)
        assert ([list(range(a, b)) for a, b in zip(u_starts.tolist(), u_stops.tolist())]
                == intersects_rows_oracle(points, vals))


def test_bounds_beyond_float_range():
    # node values past 1e308 overflow int-to-float division; the rank kernel
    # orders them as +-inf and decides their ties exactly
    big = 10 ** 400
    eb = entropy_bounds(make_pl([0, big, 2 * big], [0, 2 * big, 0]), 3)
    assert eb.lower == eb.upper == math.log(2)
    assert eb.depth_used == 3


@st.composite
def interval_rows(draw):
    """Random interval-row 0/1 matrices: row i has ones in starts[i]:stops[i].

    Narrow rows (often empty or a lone self-loop) keep radius <= 1 common.
    """
    n = draw(st.integers(min_value=0, max_value=12))
    starts = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    widths = draw(st.lists(st.one_of(st.integers(0, 2), st.integers(0, n)),
                           min_size=n, max_size=n))
    stops = [min(n, s + w) for s, w in zip(starts, widths)]
    return np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)


def _radius_by_blocks(starts, stops):
    """max |numpy.linalg.eigvals| over the matrix's strongly connected blocks.

    Taken block by block because chained cycles give the whole matrix a
    repeated eigenvalue of modulus 1 (a Jordan block), which eigvals returns
    with an error near the square root of machine epsilon; inside one
    irreducible block every eigenvalue of maximal modulus is simple.
    """
    n = len(starts)
    m = np.zeros((n, n))
    for i in range(n):
        m[i, starts[i]:stops[i]] = 1.0
    reach = (m > 0) | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall transitive closure
        reach |= np.outer(reach[:, k], reach[k, :])
    same = reach & reach.T
    radius = 0.0
    for i in range(n):
        block = np.flatnonzero(same[i])
        radius = max(radius, float(np.abs(np.linalg.eigvals(m[np.ix_(block, block)])).max()))
    return radius


@settings(max_examples=300, deadline=None)
@given(interval_rows())
def test_exact_radius_decision_matches_eigvals(rows):
    starts, stops = rows
    rho = _radius_by_blocks(starts, stops)
    at_most_one = rho <= 1 + 1e-9
    assert _radius_at_most_one(starts, stops) == at_most_one
    result = _interval_rows_radius(starts, stops)
    if at_most_one:
        assert result == 0.0
    else:
        assert result <= rho + 1e-9


def test_chained_cycles_radius_is_exactly_zero():
    # 0 -> {0, 1}, 1 -> {2}, 2 -> {2}: two self-loops chained through node 1
    # have radius exactly 1, and power iteration on M + I never settles there
    assert _interval_rows_radius(np.array([0, 2, 2]), np.array([2, 3, 3])) == 0.0


def test_radius_decision_on_partition_cap_cycle():
    # one cycle through PARTITION_CAP cells, far deeper than Python recursion
    starts = (np.arange(PARTITION_CAP, dtype=np.int64) + 1) % PARTITION_CAP
    stops = starts + 1
    assert _radius_at_most_one(starts, stops)
    stops[0] += 1  # a chord: cell 0 now also reaches cell 2, so radius > 1
    assert not _radius_at_most_one(starts, stops)


def power_floor_oracle(starts, stops):
    """_interval_rows_radius before the memo: a fresh allocating power loop
    on M + I, the norm from np.linalg.norm, then the Collatz-Wielandt floor."""
    if _radius_at_most_one(starts, stops):
        return 0.0
    n = len(starts)
    v = np.ones(n) / math.sqrt(n)
    prev = 0.0
    for _ in range(entropy._POWER_ITERS):
        prefix = np.concatenate(([0.0], np.cumsum(v)))
        w = prefix[stops] - prefix[starts] + v
        norm = float(np.linalg.norm(w))
        v = w / norm
        if abs(norm - prev) <= entropy._POWER_TOL * max(1.0, norm):
            break
        prev = norm
    v = np.where(v > v.max() * 1e-12, v, 0.0)
    prefix = np.concatenate(([0.0], np.cumsum(v)))
    w = prefix[stops] - prefix[starts] + v
    support = v > 0.0
    return max(float(np.min(w[support] / v[support])) - 1.0, 0.0)


@st.composite
def wide_interval_rows(draw):
    """Interval rows up to 300 cells, most two or more wide: radius > 1 is
    the rule, so the power loop runs."""
    n = draw(st.integers(min_value=2, max_value=300))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    stops = [min(n, s + w) for s, w in zip(starts, widths)]
    return np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(interval_rows(), wide_interval_rows()))
def test_radius_is_bit_identical_to_the_allocating_power_loop(rows):
    entropy._rows_radius.cache_clear()  # the loop runs, not a memo hit
    assert _interval_rows_radius(*rows) == power_floor_oracle(*rows)


def count_radius_runs(monkeypatch):
    """Count the radii computed: each starts with the exact decision."""
    runs = []
    real = entropy._radius_at_most_one

    def decide(starts, stops):
        runs.append(len(starts))
        return real(starts, stops)

    monkeypatch.setattr(entropy, "_radius_at_most_one", decide)
    entropy._rows_radius.cache_clear()
    return runs


_FULL_2 = ([0, 0], [2, 2])  # the all-ones 2x2 matrix: radius 2


def test_radius_memo_normalises_the_row_dtype(monkeypatch):
    runs = count_radius_runs(monkeypatch)
    radii = [_interval_rows_radius(*(np.array(rows, dtype=dtype) for rows in _FULL_2))
             for dtype in (np.int64, np.int32, np.int64)]
    assert radii == [radii[0]] * 3 and radii[0] == pytest.approx(2.0)
    assert runs == [2]


def test_radius_memo_tells_rows_apart_by_one_stop(monkeypatch):
    # row 1 of the full 2x2 matrix loses its last column: radius 2 -> golden ratio
    runs = count_radius_runs(monkeypatch)
    full = _interval_rows_radius(*map(np.array, _FULL_2))
    cut = _interval_rows_radius(np.array([0, 0]), np.array([2, 1]))
    assert full == pytest.approx(2.0) and cut == pytest.approx((1 + 5 ** 0.5) / 2)
    assert runs == [2, 2]
    assert _interval_rows_radius(*map(np.array, _FULL_2)) == full
    assert runs == [2, 2]


def test_repeated_matrix_runs_one_power_loop(monkeypatch):
    runs = count_radius_runs(monkeypatch)
    starts, stops = np.array([0, 0, 1]), np.array([2, 3, 3])
    first = _interval_rows_radius(starts, stops)
    assert first > 1.0 and runs == [3]
    assert _interval_rows_radius(starts.copy(), stops.copy()) == first
    assert runs == [3]
    assert entropy._rows_radius.cache_info().hits == 1


def test_radius_memo_is_bounded():
    memo = entropy._rows_radius
    memo.cache_clear()
    for n in range(1, entropy._RADIUS_MEMO + 20):
        _interval_rows_radius(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    info = memo.cache_info()
    assert info.maxsize == entropy._RADIUS_MEMO and info.currsize == entropy._RADIUS_MEMO


def test_horseshoe_max_rejects_a_branch_the_search_miscounts(monkeypatch):
    # a rectangle no branch has, over every hull and starting at 0, puts a
    # second interval at 0 into the certificate: certify must raise, also
    # under python -O
    real = entropy._hull_boxes

    def with_false_branch(f):
        n = len(f)
        return np.vstack([real(f), [0, 0, n - 1, n - 1, 0]])

    monkeypatch.setattr(entropy, "_hull_boxes", with_false_branch)
    with pytest.raises(ConstructionError):
        horseshoe_max(full_branch_map(3))


def dense_horseshoe_argmax(f):
    """Oracle: the (n+1)^2 difference grid horseshoe_max accumulated before its
    row sweep.  Returns d and the hull [u, v] of the first maximum in
    row-major order over u < v, or (1, None) below 2."""
    pts = list(f.breakpoints)
    n = len(pts)
    if n < 2:
        return 1, None
    grid = np.zeros((n + 1, n + 1), dtype=np.int64)
    for il, ir, jl, jr, _ in entropy._hull_boxes(f):
        grid[il, jl] += 1
        grid[il, jr + 1] -= 1
        grid[ir + 1, jl] -= 1
        grid[ir + 1, jr + 1] += 1
    counts = np.triu(grid.cumsum(axis=0).cumsum(axis=1)[:n, :n], k=1)
    d = int(counts.max())
    if d < 2:
        return 1, None
    i, j = np.unravel_index(int(counts.argmax()), counts.shape)
    return d, (pts[i], pts[j])


@st.composite
def grid_maps(draw):
    """Maps through grid nodes; a repeated value makes a flat segment."""
    n = draw(st.integers(min_value=2, max_value=7))
    xs = sorted(draw(st.sets(_GRID, min_size=n, max_size=n)))
    ys = [draw(_GRID)]
    for _ in range(n - 1):
        ys.append(ys[-1] if draw(st.integers(0, 4)) == 0 else draw(_GRID))
    return make_pl(xs, ys)


@settings(max_examples=400, deadline=None)
@given(grid_maps())
def test_horseshoe_max_matches_dense_grid(f):
    # same d and same hull, ties included, on f, f^2 and f^3
    g = f
    for _ in range(3):
        d, cert = horseshoe_max(g)
        expected_d, hull = dense_horseshoe_argmax(g)
        i, j, starts = entropy._widest_hull(g)
        assert d == expected_d and len(starts) == (0 if hull is None else d)
        assert hull is None or (g.breakpoints[i], g.breakpoints[j]) == hull
        # every rectangle lies above the diagonal: its hulls all have u < v
        assert all(ir < jl for _, ir, jl, _, _ in entropy._hull_boxes(g))
        assert cert == (None if hull is None else branch_certificate_oracle(g, *hull))
        g = compose(f, g)


def branch_certificate_oracle(f, u, v):
    """The certificate of hull [u, v] as cut before it shared the Markov
    scan's pull-back and the search's covering branches: each level from its
    own walk over nodes (one == each) and crossings, and f evaluated at the
    ends of every piece cut to [u, v]."""
    xs, ys = f.breakpoints, f.values

    def level_set(target):
        out = []
        for i, hits in enumerate([*segment_preimages_oracle(f, [target]), []]):
            if ys[i] == target:
                out.append(xs[i])
            out.extend(x for x, _ in hits)
        return out

    level_u, level_v = level_set(u), level_set(v)
    spans = [(max(xs[s], u), min(xs[e], v)) for s, e in monotone_pieces(f)]
    spans = [(lo_x, hi_x) for lo_x, hi_x in spans if lo_x < hi_x]
    ends = eval_many(f, [x for span in spans for x in span])
    firsts = [lo_x for (lo_x, _), f_lo, f_hi in zip(spans, ends[::2], ends[1::2])
              if min(f_lo, f_hi) <= u and max(f_lo, f_hi) >= v]
    return certify(f, [IntervalQ(*sorted((level_u[bisect_left(level_u, x)],
                                          level_v[bisect_left(level_v, x)]))) for x in firsts])


@settings(max_examples=400, deadline=None)
@given(grid_maps())
def test_branch_certificate_matches_oracle(f):
    # on the widest hull of f, f^2 and f^3, flats at the levels included
    g = f
    for _ in range(3):
        i, j, starts = entropy._widest_hull(g)
        if len(starts) >= 2:
            u, v = g.breakpoints[i], g.breakpoints[j]
            assert horseshoe_max(g)[1] == branch_certificate_oracle(g, u, v)
        g = compose(f, g)


@pytest.mark.parametrize("xs, ys, intervals", [
    # u = 0 is the first branch's start, inside the flat [0, 1/4]
    ([0, F(1, 4), F(1, 2), 1], [0, 0, 1, 0], [(0, F(1, 2)), (F(1, 2), 1)]),
    # u = 1/4 is a fixed point inside the flat [0, 3/8]
    ([0, F(1, 8), F(1, 4), F(3, 8), F(1, 2), 1], [F(1, 4)] * 4 + [1, 0],
     [(F(1, 4), F(1, 2)), (F(1, 2), F(7, 8))]),
])
def test_branch_certificate_starts_at_a_start_inside_a_flat(xs, ys, intervals):
    # the start is no pull-back point: f is flat on both sides of it, or it
    # ends the domain; the first branch still starts there
    d, cert = horseshoe_max(make_pl(xs, ys))
    assert (d, cert.intervals) == (2, tuple(IntervalQ(F(lo), F(hi)) for lo, hi in intervals))


def hull_boxes_oracle(f, pts):
    """_hull_boxes before the rank kernel: bisects and eval_at per candidate.
    A branch starts at its piece's start s, or at k where u = pts[k] cuts it."""
    xs, ys = f.breakpoints, f.values
    boxes = [(s, xs[s], xs[e], min(ys[s], ys[e]), max(ys[s], ys[e]))
             for s, e in monotone_pieces(f)]
    rects = []

    def add_box(il, ir, jl, jr, start):
        if il <= ir and jl <= jr:
            rects.append((il, ir, jl, jr, start))

    for s, a, b, lo, hi in boxes:
        if lo != hi:
            add_box(bisect_left(pts, lo), bisect_right(pts, a) - 1,
                    bisect_left(pts, b), bisect_right(pts, hi) - 1, s)
    piece = 0
    for k, u in enumerate(pts):
        while piece < len(boxes) - 1 and boxes[piece][2] <= u:
            piece += 1
        s, a, b, lo, hi = boxes[piece]
        if not (a < u < b) or lo == hi:
            continue
        fu, fa, fb = eval_at(f, u), eval_at(f, a), eval_at(f, b)
        if min(fu, fb) <= u:
            add_box(k, k, bisect_left(pts, b), bisect_right(pts, max(fu, fb)) - 1, k)
        if max(fu, fa) >= u:
            add_box(bisect_left(pts, min(fu, fa)), bisect_right(pts, a) - 1, k, k, s)
    return rects


_TINY = F(1, 2 ** 70)


@st.composite
def near_tie_grid_maps(draw):
    """grid_maps with every node and value moved by -1, 0 or +1 times 2^-70."""
    f = draw(grid_maps())
    shift = st.integers(-1, 1)
    xs = sorted({x + draw(shift) * _TINY for x in f.breakpoints})
    return make_pl(xs, [draw(_GRID) + draw(shift) * _TINY for _ in xs])


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_maps(), near_tie_grid_maps()))
def test_hull_boxes_match_oracle(f):
    g = f
    for _ in range(3):
        pts = list(g.breakpoints)
        assert sorted(map(tuple, entropy._hull_boxes(g).tolist())) == \
            sorted(hull_boxes_oracle(g, pts))
        g = compose(f, g)


@pytest.mark.parametrize("xs, ys", [([F(1, 2)], [F(1, 2)]), ([0, F(1, 3), 1], [F(1, 2)] * 3)])
def test_constant_maps_have_no_covering_branch(xs, ys):
    # a fixed point on its own has the one hull [u, u]: it is no branch
    f = make_pl(xs, ys)
    assert entropy._hull_boxes(f).shape == (0, 5)
    assert entropy._widest_hull(f) == (0, 0, [])


@settings(max_examples=200, deadline=None)
@given(st.one_of(grid_maps(), near_tie_grid_maps(), far_maps()))
def test_covering_rows_match_oracle_on_random_maps(f):
    # on the invariant restriction, as entropy_bounds runs the scan
    with pytest.MonkeyPatch.context() as mp:
        assert_covering_rows_match_oracle(mp, invariant_restriction(f), 3)


# --- combined bounds ----------------------------------------------------------------

def test_bounds_tent_bracket_exact():
    eb = entropy_bounds(TENT, 1)
    assert eb.lower == pytest.approx(math.log(2), abs=1e-9)
    assert eb.upper == pytest.approx(math.log(2), abs=1e-9)
    assert eb.lower_witness is not None and eb.lower_witness.d == 2


def test_bounds_identity_zero():
    eb = entropy_bounds(IDENT, 2)
    assert eb.lower == 0.0 and eb.upper == 0.0


def test_bounds_full_branch_family_exact():
    for d in range(2, 11):
        eb = entropy_bounds(full_branch_map(d), 1)
        assert abs(eb.lower - math.log(d)) < 1e-9
        assert abs(eb.upper - math.log(d)) < 1e-9


def test_bounds_skip_the_markov_scan_once_the_horseshoe_meets_the_lap_bound(monkeypatch):
    # three full branches: the 3-horseshoe and the 3 laps of f both give log 3
    calls = []
    real = entropy.entropy_lower_markov
    monkeypatch.setattr(entropy, "entropy_lower_markov",
                        lambda f, refinement: calls.append(f) or real(f, refinement))
    f = full_branch_map(3)
    eb = entropy_bounds(f, 8)
    assert calls == []
    # log(3^5) / 5 rounds one ulp below log 3, and the bracket takes the smaller
    assert eb.lower == eb.upper == pytest.approx(math.log(3), abs=1e-15)
    assert eb.lower_witness is not None and validate_certificate(f, eb.lower_witness)


def test_bounds_witness_rate_matches_lower():
    eb = entropy_bounds(TENT, 3)
    assert eb.lower_witness is not None
    assert eb.lower == pytest.approx(eb.lower_witness.rate, abs=1e-12)


def test_bounds_scaled_sin_lower():
    import math as m
    from entropy_banach.plmap import sample_pl
    lam = 4 * m.pi
    dom = IntervalQ(F(-14), F(14))
    f = sample_pl(lambda x: lam * m.sin(x), dom, 1201)
    eb = entropy_bounds(f, 1)
    assert eb.lower >= math.log(2) - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=32))
def test_bracket_validity_on_tent_family(a):
    f = linear_combination([a], [TENT])
    eb = entropy_bounds(f, 6)
    assert eb.lower <= eb.upper + 1e-12
    if eb.lower_witness is not None:
        g = invariant_restriction(f)
        assert validate_certificate(g, eb.lower_witness)


def lap_images_oracle(g):
    """The multiset of the image intervals of g's laps, read off its pieces;
    empty when g is constant."""
    ys = g.values
    images = Counter((min(ys[s], ys[e]), max(ys[s], ys[e])) for s, e in monotone_pieces(g))
    return Counter({iv: m for iv, m in images.items() if iv[0] < iv[1]})


def keyed(images):
    """A Counter of (lo, hi) images in the keys and entries of _lap_images."""
    return {(*lo.as_integer_ratio(), *hi.as_integer_ratio()): [lo, hi, m]
            for (lo, hi), m in images.items()}


def constant_on_some(f, images):
    """Whether f is constant on one of the intervals ``images``, keyed (lo, hi)."""
    return any(img.lo == img.hi for img in image_intervals(f, [IntervalQ(*iv) for iv in images]))


def monotone_through_flat(f):
    """Whether a maximal flat run of f has rising segments on both sides, or falling."""
    ys = f.values
    for i in range(1, len(ys) - 1):
        j = i
        while j + 1 < len(ys) and ys[j + 1] == ys[i]:
            j += 1
        if j > i and ys[i - 1] != ys[i] and j + 1 < len(ys) and \
                (ys[i] > ys[i - 1]) == (ys[j + 1] > ys[j]):
            return True
    return False


def capped_lap_counts(g, depth, cap, built):
    """The lap counts entropy_bounds reports under a breakpoint cap, for the
    invariant restriction g whose capped chain has ``built`` iterates: those
    of the uncapped chain, up to the first k >= 2 with laps + 1 > cap, or
    the first k > built where laps may merge, since those are counted on
    g^k, which the capped chain lacks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plmap, "BREAKPOINT_CAP", 10 ** 9)
        chain = iterate_chain(g, depth)
    counted = [lap_count(g)]
    for k in range(2, depth + 1):
        laps = lap_count(chain[k - 1])
        merge = monotone_through_flat(g) and constant_on_some(g, lap_images_oracle(chain[k - 2]))
        if laps + 1 > cap or (k > built and merge):
            break
        counted.append(laps)
    return counted


@settings(max_examples=200, deadline=None)
@given(grid_maps(), st.integers(1, 6), st.sampled_from([None, 3, 4, 8, 16, 32]))
@example(TENT, 9, 4)  # the tent's square has 5 breakpoints: depth 1 is reported
@example(scale(theta(F(37, 64), 3), F(181, 180)), 8, None)  # a map the dial scores
@example(scale(theta(F(37, 64), 3), F(1)), 8, 3)
# log(laps)/k is 0.7083 at k = 4 and 0.7111 at k = 5: the last rate is not the least
@example(make_pl([0, F(2, 3), F(3, 4), 1], [1, 0, F(1, 2), 0]), 5, None)
def test_bounds_match_chain_oracle(f, depth, cap):
    # a small breakpoint cap ends the stream of iterates early; the laps
    # are counted on from lap images until g^k certainly exceeds the cap
    g = invariant_restriction(f)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(plmap, "BREAKPOINT_CAP", cap)
        eb = entropy_bounds(f, depth)
        counted = None
        if cap is not None and lap_count(g) > 1:
            counted = capped_lap_counts(g, depth, cap, len(iterate_chain(g, depth)))
        lower, upper, cert, depth_used = bracket_oracle(f, depth, counted)
        assert eb.lower == lower
        assert eb.upper == upper
        assert eb.lower_witness == cert
        assert eb.depth_used == depth_used
        # the dial's r(a) skips multipliers by this lap bound: it must be the
        # bracket's upper side bit for bit, also when the cap stops the count
        assert eb.upper == entropy_upper_lap(g, depth)


@settings(max_examples=150, deadline=None)
@given(grid_maps(), st.integers(1, 6))
def test_upper_matches_the_laps_of_the_chain(f, depth):
    # on f itself, not its invariant restriction: images may leave the domain
    assert entropy_upper_lap(f, depth) == lap_upper([lap_count(h) for h in iterate_chain(f, depth)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_maps(), near_tie_maps(max_nodes=6), far_maps(max_nodes=5)))
def test_lap_images_count_the_laps_of_iterates(f):
    # grid maps draw end flats, plateaus and flats that f is monotone
    # through; the lap images of f^k, carried from level to level, are
    # those read off the built iterate, and None exactly where laps may
    # merge; the same holds for the self-map g
    for g in (f, invariant_restriction(f)):
        gk, images = None, Counter({(g.domain.lo, g.domain.hi): 1})  # the lap of g^0
        for k in range(1, 7):
            gk = g if gk is None else compose(g, gk)
            carried = _lap_images(g, keyed(images), plmap._turns(g))
            assert (carried is None) == (constant_on_some(g, images) and monotone_through_flat(g))
            images = lap_images_oracle(gk)
            if carried is not None:
                assert carried == keyed(images)
                assert max(1, sum(images.values())) == lap_count(gk)
            if len(gk) > 400:
                break


# the lap of [0, 1/8] maps into a flat of g, so g^2 is constant on it; it
# merges into the laps next to it, which meet at a turn but for a flat
# that g is monotone through
FLAT_MAPS = {
    # rising through the flat [3/8, 5/8]: two laps of g^2 merge with it
    "through_flat": make_pl([0, F(1, 8), F(1, 4), F(3, 8), F(5, 8), F(3, 4), 1],
                            [F(7, 16), F(9, 16), 0, F(1, 2), F(1, 2), 1, 0]),
    # a plateau at the top: g^2 has 11 laps, the 12 runs less the constant one
    "plateau": make_pl([0, F(1, 10), F(1, 5), F(2, 5), F(3, 5), 1],
                       [F(9, 20), F(11, 20), 0, 1, 1, 0]),
    # the flat [0, 1/2] at the left end holds the image of both laps: g^2 is constant
    "end_flat": make_pl([0, F(1, 2), F(3, 4), 1, 2], [0, 0, F(1, 2), 0, 1]),
    # g falls through the flat [2/3, 3/4], and the lap image [1/3, 1] starts
    # inside the plateau [1/4, 1/2]: it is not cut at 1/2, so no run is constant
    "plateau_end": make_pl([0, F(1, 4), F(1, 2), F(2, 3), F(3, 4), 1],
                           [F(1, 3), 1, 1, F(1, 3), F(1, 3), 0]),
}


@pytest.mark.parametrize("name", sorted(FLAT_MAPS))
def test_flat_maps_count_laps_or_take_the_iterate_path(monkeypatch, name):
    f = FLAT_MAPS[name]
    g = invariant_restriction(f)
    carried = _lap_images(g, keyed(lap_images_oracle(g)), plmap._turns(g))
    g2 = compose(g, g)
    assert (carried is None) == (name == "through_flat")
    if carried is not None:
        assert carried == keyed(lap_images_oracle(g2))
        assert max(1, sum(m for _, _, m in carried.values())) == lap_count(g2)
    # with no hull search past g, only merging laps make g^2 worth building
    monkeypatch.setattr(entropy, "HORSESHOE_LAP_BUDGET", 1)
    calls, real = [], entropy.compose
    monkeypatch.setattr(entropy, "compose", lambda f, g: calls.append(len(g)) or real(f, g))
    eb = entropy_bounds(f, 4)
    assert bool(calls) == (name == "through_flat")
    assert (eb.lower, eb.upper, eb.lower_witness, eb.depth_used) == bracket_oracle(f, 4)


def test_bounds_compose_only_what_the_search_reads(monkeypatch):
    # the 3-horseshoe of g gives rate log 3, and no later lap rate
    # log(3^k)/k beats it, so no iterate is read; the lap count reaches depth 8
    calls, real = [], entropy.compose
    monkeypatch.setattr(entropy, "compose", lambda f, g: calls.append(len(g)) or real(f, g))
    eb = entropy_bounds(full_branch_map(3), 8)
    assert calls == []
    assert eb.depth_used == 8 and eb.lower_witness.iterate == 1
    assert eb.upper == pytest.approx(math.log(3), abs=1e-12)



SQUEEZED_TENT = make_pl([0, F(1, 2), 1], [F(1, 4), F(3, 4), F(1, 4)])


def test_bounds_build_no_iterate_once_zero_entropy_is_certified(monkeypatch):
    # g = x + 1/4 then 5/4 - x on [1/4, 3/4] has 2 laps at every level and
    # no 2-horseshoe, so each lap rate log(2)/k beats the best hull, 0; but
    # U of round 0 has radius 1, so h = 0 and no iterate is built
    calls, real = [], entropy.compose
    monkeypatch.setattr(entropy, "compose", lambda f, g: calls.append(len(g)) or real(f, g))
    eb = entropy_bounds(SQUEEZED_TENT, 6)
    assert calls == []
    assert (eb.lower, eb.upper, eb.lower_witness, eb.depth_used) == (0.0, math.log(2) / 6, None, 6)


def test_bounds_build_and_count_every_level_the_search_reads(monkeypatch):
    # the tent of slope 3/2 has entropy log(3/2) and no 2-horseshoe up to
    # g^6, so every lap rate beats the best hull: the search reads g, ...,
    # g^6, and each of g^2, ..., g^6 is composed once, from the level
    # before; so also with the exact zero test off
    calls, real = [], entropy.compose
    monkeypatch.setattr(entropy, "compose", lambda f, g: calls.append(len(g)) or real(f, g))
    reads, real_hull = [], entropy._widest_hull
    monkeypatch.setattr(entropy, "_widest_hull", lambda g: reads.append(len(g)) or real_hull(g))
    f = make_pl([0, F(1, 2), 1], [0, F(3, 4), 0])
    eb = entropy_bounds(f, 6)
    assert reads == [3, 5, 8, 13, 20, 31] and calls == reads[:-1]
    assert eb.lower_witness is None and 0 < eb.lower < math.log(F(3, 2)) < eb.upper
    assert eb.depth_used == 6
    calls.clear()
    reads.clear()
    monkeypatch.setattr(entropy, "_certifies_zero", lambda rounds: False)
    assert entropy_bounds(f, 6) == eb
    assert reads == [3, 5, 8, 13, 20, 31] and calls == reads[:-1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_maps(), near_tie_grid_maps(), near_tie_maps(max_nodes=6)))
@example(SQUEEZED_TENT)
@example(LEFT_RANK_PITFALL)
def test_certified_zero_entropy_is_sound(f):
    # when U proves h = 0 on the self-map g, no iterate has a 2-horseshoe,
    # every covering radius is at most 1, and the bracket is the one
    # entropy_bounds reports with the test off; g^4 and six rounds catch
    # more of the maps a miscounted U would pass than the three the test reads
    g = invariant_restriction(f)
    if lap_count(g) == 1 or not entropy._certifies_zero(entropy._markov_rounds(g, 3)):
        return
    gk = g
    for _ in range(4):
        assert len(entropy._widest_hull(gk)[2]) < 2
        gk = compose(g, gk)
    assert entropy_lower_markov(g, 3) == 0.0
    try:
        assert entropy_lower_markov(g, 6) == 0.0
    except ResourceLimitError as exc:
        assert exc.bound == 0.0
    eb = entropy_bounds(f, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_certifies_zero", lambda rounds: False)
        assert entropy_bounds(f, 5) == eb


@pytest.mark.parametrize("f", [TENT, full_branch_map(3), theta(F(37, 64), 3),
                               make_pl([0, F(1, 2), 1], [0, F(3, 5), 0])],
                         ids=["tent", "full_branch_3", "theta_37_64", "tent_slope_6_5"])
def test_zero_test_never_fires_on_positive_entropy(f):
    # the slope-6/5 tent's bracket at depth 6 has lower bound 0, but its
    # entropy is log(6/5): U's radius exceeds 1 in every round
    g = invariant_restriction(f)
    assert not entropy._certifies_zero(entropy._markov_rounds(g, 3))
    assert not entropy._certifies_zero(entropy._markov_rounds(g, 6))


@pytest.mark.parametrize("f, depth, capped", [(make_pl([0, F(1, 2), 1], [0, F(3, 4), 0]), 6, False),
                                              (theta(F(55, 64), 3), 8, True)],
                         ids=["tent_slope_3_2", "theta_55_64"])
def test_bounds_open_one_scan_and_build_each_round_once(monkeypatch, f, depth, capped):
    # the exact zero test fails on both maps, and the covering bound reads the
    # rounds the test read again: one scan is opened, and each round after
    # round 0 costs one pull-back; theta(55/64, 3)'s round 8 has 8,947 cells,
    # past PARTITION_CAP, and the bracket keeps the bound of rounds 0-7
    rounds = record_rounds(monkeypatch)
    recording, opened, pulled, verdicts = entropy._markov_rounds, [], [], []
    real_pull_back, real_zero = entropy._pull_back, entropy._certifies_zero

    def markov_rounds(g, refinement):
        opened.append(refinement)
        return recording(g, refinement)

    def certifies_zero(*args):
        verdicts.append(real_zero(*args))
        return verdicts[-1]

    monkeypatch.setattr(entropy, "_markov_rounds", markov_rounds)
    monkeypatch.setattr(entropy, "_pull_back", lambda *args: pulled.append(1) or real_pull_back(*args))
    monkeypatch.setattr(entropy, "_certifies_zero", certifies_zero)
    eb = entropy_bounds(f, depth)
    assert opened == [depth] and verdicts == [False]
    assert len(rounds) == depth + 1 and len(pulled) == depth
    assert eb.lower_witness is None and eb.depth_used == depth
    assert (len(rounds[-1][0]) - 1 > PARTITION_CAP) == capped
    if capped:
        with pytest.raises(ResourceLimitError) as info:
            entropy_lower_markov(invariant_restriction(f), depth)
        assert (info.value.achieved, info.value.bound) == (depth, eb.lower)
    else:
        assert eb.lower == entropy_lower_markov(invariant_restriction(f), depth)


@settings(max_examples=200, deadline=None)
@given(grid_maps(), st.integers(1, 8), st.sampled_from([4, 8, 64]), st.integers(0, 9))
def test_markov_bound_on_a_replayed_scan_is_a_fresh_scans(f, depth, cap, ahead):
    # entropy_bounds hands entropy_lower_markov the scan its zero test read
    # from: the rounds read ahead are replayed, then the scan goes on; the
    # bound, or the error's achieved and bound, is that of a fresh scan
    g = invariant_restriction(f)
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "PARTITION_CAP", cap)
        read_ahead, scan = itertools.tee(entropy._markov_rounds(g, depth))
        entropy._certifies_zero(itertools.islice(read_ahead, ahead))
        for kwargs in ({"_rounds": scan}, {}):
            try:
                results.append(entropy_lower_markov(g, depth, **kwargs))
            except ResourceLimitError as exc:
                results.append((exc.achieved, exc.bound))
    assert results[0] == results[1]


@settings(max_examples=150, deadline=None)
@given(grid_maps(), st.integers(1, 6))
def test_bounds_count_each_level_once(f, depth):
    # a level is counted either on its iterate or from the lap images of the
    # level before, never both, unless laps may merge (_lap_images gives None)
    g = invariant_restriction(f)
    assume(lap_count(g) > 1)
    iterate_counts, image_counts, carried = [], [], []
    real_laps, real_images = entropy.lap_count, entropy._lap_images

    def images_spy(h, images, turns):
        out = real_images(h, images, turns)
        if out is not None and any(images is c for c in carried):  # not a restart from g^k
            image_counts.append(out)
        carried.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "lap_count", lambda h: iterate_counts.append(h) or real_laps(h))
        mp.setattr(entropy, "_lap_images", images_spy)
        eb = entropy_bounds(f, depth)
    assert len(iterate_counts) + len(image_counts) == eb.depth_used == depth  # g's own is level 1


def count_certificates(monkeypatch):
    """A list that gets one entry per horseshoe_max call."""
    calls, real = [], entropy.horseshoe_max
    monkeypatch.setattr(entropy, "horseshoe_max", lambda f: calls.append(f) or real(f))
    return calls


def test_bounds_build_no_certificate_when_markov_wins(monkeypatch):
    # iterates of theta(46/64) have hulls with two branches, but the Markov bound wins
    calls = count_certificates(monkeypatch)
    eb = entropy_bounds(theta(F(46, 64), 3), 8)
    assert eb.lower_witness is None and eb.lower > 0
    assert calls == []


def test_bounds_build_one_certificate_for_the_witness(monkeypatch):
    calls = count_certificates(monkeypatch)
    eb = entropy_bounds(TENT, 8)
    assert eb.lower_witness is not None and len(calls) == 1


def test_monotone_restriction_builds_no_iterate(monkeypatch):
    def no_compose(*args):
        raise AssertionError("an iterate of a monotone map was built")

    monkeypatch.setattr(entropy, "compose", no_compose)
    eb = entropy_bounds(make_pl([0, 1], [0, F(1, 2)]), 10**6)
    assert (eb.lower, eb.upper, eb.lower_witness, eb.depth_used) == (0.0, 0.0, None, 10**6)


def test_lower_horseshoe_monotone_in_depth():
    f = linear_combination([F(9, 10)], [compose(TENT, TENT)])
    prev = -1.0
    for depth in range(1, 5):
        val, _ = lower_horseshoe(f, depth)
        assert val >= prev - 1e-12
        prev = val


def test_conjugacy_invariance_decreasing_affine():
    # h(x) = 3 - 2x reverses orientation; the branch structure is preserved
    for f in (TENT, full_branch_map(3)):
        xs = tuple(3 - 2 * x for x in reversed(f.breakpoints))
        ys = tuple(3 - 2 * y for y in reversed(f.values))
        conj = make_pl(xs, ys)
        assert horseshoe_max(conj)[0] == horseshoe_max(f)[0]
