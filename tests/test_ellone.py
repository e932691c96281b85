"""Tests for the sign matrix, the sum-norm model, and the staged witness."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach.ellone import (
    build_An,
    build_rademacher,
    ell1_witness,
    gamma_schedule,
    max_admissible_delta,
    sign_point,
    solve_An,
)
from entropy_banach.entropy import validate_certificate
from entropy_banach import plmap
from entropy_banach.errors import DomainError, ResourceLimitError
from entropy_banach.plmap import PLMap, eval_at, linear_combination, sup_norm
from entropy_banach.spaces import solve_linear_system

A8_PRINTED = (
    (+1, +1, +1, +1, +1, +1, +1, +1),
    (+1, -1, -1, -1, -1, -1, -1, -1),
    (-1, -1, +1, +1, +1, +1, +1, +1),
    (+1, +1, +1, -1, -1, -1, -1, -1),
    (-1, -1, -1, -1, +1, +1, +1, +1),
    (+1, +1, +1, +1, +1, -1, -1, -1),
    (-1, -1, -1, -1, -1, -1, +1, +1),
    (+1, +1, +1, +1, +1, +1, +1, -1),
)


# --- sign matrix ----------------------------------------------------------------

def test_build_An_matches_printed_8x8():
    assert build_An(8).entries == A8_PRINTED


def test_build_An_small():
    assert build_An(2).entries == ((1, 1), (1, -1))


def test_build_An_row_one_all_ones():
    for n in (2, 3, 7, 20):
        assert all(e == 1 for e in build_An(n).row(1))


def test_build_An_single_flip_per_row():
    for n in (3, 5, 9):
        m = build_An(n)
        for i in range(2, n + 1):
            row = m.row(i)
            flips = sum(1 for a, b in zip(row, row[1:]) if a != b)
            assert flips == 1
            assert row[i - 1] != row[i - 2]


def test_solve_An_zero():
    assert solve_An(5, [0] * 5) == [F(0)] * 5


def test_solve_An_matches_gaussian_elimination():
    import random
    rng = random.Random(3)
    for n in (2, 3, 5, 8, 13):
        matrix = [[F(e) for e in row] for row in build_An(n).entries]
        for _ in range(10):
            beta = [F(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(n)]
            assert solve_An(n, beta) == solve_linear_system(matrix, beta)[1]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=16),
       st.data())
def test_solve_An_satisfies_system_and_max_bound(n, data):
    beta = data.draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=n, max_size=n))
    alpha = solve_An(n, beta)
    assert build_An(n).apply(alpha) == [F(b) for b in beta]
    assert max(map(abs, alpha)) <= max(map(abs, (F(b) for b in beta)))


# --- sum-norm model --------------------------------------------------------------

def test_model_level_one_profile():
    m = build_rademacher(1, F(1, 16))
    f1 = m.members[0]
    assert eval_at(f1, F(0)) == 1
    assert eval_at(f1, F(1, 2) - F(1, 16)) == 1
    assert eval_at(f1, F(1, 2) + F(1, 16)) == -1
    assert eval_at(f1, F(1)) == -1


def test_model_all_patterns_realized():
    m = build_rademacher(2, F(1, 64))
    for pattern in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        x = sign_point(m, pattern)
        assert [eval_at(mem, x) for mem in m.members] == [F(p) for p in pattern]


def test_sign_point_conventions():
    m = build_rademacher(3, F(1, 64))
    assert sign_point(m, ()) == F(1, 2)
    assert sign_point(m, (1, 1)) == sign_point(m, (1, 1, 1))
    # the mirrored pattern is realized too
    for pattern in [(1, -1, 1), (-1, 1, -1)]:
        x = sign_point(m, pattern)
        assert [eval_at(mem, x) for mem in m.members] == [F(p) for p in pattern]


def test_model_isometry_spec_case():
    m = build_rademacher(2, F(1, 64))
    combo = linear_combination([F(1, 2), F(1, 3)], m.members)
    assert sup_norm(combo) == F(5, 6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                min_size=1, max_size=6))
def test_model_isometry_random(coeffs):
    model = build_rademacher(6, F(1, 512))
    combo = linear_combination(coeffs, model.members[:len(coeffs)])
    assert sup_norm(combo) == sum(abs(F(c)) for c in coeffs)


def test_model_delta_guard():
    with pytest.raises(DomainError, match=re.escape(f"in (0, {max_admissible_delta(4)}) ")):
        build_rademacher(4, F(1, 32))


def test_model_breakpoint_cap(monkeypatch):
    # the level-N member has 2^(N+1) breakpoints: 32 at N = 4
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 32)
    assert len(build_rademacher(4, F(1, 128)).members[-1]) == 32
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 31)
    with pytest.raises(ResourceLimitError) as err:
        build_rademacher(4, F(1, 128))
    assert (err.value.needed, err.value.cap) == (32, 31)


# --- gamma schedules ----------------------------------------------------------------

def test_gamma_schedule_single():
    assert gamma_schedule(1, 2).gammas == (F(1),)


def test_gamma_schedule_two_steps_worked_example():
    s = gamma_schedule(2, 2)
    assert s.gammas == (F(1), F(1, 20))
    assert s.gammas[0] > 2 * 5 * s.gammas[1]


def test_gamma_schedule_tail_condition():
    for M, tf in [(3, 2), (4, F(3, 2)), (5, 3)]:
        s = gamma_schedule(M, tf)
        for m in range(1, M + 1):
            assert s.gammas[m - 1] > s.tail(m)


@pytest.mark.parametrize("tail_factor", [F(11, 10), F(3, 2), 2, 3])
def test_gamma_schedule_is_tail_factor_times_tail(tail_factor):
    for M in range(1, 13):
        s = gamma_schedule(M, tail_factor)
        for m in range(1, M):
            assert s.gammas[m - 1] == tail_factor * s.tail(m)


def test_gamma_schedule_rejects_bad_factor():
    with pytest.raises(DomainError):
        gamma_schedule(3, 1)


# --- the staged witness ---------------------------------------------------------------

@pytest.fixture(scope="module")
def witness():
    return ell1_witness(F(1, 4096), 3, gamma_schedule(3, 2))


def test_witness_certificate_orders(witness):
    assert [s.certificate.d for s in witness.steps] == [3, 4, 5]


def test_witness_certificates_validate(witness):
    for step in witness.steps:
        assert validate_certificate(witness.f, step.certificate)


def test_witness_nested_intervals(witness):
    for a, b in zip(witness.steps, witness.steps[1:]):
        assert b.J.lo > a.J.lo and b.J.hi < a.J.hi


def test_witness_fixes_center(witness):
    assert eval_at(witness.f, witness.x0) == witness.x0


def test_witness_alternation_exact(witness):
    for step in witness.steps:
        gamma = None
        for rank, p in enumerate(step.points, start=1):
            value = eval_at(witness.f, p)
            if gamma is None:
                gamma = abs(value)
            assert value == F((-1) ** rank) * gamma
            if rank % 2 == 1:
                assert value <= witness.x0 - step.epsilon
            else:
                assert value >= witness.x0 + step.epsilon


def test_witness_oscillation_condition(witness):
    # the staged bound: epsilon + oscillation < gamma_m - tail, strictly
    schedule = gamma_schedule(3, 2)
    for step in witness.steps:
        gamma_m = schedule.gammas[step.m - 1]
        assert step.epsilon + step.oscillation_prev < gamma_m - step.tail


def test_witness_coefficient_budget(witness):
    schedule = gamma_schedule(3, 2)
    budget = sum(2 * (m + 3) * schedule.gammas[m - 1] for m in range(1, 4))
    assert witness.coefficient_l1_norm <= budget


@pytest.fixture(scope="module", params=[(3, F(1, 4096)), (4, F(1, 16384))],
                ids=["M3", "M4"])
def witness_and_delta(request):
    M, delta = request.param
    return ell1_witness(delta, M, gamma_schedule(M, 2)), delta


def test_witness_equals_full_resum(witness_and_delta):
    # every block summed at once, the way the witness was defined, must give
    # exactly the running sum's breakpoints and values
    report, delta = witness_and_delta
    coeffs, basis = [], []
    for step in report.steps:
        block = build_rademacher(2 * step.m + 3, delta)
        basis += [PLMap(tuple(x * step.epsilon for x in g.breakpoints), g.values)
                  for g in block.members]
        coeffs += step.alpha
    full = linear_combination(coeffs, basis)
    assert full.breakpoints == report.f.breakpoints
    assert full.values == report.f.values


def test_witness_step_records(witness_and_delta):
    report, _ = witness_and_delta
    assert report.coefficient_l1_norm == sum(abs(a) for s in report.steps for a in s.alpha)
    for step in report.steps:
        assert step.n_m == 2 * step.m + 3
        assert step.window == step.epsilon


def test_witness_single_step():
    report = ell1_witness(F(1, 4096), 1, gamma_schedule(1, 2))
    assert len(report.steps) == 1
    assert report.steps[0].certificate.d == 3
    assert validate_certificate(report.f, report.steps[0].certificate)


def test_witness_delta_budget_error():
    with pytest.raises(DomainError, match=r"^step 1 "):
        ell1_witness(F(1, 8), 3, gamma_schedule(3, 2))


def test_witness_checks_its_last_step_against_the_cap_up_front(monkeypatch):
    # step 3 builds a level-9 member with 1024 breakpoints; nothing is built before the check
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 1023)
    monkeypatch.setattr("entropy_banach.ellone._sign_member", None)
    with pytest.raises(ResourceLimitError) as err:
        ell1_witness(F(1, 4096), 3, gamma_schedule(3, 2))
    assert (err.value.needed, err.value.cap) == (1024, 1023)
