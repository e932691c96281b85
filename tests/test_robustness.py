"""Stress and degradation paths: caps, fallbacks, deeper constructions."""

import json
import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from entropy_banach import entropy, plmap
from entropy_banach.dial import DialConfig, find_a_star, r_of_a, theta
from entropy_banach.ellone import ell1_witness, gamma_schedule
from entropy_banach.entropy import (
    entropy_bounds,
    horseshoe_max,
    validate_certificate,
)
from entropy_banach.plmap import IntervalQ, compose, eval_at, make_pl, sample_pl
from entropy_banach.serialize import certificate_to_obj
from entropy_banach.spaces import sin_scaled

GOLDEN = Path(__file__).parent / "golden"


def test_horseshoe_reduced_candidate_fallback():
    # above the candidate limit the search drops to turning points plus
    # diagonal crossings; the dense sine sample must still certify d branches
    f = sin_scaled(2 * math.pi * 3, 1024)
    assert len(f.breakpoints) > 4000
    d, cert = horseshoe_max(f)
    assert d >= 3
    assert validate_certificate(f, cert)
    # pinned: 6,470 breakpoints, 25 reduced candidates, d = 11
    assert len(f.breakpoints) == 6470
    assert len(entropy._hull_candidates(f)) == 25
    golden = json.loads((GOLDEN / "horseshoe_sin_3_1024.json").read_text())
    assert {"d": d, "certificate": certificate_to_obj(cert)} == golden


def test_horseshoe_full_pair_search_memory():
    # just under the candidate limit every breakpoint pair is a hull; the
    # search must hold O(n) counts, not one per pair (3,871^2 of them)
    f = sin_scaled(94, 128)
    assert len(f.breakpoints) == 3871
    assert len(entropy._hull_candidates(f)) == 3871
    tracemalloc.start()
    try:
        d, cert = horseshoe_max(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    golden = json.loads((GOLDEN / "horseshoe_sin_94_128.json").read_text())
    assert {"d": d, "certificate": certificate_to_obj(cert)} == golden
    assert peak < 16 * 2 ** 20


def test_entropy_bounds_degrades_at_cap(monkeypatch):
    # iterating a dense sample blows past the cap; the bracket stays valid
    # with a reduced achieved depth instead of failing
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 50_000)
    f = sin_scaled(2 * math.pi * 2, 128)
    eb = entropy_bounds(f, 4)
    assert eb.depth_used >= 1
    assert eb.lower >= math.log(2) - 1e-9
    assert eb.lower <= eb.upper + 1e-12


def test_compose_nonoverlapping_ranges():
    # g maps everything left of f's domain: composition is f's left constant
    g = make_pl([0, 1], [-10, -9])
    f = make_pl([0, 1], [5, 7])
    h = compose(f, g)
    for x in (F(-1), F(0), F(1, 2), F(2)):
        assert eval_at(h, x) == 5


def test_witness_four_steps():
    report = ell1_witness(F(1, 1 << 14), 4, gamma_schedule(4, 2))
    assert [s.certificate.d for s in report.steps] == [3, 4, 5, 6]
    for step in report.steps:
        assert validate_certificate(report.f, step.certificate)
    assert eval_at(report.f, report.x0) == report.x0


def test_dial_search_other_target():
    cfg = DialConfig(t=0.35, d=3, truncation=6, lambda_grid_size=7,
                     entropy_depth=6, tolerance=6e-2)
    a = find_a_star(0.35, cfg)
    assert abs(r_of_a(a, cfg).value - 0.35) <= cfg.tolerance


def test_theta_d5_full_entropy():
    eb = entropy_bounds(theta(F(1), 5), 3)
    assert eb.lower == pytest.approx(math.log(5), abs=1e-9)
    assert eb.upper == pytest.approx(math.log(5), abs=1e-6)


def test_hoelder_schedule_extreme_exponents():
    from entropy_banach.universal import hoelder_schedule
    for alpha in (F(1, 10), F(9, 10)):
        sched = hoelder_schedule(alpha, 20)
        assert sched.q[0] == 1  # invariants checked in the constructor


def test_sample_pl_fine_grid_monotone_nodes():
    f = sample_pl(math.exp, IntervalQ(F(0), F(1)), 64)
    assert all(a < b for a, b in zip(f.values, f.values[1:]))
