"""Tests for the JSON and CSV exchange formats."""

import math
from fractions import Fraction as F

import pytest

from entropy_banach.entropy import EntropyBounds
from entropy_banach.errors import ConstructionError
from entropy_banach.plmap import make_pl, pl_equal
from entropy_banach.serialize import bounds_to_obj, pl_from_obj, pl_to_obj, polyline

TENT = make_pl([0, F(1, 2), 1], [0, 1, 0])


def test_pl_roundtrip():
    f = make_pl([F(-3, 7), F(0), F(22, 3)], [F(1, 9), F(-4), F(0)])
    assert pl_from_obj(pl_to_obj(f)) == f


def test_pl_accepts_integer_shorthand():
    f = pl_from_obj({"breakpoints": [0, "1/2", 1], "values": [0, 1, 0]})
    assert pl_equal(f, TENT)


def test_pl_rejects_floats_and_garbage():
    with pytest.raises(ConstructionError):
        pl_from_obj({"breakpoints": [0.5, 1], "values": [0, 1]})
    with pytest.raises(ConstructionError):
        pl_from_obj({"breakpoints": ["x/y"], "values": ["1"]})
    with pytest.raises(ConstructionError):
        pl_from_obj({"values": ["1"]})


def test_bounds_infinite_upper_uses_null():
    eb = EntropyBounds(0.0, math.inf, None, depth_used=1)
    obj = bounds_to_obj(eb)
    assert obj["upper"] is None


def test_polyline_format():
    lines = polyline(TENT, "tent").splitlines()
    assert lines[0] == "# tent"
    assert len(lines) == 4
    assert lines[1].split(",") == ["0.0", "0.0"]
    assert lines[2].split(",") == ["0.5", "1.0"]


def test_polyline_resampled():
    lines = polyline(TENT, "tent", samples=4).splitlines()
    assert len(lines) == 6
    assert lines[2].split(",")[0] == "0.25"
