"""End-to-end command-line tests: subprocesses checking exit codes, and an in-process JSON fuzz."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach import cli

CLI = [sys.executable, "-m", "entropy_banach.cli"]

#: reference outputs of the invocations below, captured from the CLI
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          **kwargs)


def _parse_output(text, suffix):
    if suffix == ".json":
        return json.loads(text)
    # CSV polyline: '# label' lines kept as text, 'x,y' rows as floats
    return [line if line.startswith("#") else [float(v) for v in line.split(",")]
            for line in text.splitlines()]


def _approx_floats(obj):
    if isinstance(obj, float):
        return pytest.approx(obj, rel=1e-12)
    if isinstance(obj, dict):
        return {key: _approx_floats(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_approx_floats(value) for value in obj]
    return obj


def assert_golden(name, text):
    """Output equals tests/golden/<name>: floats to rel 1e-12, all else exactly.

    The float tolerance absorbs BLAS differences between machines; rationals
    travel as strings and compare exactly.
    """
    path = GOLDEN / name
    expected = path.read_text()
    if path.suffix == ".txt":
        assert text == expected
        return
    assert _parse_output(text, path.suffix) == _approx_floats(
        _parse_output(expected, path.suffix))


@pytest.fixture()
def tent_path(tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(json.dumps(
        {"breakpoints": ["0", "1/2", "1"], "values": [0, 1, 0]}))
    return str(path)


def test_entropy_command(tent_path):
    res = run_cli("entropy", tent_path, "--depth", "6")
    assert res.returncode == 0
    assert_golden("entropy_tent_depth6.json", res.stdout)
    payload = json.loads(res.stdout)
    assert payload["lower"] == pytest.approx(math.log(2), abs=1e-9)
    assert payload["upper"] == pytest.approx(math.log(2), abs=1e-9)
    assert payload["certificate"]["d"] == 2


def test_entropy_missing_file_exit_2():
    res = run_cli("entropy", "/nonexistent/map.json")
    assert res.returncode == 2


def test_entropy_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"breakpoints": [0, 1], "values": [0,')
    res = run_cli("entropy", str(bad))
    assert res.returncode == 2
    assert "line" in res.stderr


def test_non_utf8_input_exit_2(tmp_path):
    path = tmp_path / "map.json"
    path.write_bytes(b"\xff\xfe{")
    res = run_cli("horseshoe", str(path))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [f"error: {path} is not UTF-8 text"]


def test_entropy_depth_zero_exit_2(tent_path):
    res = run_cli("entropy", tent_path, "--depth", "0")
    assert res.returncode == 2
    assert res.stderr.splitlines() == ["error: --depth must be >= 1, got 0"]


@pytest.mark.parametrize("doc, message", [
    ([0, 1], "a PL map object needs 'breakpoints' and 'values' lists"),
    ({"breakpoints": 5, "values": 5}, "a PL map object needs 'breakpoints' and 'values' lists"),
    ({"breakpoints": ["a", 1], "values": [0, 1]}, "PL map: not a rational: 'a'"),
], ids=["not_an_object", "without_lists", "non_rational_entry"])
def test_malformed_map_exit_2(tmp_path, doc, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    res = run_cli("entropy", str(path))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [f"error: {message}"]


_RATIONALS = st.integers(-3, 3) | st.sampled_from(["0", "1/2", "-2/3", "7/4"])
_ENTRIES = (_RATIONALS | st.sampled_from(["1/0", "a", ""]) | st.none() | st.booleans()
            | st.floats() | st.text(max_size=4))


@st.composite
def _map_documents(draw):
    """Valid PL maps, about a third of them with one entry swapped for any JSON scalar."""
    nodes = sorted(draw(st.lists(st.tuples(st.integers(-4, 4), _RATIONALS), min_size=1,
                                 max_size=6, unique_by=lambda node: node[0])))
    doc = {"breakpoints": [x for x, _ in nodes], "values": [y for _, y in nodes]}
    key = draw(st.sampled_from(["breakpoints", "values", None]))
    if key:
        doc[key][draw(st.integers(0, len(nodes) - 1))] = draw(_ENTRIES)
    return doc


_JSON = _map_documents() | st.recursive(_ENTRIES, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["breakpoints", "values", "x"]), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_horseshoe_on_any_json_document(tmp_path_factory, doc):
    # any JSON input: a documented exit code and at most one error line
    path = tmp_path_factory.mktemp("fuzz") / "map.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(["horseshoe", str(path)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    if not (isinstance(doc, dict) and isinstance(doc.get("breakpoints"), list)
            and isinstance(doc.get("values"), list)):
        assert code == 2
    lines = err.getvalue().splitlines()
    assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))


def test_thmb_without_members_exit_2(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"label": "no members"}))
    res = run_cli("thmB", str(path))
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_horseshoe_command(tent_path):
    res = run_cli("horseshoe", tent_path)
    assert res.returncode == 0
    assert_golden("horseshoe_tent.json", res.stdout)
    payload = json.loads(res.stdout)
    assert payload["d"] == 2
    assert payload["certificate"]["intervals"] == [["0", "1/2"], ["1/2", "1"]]


def test_thmb_command(tmp_path):
    family = {
        "label": "mixed",
        "members": [
            {"breakpoints": [0, 1], "values": [1, 1]},
            {"breakpoints": [0, 1], "values": [0, 1]},
            {"breakpoints": ["0", "1/2", "1"], "values": [0, 1, 0]},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    res = run_cli("thmB", str(path))
    assert res.returncode == 0
    assert_golden("thmB_mixed.json", res.stdout)
    payload = json.loads(res.stdout)
    assert payload["certificate"]["d"] == 2
    assert payload["entropy_lower_bound"] == pytest.approx(math.log(2))


def test_psi_command_with_horseshoe(tent_path, tmp_path):
    out = tmp_path / "psi.json"
    poly = tmp_path / "psi.csv"
    res = run_cli("psi", tent_path, "--N", "10", "--horseshoe", "2",
                  "--polyline", str(poly), "--out", str(out))
    assert res.returncode == 0
    assert_golden("psi_tent_N10_horseshoe2.json", out.read_text())
    assert_golden("psi_tent_N10_polyline.csv", poly.read_text())
    payload = json.loads(out.read_text())
    assert payload["certificate"]["d"] == 2
    lines = poly.read_text().splitlines()
    assert lines[0].startswith("#")
    assert all("," in line for line in lines[1:])


def test_psi_truncation_error_exit_1(tent_path):
    res = run_cli("psi", tent_path, "--N", "2", "--horseshoe", "4")
    assert res.returncode == 1
    assert_golden("psi_N2_horseshoe4_error.txt", res.stderr)


def test_figure1_zeros_at_window_boundaries():
    res = run_cli("figure1", "--N", "4")
    assert res.returncode == 0
    assert_golden("figure1_N4.csv", res.stdout)
    rows = [line for line in res.stdout.splitlines() if not line.startswith("#")]
    points = {float(line.split(",")[0]): float(line.split(",")[1])
              for line in rows}
    for n in range(5):
        x = (2 / 3) * 0.5 ** n
        assert points[x] == 0.0
    # amplitude of the n-th copy is (2/3)^n at the apex image
    for n in range(5):
        apex = 0.5 ** n
        assert points[apex] == pytest.approx((2 / 3) ** n)


def test_ell1_command(tmp_path):
    out = tmp_path / "witness.json"
    res = run_cli("ell1", "--steps", "2", "--out", str(out))
    assert res.returncode == 0
    assert_golden("ell1_steps2.json", out.read_text())
    payload = json.loads(out.read_text())
    assert [s["certificate"]["d"] for s in payload["steps"]] == [3, 4]
    assert payload["x0"] == "0"


def test_dial_command_fixed_a_star(tmp_path):
    out = tmp_path / "dial.json"
    res = run_cli("dial", "--t", str(math.log(2)), "--N", "8",
                  "--lambda-grid", "7", "--depth", "5", "--tol", "0.2",
                  "--a-star", "37/64", "--check-lambdas", "1",
                  "--out", str(out))
    assert res.returncode == 0
    assert_golden("dial_a_star_37_64.json", out.read_text())
    payload = json.loads(out.read_text())
    assert payload["config"]["a_star"] == "37/64"
    assert payload["checks"][0]["lambda"] == "1"
    assert payload["checks"][0]["achieved"] is not None


def test_cap_override_exit_3(tent_path):
    res = run_cli("--cap-breakpoints", "4", "entropy", tent_path, "--depth", "9")
    # depth truncation is graceful, so force the cap through iterate instead
    assert res.returncode == 0  # entropy degrades gracefully
    assert_golden("entropy_tent_cap4_depth9.json", res.stdout)
    # horseshoe never composes, so no cap can stop it
    res = run_cli("--cap-breakpoints", "1", "horseshoe", tent_path)
    assert res.returncode == 0
    assert_golden("horseshoe_tent.json", res.stdout)


def test_cap_reaches_dial(tmp_path):
    # the cap holds for every subcommand: here it cuts the in-window
    # brackets of the dial to depth 1, which the uncapped run does not
    out = tmp_path / "dial.json"
    res = run_cli("--cap-breakpoints", "3", "dial", "--t", str(math.log(2)),
                  "--N", "4", "--lambda-grid", "3", "--depth", "5", "--tol", "0.2",
                  "--a-star", "37/64", "--check-lambdas", "1", "--out", str(out))
    assert res.returncode == 0
    assert_golden("dial_cap3_a_star_37_64.json", out.read_text())


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_exit_2(tent_path, cap):
    for args in (["entropy", tent_path], ["horseshoe", tent_path], ["thmB", tent_path],
                 ["psi", tent_path], ["figure1"], ["ell1"], ["dial", "--t", "0.5"],
                 ["check"]):
        res = run_cli("--cap-breakpoints", cap, *args)
        assert res.returncode == 2, args
        assert res.stderr.splitlines() == [f"error: --cap-breakpoints must be >= 1, got {cap}"]
        assert res.stdout == ""


def test_figure1_single_copy():
    res = run_cli("figure1", "--N", "0")
    assert res.returncode == 0
    assert_golden("figure1_N0.csv", res.stdout)
    rows = [line for line in res.stdout.splitlines() if not line.startswith("#")]
    values = [abs(float(line.split(",")[1])) for line in rows]
    assert max(values) == 1.0  # isometry visible on the single copy


def test_psi_hoelder_schedule(tent_path):
    res = run_cli("psi", tent_path, "--schedule", "hoelder", "--alpha", "1/2",
                  "--N", "6")
    assert res.returncode == 0
    assert_golden("psi_hoelder_N6.json", res.stdout)
    payload = json.loads(res.stdout)
    assert payload["certificate"] is None
    assert len(payload["embedded"]["breakpoints"]) > 10


def test_check_lambdas_and_format_flag_positions(tent_path, tmp_path):
    # global flags are accepted before and after the subcommand
    out = tmp_path / "fig.csv"
    res = run_cli("--out", str(out), "figure1", "--N", "1")
    assert res.returncode == 0 and out.exists()
    out2 = tmp_path / "fig2.csv"
    res = run_cli("figure1", "--N", "1", "--out", str(out2))
    assert res.returncode == 0 and out2.exists()
    assert out.read_text() == out2.read_text()
    assert_golden("figure1_N1.csv", out.read_text())
