"""End-to-end command-line tests: subprocesses checking exit codes, and an in-process JSON fuzz."""

import io
import json
import math
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_banach import cli, dial, entropy, plmap, universal
from entropy_banach.checks import TENT, CheckResult
from entropy_banach.errors import ResourceLimitError

CLI = [sys.executable, "-m", "entropy_banach.cli"]

#: reference outputs of the invocations below, captured from the CLI
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


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


#: nodes and values 2^-70 apart round to the same floats: the bracket must
#: come from exact ties, [log 3, log 3] with a 3-interval certificate
NEAR_TIE = {"breakpoints": ["0", "1/3", "1180591620717411303427/3541774862152233910272", "2/3",
                            "2361183241434822606851/3541774862152233910272", "1"],
            "values": ["0", "1", "1180591620717411303423/1180591620717411303424",
                       "1/1180591620717411303424", "0", "1"]}


def test_entropy_near_float_ties(tmp_path):
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(NEAR_TIE))
    res = run_cli("entropy", str(path), "--depth", "5")
    assert res.returncode == 0
    assert_golden("entropy_near_tie_depth5.json", res.stdout)
    payload = json.loads(res.stdout)
    assert payload["lower"] == payload["upper"] == pytest.approx(math.log(3), abs=1e-12)
    assert payload["certificate"]["d"] == 3


#: theta(55/64, 3), the dial family's map at a = 55/64
THETA_55_64 = {"breakpoints": ["0", "9", "28/3", "29/3", "10", "12"],
               "values": ["0", "9", "317/32", "291/32", "10", "12"]}


def test_entropy_bracket_won_by_the_covering_bound(tmp_path):
    # the exact zero test fails on rounds 0-3, the covering bound reads them
    # again and goes on; round 8 passes the partition cap, so the lower bound
    # is that of rounds 0-7, and no horseshoe certificate comes with it
    path = tmp_path / "theta_55_64.json"
    path.write_text(json.dumps(THETA_55_64))
    res = run_cli("entropy", str(path), "--depth", "8")
    assert res.returncode == 0
    assert_golden("entropy_theta_55_64_depth8.json", res.stdout)
    payload = json.loads(res.stdout)
    assert payload["certificate"] is None and payload["depth"] == 8
    assert 0 < payload["lower"] < payload["upper"] < math.log(3)


def test_entropy_of_a_contraction_at_depth_100000(tmp_path):
    # x -> x/2 is monotone, and so is every iterate: the bracket is [0, 0] at
    # the requested depth, and no iterate is built
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"breakpoints": [0, 1], "values": [0, "1/2"]}))
    code, out, lines = _main("entropy", str(path), "--depth", "100000")
    assert (code, lines) == (0, [])
    assert_golden("entropy_half_depth100000.json", out)


def test_entropy_tent_at_depth_20(tent_path):
    # the 2^20 laps of tent^20 are counted from lap images: no iterate past
    # the tent itself is built, and the bracket is the one its chain gave
    code, out, lines = _main("entropy", tent_path, "--depth", "20")
    assert (code, lines) == (0, [])
    assert_golden("entropy_tent_depth20.json", out)


def test_entropy_beyond_float_range(tmp_path):
    big = 10 ** 400
    path = tmp_path / "huge_tent.json"
    path.write_text(json.dumps({"breakpoints": ["0", str(big), str(2 * big)],
                                "values": ["0", str(2 * big), "0"]}))
    res = run_cli("entropy", str(path), "--depth", "3")
    assert (res.returncode, res.stderr) == (0, "")
    payload = json.loads(res.stdout)
    assert payload["lower"] == payload["upper"] == math.log(2)


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


def json_error(text):
    """The message json.loads raises on ``text``."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("json.loads accepted the text")


#: raw JSON text: a 5,000-digit integer (past Python's digit limit) and deep nesting
_LONG_INTEGER = '{"breakpoints": [0, 1], "values": [0, ' + "1" * 5000 + "]}"
_DEEP = "[" * 100_000


@pytest.mark.parametrize("doc, message", [
    ([0, 1], "a PL map object needs 'breakpoints' and 'values' lists"),
    ({"breakpoints": 5, "values": 5}, "a PL map object needs 'breakpoints' and 'values' lists"),
    ({"breakpoints": ["a", 1], "values": [0, 1]}, "PL map: not a rational: 'a'"),
    # bool is an int subclass in Python; JSON booleans are not rationals
    ({"breakpoints": [False, True], "values": [True, False]}, "PL map: not a rational: False"),
    # Fraction would read these as 10^999999999 and 1/2; the grammar is [+-]p or [+-]p/q
    ({"breakpoints": [0, 1], "values": [0, "1e999999999"]}, "PL map: not a rational: '1e999999999'"),
    ({"breakpoints": [0, 1], "values": [0, "0.5"]}, "PL map: not a rational: '0.5'"),
    (_LONG_INTEGER, f"unreadable JSON in {{path}}: {json_error(_LONG_INTEGER)}"),
    (_DEEP, f"unreadable JSON in {{path}}: {json_error(_DEEP)}"),
], ids=["not_an_object", "without_lists", "non_rational_entry", "boolean_entries",
        "exponent_entry", "decimal_entry", "long_integer", "deep_nesting"])
def test_malformed_map_exit_2(tmp_path, doc, message):
    path = tmp_path / "map.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    res = run_cli("entropy", str(path), timeout=10)
    assert res.returncode == 2
    assert res.stderr.splitlines() == [f"error: {message.format(path=path)}"]


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
        code = cli.main(["horseshoe", str(path)])
    assert code in (0, 1, 2, 3)
    if not (isinstance(doc, dict) and isinstance(doc.get("breakpoints"), list)
            and isinstance(doc.get("values"), list)):
        assert code == 2
    lines = err.getvalue().splitlines()
    assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))


def _main(*argv):
    """``cli.main`` in process: its return code, stdout and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue().splitlines()


def _main_on_document(tmp_path_factory, doc, command, *flags):
    """Any JSON input: a documented exit code and at most one error line."""
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    code, _, lines = _main(command, str(path), *flags)
    assert code in (0, 1, 2, 3)
    assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))
    return code


@pytest.mark.parametrize("command", [("entropy", "--depth", "2"), ("psi", "--N", "2")],
                         ids=["entropy", "psi"])
@settings(max_examples=300, deadline=None)
@given(doc=_JSON)
def test_map_commands_on_any_json_document(tmp_path_factory, command, doc):
    code = _main_on_document(tmp_path_factory, doc, *command)
    if not (isinstance(doc, dict) and isinstance(doc.get("breakpoints"), list)
            and isinstance(doc.get("values"), list)):
        assert code == 2


_PL_MAPS = st.lists(st.tuples(st.integers(-4, 4), _RATIONALS), min_size=2, max_size=6,
                   unique_by=lambda node: node[0]).map(sorted).map(
    lambda nodes: {"breakpoints": [x for x, _ in nodes], "values": [y for _, y in nodes]})
#: families of valid maps (most reach the horseshoe search), else any members or any JSON
_FAMILIES = st.fixed_dictionaries(
    {"members": st.lists(_PL_MAPS, min_size=3, max_size=4) | st.lists(_JSON, max_size=4)},
    optional={"label": _ENTRIES}) | _JSON


@settings(max_examples=300, deadline=None)
@given(_FAMILIES)
def test_thmb_on_any_json_document(tmp_path_factory, doc):
    code = _main_on_document(tmp_path_factory, doc, "thmB")
    if not (isinstance(doc, dict) and isinstance(doc.get("members"), list)):
        assert code == 2


@pytest.mark.parametrize("name, content", [
    ("missing.json", None),
    ("bad.json", b'{"breakpoints": [0, 1], "values": [0,'),
    ("latin1.json", b"\xff\xfe{"),
], ids=["missing", "malformed_json", "not_utf8"])
def test_unreadable_input_returns_2_in_process(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code, out, lines = _main("horseshoe", str(path))
    assert code == 2 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]


@pytest.mark.parametrize("argv", [
    ("dial", "--t", "0.5", "--a-star", "x"),
    ("thmB", "FAMILY", "--grid", "x"),
    ("psi", "MAP", "--ratio", "x"),
    ("figure1", "--ratio", "x"),
    ("psi", "MAP", "--schedule", "hoelder", "--alpha", "x"),
    ("ell1", "--delta", "x"),
    ("ell1", "--tail-factor", "x"),
    # without --a-star: the bad multiplier must stop the run before the dial search
    ("dial", "--t", "0.5", "--check-lambdas", "1,x"),
], ids=["a_star", "grid", "psi_ratio", "figure1_ratio", "alpha", "delta", "tail_factor",
        "check_lambdas"])
def test_rational_flag_parse_error_exit_2(tmp_path, tent_path, argv):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"members": [json.loads(Path(tent_path).read_text())] * 3}))
    argv = [{"MAP": tent_path, "FAMILY": str(family)}.get(arg, arg) for arg in argv]
    code, out, lines = _main(*argv)
    assert code == 2 and out == ""
    assert lines == [f"error: not a rational: {argv[-1].split(',')[-1]!r}"]


def test_exponent_rational_flag_exit_2_within_10_s():
    # Fraction would build 10^99999999 before the dial search; in a child
    # process, so that a parser which hangs again fails at the timeout
    res = run_cli("dial", "--t", "0.5", "--a-star", "1e-99999999", timeout=10)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.splitlines() == ["error: not a rational: '1e-99999999'"]


@pytest.mark.parametrize("argv, message", [
    (("entropy", "MAP", "--depth", "two"), "argument --depth: invalid int value: 'two'"),
    (("horseshoe", "MAP", "--bogus"), "unrecognized arguments: --bogus"),
    ((), "the following arguments are required: command"),
    (("psi", "MAP", "--format", "csv"), "unrecognized arguments: --format csv"),
    # the breakpoint cap bounds no work of these four, and no flag goes first
    (("horseshoe", "MAP", "--cap-breakpoints", "1"), "unrecognized arguments: --cap-breakpoints 1"),
    (("thmB", "MAP", "--cap-breakpoints", "1"), "unrecognized arguments: --cap-breakpoints 1"),
    (("psi", "MAP", "--cap-breakpoints", "1"), "unrecognized arguments: --cap-breakpoints 1"),
    (("figure1", "--cap-breakpoints", "1"), "unrecognized arguments: --cap-breakpoints 1"),
    (("--cap-breakpoints=4", "entropy", "MAP"), "unrecognized arguments: --cap-breakpoints=4"),
], ids=["depth_two", "unknown_flag", "no_subcommand", "format_flag", "cap_horseshoe",
        "cap_thmB", "cap_psi", "cap_figure1", "cap_before_command"])
def test_usage_error_returns_2_in_process(tent_path, argv, message):
    code, out, lines = _main(*[tent_path if arg == "MAP" else arg for arg in argv])
    assert code == 2 and out == ""
    assert lines == [f"error: {message}"]


@pytest.mark.parametrize("argv, code", [
    (("dial", "--t", "0.5", "--d", "4"), 1),
    (("dial", "--t", "0.5", "--tol", "0"), 1),
    (("dial", "--t", "0.5", "--tol", "nan"), 1),
    (("dial", "--t", "0.5", "--lambda-grid", "2"), 1),
    (("dial", "--t", "0.5", "--lambda-grid", str(dial.LAMBDA_GRID_CAP + 1)), 3),
    (("dial", "--t", "0.5", "--lambda-grid", str(10 ** 30)), 3),
    (("dial", "--t", "0.5", "--depth", "0"), 1),
    (("dial", "--t", "0.5", "--N", "0"), 1),
    (("dial", "--t", "0.5", "--N", str(dial.TRUNCATION_CAP + 1)), 3),
    (("dial", "--t", "0.5", "--N", str(10 ** 30)), 3),
    (("dial", "--t", "5"), 1),
    (("dial", "--t", "0.5", "--a-star", "2"), 1),
    (("dial", "--t", "0.5", "--check-lambdas", ",".join(["1"] * (dial.CHECK_LAMBDAS_CAP + 1))), 3),
    (("ell1", "--steps", "0"), 1),
    (("ell1", "--tail-factor", "1"), 1),
    (("ell1", "--delta", "1"), 1),
    (("ell1", "--steps", "15"), 3),
    (("ell1", "--steps", "3", "--cap-breakpoints", "511"), 3),
    (("psi", "MAP", "--N", "-1"), 1),
    (("psi", "MAP", "--ratio", "1/3"), 1),
    (("psi", "MAP", "--schedule", "hoelder", "--alpha", "2"), 1),
    (("psi", "MAP", "--horseshoe", "1"), 1),
    (("psi", "MAP", "--N", str(universal.TRUNCATION_CAP + 1)), 3),
    (("psi", "MAP", "--schedule", "hoelder", "--N", str(10 ** 30)), 3),
    (("figure1", "--N", "-1"), 1),
    (("figure1", "--N", str(universal.TRUNCATION_CAP + 1)), 3),
    (("figure1", "--samples", "-3"), 2),
    (("entropy", "MAP", "--seed", "3"), 2),
], ids=["dial_d", "dial_tol", "dial_tol_nan", "dial_lambda_grid", "dial_lambda_grid_above_cap",
        "dial_lambda_grid_far_above_cap", "dial_depth", "dial_N", "dial_N_above_cap",
        "dial_N_far_above_cap",
        "dial_t", "dial_a_star", "dial_check_lambdas_above_cap", "ell1_steps",
        "ell1_tail_factor", "ell1_delta", "ell1_steps_above_cap", "ell1_cap_511", "psi_N",
        "psi_ratio", "psi_alpha", "psi_horseshoe", "psi_N_above_cap", "psi_hoelder_N_far_above_cap",
        "figure1_N", "figure1_N_above_cap", "figure1_samples", "seed_off_check"])
def test_out_of_range_flag_exits_with_one_line(tent_path, argv, code):
    # each fails before any long computation: a NaN tolerance must not reach the
    # dial search, nor a witness above the cap get built
    result, out, lines = _main(*[tent_path if arg == "MAP" else arg for arg in argv])
    assert (result, out) == (code, "")
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_ell1_at_the_cap_prints_the_default_output():
    # the 3-step witness's bound, 2^9 = 512 breakpoints, is exactly the cap here
    assert _main("ell1", "--steps", "3", "--cap-breakpoints", "512") == _main("ell1")


def test_ell1_checks_the_cap_before_the_schedule(monkeypatch):
    # the 800-step witness may need 2^806 breakpoints: the run exits 3
    # without building the 800-term schedule or the default delta
    def no_schedule(*args):
        raise AssertionError("gamma_schedule ran before the cap check")

    monkeypatch.setattr(cli, "gamma_schedule", no_schedule)
    code, out, lines = _main("ell1", "--steps", "800")
    assert (code, out) == (3, "")
    assert len(lines) == 1 and lines[0].startswith("error: the 800-step witness needs up to ")


def test_ell1_far_above_the_cap_exits_with_one_line():
    # the 8000-step witness may need 2^8006 breakpoints, a count of 2,411 digits
    code, out, lines = _main("ell1", "--steps", "8000")
    assert (code, out) == (3, "")
    assert lines == ["error: the 8000-step witness needs up to 2^8006 breakpoints, "
                     "above the cap of 2000000"]


def test_ell1_a_billion_steps_reports_a_small_needed(monkeypatch):
    # the 10^9-step witness may need 2^1000000006 breakpoints; the error's
    # needed is a lower bound just above the cap, not that billion-bit count
    raised = []

    def check(M):
        try:
            real(M)
        except ResourceLimitError as exc:
            raised.append(exc)
            raise

    real = cli._check_witness_cap
    monkeypatch.setattr(cli, "_check_witness_cap", check)
    code, out, lines = _main("ell1", "--steps", "1000000000")
    assert (code, out) == (3, "")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    cap = plmap.BREAKPOINT_CAP
    assert len(raised) == 1 and raised[0].cap == cap
    assert cap < raised[0].needed and raised[0].needed.bit_length() <= cap.bit_length() + 1


def test_readme_quotes_the_caps_of_the_code(monkeypatch):
    # every number README states about a cap, the zero test's round count or
    # the radius memo is the constant's own; the text is read with its
    # whitespace collapsed, since a phrase may wrap
    text = " ".join(README.read_text().split())
    quoted = {
        r"(\d+), the library constant `plmap\.BREAKPOINT_CAP`": plmap.BREAKPOINT_CAP,
        r"capped at (\d+) breakpoints \(`entropy\.HORSESHOE_CAP`": entropy.HORSESHOE_CAP,
        r"at most (\d+) laps, and a lap rate": entropy.HORSESHOE_LAP_BUDGET,
        r"more than (\d+) laps \(`entropy\.HORSESHOE_LAP_BUDGET`": entropy.HORSESHOE_LAP_BUDGET,
        r"would exceed (\d+) cells": entropy.PARTITION_CAP,
        r"stop at (\d+) cells \(`entropy\.PARTITION_CAP`": entropy.PARTITION_CAP,
        r"the scan's first (\d+) rounds": entropy._ZERO_ROUNDS,
        r"the test does not decide in its (\d+) rounds": entropy._ZERO_ROUNDS,
        r"the last (\d+) matrices \(`entropy\._RADIUS_MEMO`":
            entropy._rows_radius.cache_info().maxsize,
        # a key is a matrix's starts and stops as int64 bytes
        r"the memo holds at most (\d+) MiB":
            entropy._RADIUS_MEMO * 2 * 8 * entropy.PARTITION_CAP >> 20,
        r"even when every matrix has (\d+) cells": entropy.PARTITION_CAP,
        r"capped at (\d+) multipliers \(`dial\.LAMBDA_GRID_CAP`": dial.LAMBDA_GRID_CAP,
        r"capped at (\d+) scales \(`dial\.TRUNCATION_CAP`": dial.TRUNCATION_CAP,
        r"capped at (\d+) multipliers \(`dial\.CHECK_LAMBDAS_CAP`": dial.CHECK_LAMBDAS_CAP,
        r"capped at (\d+) scales \(`universal\.TRUNCATION_CAP`": universal.TRUNCATION_CAP,
    }
    for pattern, constant in quoted.items():
        assert [int(n) for n in re.findall(pattern, text)] == [constant], pattern
    # the M-step ell1 witness has fewer than 2^(M+6) breakpoints: its cap
    # check passes at a cap of 2^(M+6) and refuses one breakpoint less
    offset, = map(int, re.findall(r"fewer than `2\^\(M\+(\d+)\)` breakpoints", text))
    for M in range(1, 10):
        monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 2 ** (M + offset))
        cli._check_witness_cap(M)
        monkeypatch.setattr(plmap, "BREAKPOINT_CAP", 2 ** (M + offset) - 1)
        with pytest.raises(ResourceLimitError):
            cli._check_witness_cap(M)
    monkeypatch.undo()
    # and at the default cap, the last step count that completes and the first refused
    (done, refused), = re.findall(r"`--steps (\d+)` completes and `--steps (\d+)` exits 3", text)
    message, = re.findall(r"\(`(the \d+-step witness needs up to 2\^\d+ breakpoints)`\)", text)
    cli._check_witness_cap(int(done))
    with pytest.raises(ResourceLimitError) as err:
        cli._check_witness_cap(int(refused))
    assert int(refused) == int(done) + 1 and str(err.value).startswith(message)


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc, redirect_stdout(io.StringIO()):
        cli.main(["--help"])
    assert exc.value.code == 0


def test_check_prints_and_writes_results(monkeypatch, tmp_path):
    stubs = [CheckResult(1, "stub that passes", True, "all exact", 0.5),
             CheckResult(2, "stub that fails", False, "off by one", 1.5)]
    monkeypatch.setattr(cli, "run_all", lambda seed: stubs)
    path = tmp_path / "check.json"
    code, out, lines = _main("check", "--seed", "4", "--out", str(path))
    assert code == 1 and lines == []
    assert out.splitlines() == [
        "PASS criterion 1: stub that passes (all exact) [0.5s]",
        "FAIL criterion 2: stub that fails (off by one) [1.5s]",
    ]
    body = json.loads(path.read_text())
    assert set(body) == {"manifest", "results"}
    manifest = body["manifest"]
    assert set(manifest) == {"subcommand", "parameters", "outputs", "wall_time",
                             "library_version"}
    assert (manifest["subcommand"], manifest["parameters"], manifest["outputs"]) == (
        "check", {"seed": 4}, [])
    assert body["results"] == [
        {"number": 1, "name": "stub that passes", "passed": True, "detail": "all exact",
         "seconds": 0.5},
        {"number": 2, "name": "stub that fails", "passed": False, "detail": "off by one",
         "seconds": 1.5},
    ]


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


def test_horseshoe_above_cap_exit_3(tmp_path):
    n = entropy.HORSESHOE_CAP + 1
    path = tmp_path / "zigzag.json"
    path.write_text(json.dumps({"breakpoints": list(range(n)),
                                "values": [k % 2 for k in range(n)]}))
    res = run_cli("horseshoe", str(path))
    assert res.returncode == 3
    assert res.stderr.splitlines() == [
        f"error: horseshoe search over {n} breakpoints exceeds the cap of "
        f"{entropy.HORSESHOE_CAP}"]


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


def test_ell1_default_delta_admits_steps_4():
    # the default delta follows --steps: 2^-14 here, below step 4's 2^-13
    res = run_cli("ell1", "--steps", "4")
    assert (res.returncode, res.stderr) == (0, "")
    payload = json.loads(res.stdout)
    assert [s["certificate"]["d"] for s in payload["steps"]] == [3, 4, 5, 6]


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


def test_dial_command_at_the_bench_configuration(tmp_path):
    # criterion 8 at a* = 37/64 with the multiplier checks 1/2, 1 and 2
    out = tmp_path / "dial.json"
    res = run_cli("dial", "--t", "0.6931471805599453", "--N", "12",
                  "--lambda-grid", "21", "--depth", "8", "--a-star", "37/64",
                  "--check-lambdas", "1/2,1,2", "--out", str(out))
    assert (res.returncode, res.stderr) == (0, "")
    assert_golden("dial_criterion8_a_star_37_64.json", out.read_text())


def test_dial_command_searches_a_star_at_criterion_8():
    # without --a-star the bisection finds 37/64 for t = log 2
    res = run_cli("dial", "--t", "0.6931471805599453", "--N", "12",
                  "--lambda-grid", "21", "--depth", "8")
    assert (res.returncode, res.stderr) == (0, "")
    assert_golden("dial_criterion8_search_log2.json", res.stdout)
    assert json.loads(res.stdout)["config"]["a_star"] == "37/64"


def test_dial_search_stall_exits_1_with_one_line():
    res = run_cli("dial", "--t", "0.35", "--N", "6", "--lambda-grid", "7",
                  "--depth", "6", "--tol", "0.01")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1
    assert res.stderr.startswith("error: bisection stalled with residual 0.0366")
    assert " between a=" in res.stderr


def test_cap_override_truncates_entropy_depth(tent_path):
    # the tent's square has 5 breakpoints, so the golden reports depth 1
    res = run_cli("entropy", tent_path, "--depth", "9", "--cap-breakpoints", "4")
    assert res.returncode == 0  # entropy degrades gracefully
    assert_golden("entropy_tent_cap4_depth9.json", res.stdout)


def test_cap_reaches_dial(tmp_path):
    # the cap reaches the dial: it cuts the in-window brackets to
    # depth 1, which the uncapped run does not
    out = tmp_path / "dial.json"
    res = run_cli("dial", "--cap-breakpoints", "3", "--t", str(math.log(2)),
                  "--N", "4", "--lambda-grid", "3", "--depth", "5", "--tol", "0.2",
                  "--a-star", "37/64", "--check-lambdas", "1", "--out", str(out))
    assert res.returncode == 0
    assert_golden("dial_cap3_a_star_37_64.json", out.read_text())


def test_cap_flag_holds_for_one_call(monkeypatch, tent_path):
    monkeypatch.setattr(plmap, "BREAKPOINT_CAP", plmap.BREAKPOINT_CAP)  # undone even on failure
    cap = plmap.BREAKPOINT_CAP
    code, out, _ = _main("entropy", tent_path, "--depth", "9", "--cap-breakpoints", "4")
    assert code == 0 and json.loads(out)["depth"] == 1
    assert plmap.BREAKPOINT_CAP == cap
    assert entropy.entropy_bounds(TENT, 6).depth_used == 6


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_exit_2(tent_path, cap):
    for args in (["entropy", tent_path], ["ell1"], ["dial", "--t", "0.5"], ["check"]):
        res = run_cli(*args, "--cap-breakpoints", cap)
        assert res.returncode == 2, args
        assert res.stderr.splitlines() == [f"error: --cap-breakpoints must be >= 1, got {cap}"]
        assert res.stdout == ""


def test_figure1_resampled_polylines():
    # the only polylines evaluated off the breakpoints
    code, out, lines = _main("figure1", "--N", "3", "--samples", "40")
    assert (code, lines) == (0, [])
    assert_golden("figure1_N3_samples40.csv", out)


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
