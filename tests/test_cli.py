"""Command-line behavior: exit codes, deterministic reports, file handling."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varcert import (
    SINE_BASIS,
    Grid,
    Integrand,
    PerturbationFamily,
    SampledPath,
    cli,
    functional_value,
)
from varcert.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)


def _problem(tmp_path, name="problem.json", **overrides):
    doc = {"integrand": "z^2-y^2", "interval": {"a": 0.0, "b": 0.5}}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# certify


def test_certify_minimum_exits_zero(tmp_path, capsys):
    code, out, err = _run(capsys, ["certify", _problem(tmp_path)])
    assert code == EXIT_OK
    assert err == ""
    report = json.loads(out)
    assert report["command"] == "certify"
    assert report["verdict"] == "MinimumUnderLength"
    assert report["p_min"] == pytest.approx(2.0)
    assert report["q_min"] == pytest.approx(-2.0)
    assert report["length_bound"] == pytest.approx(math.pi / 4.0)
    assert report["quad_coefficient"] > 0.0
    assert report["problem"]["extremal"] == "0"
    # f is quadratic in z, so the minimum is strong
    assert report["note"].startswith("Strong local minimum certified")


def test_certify_inconclusive_exits_two(tmp_path, capsys):
    path = _problem(tmp_path, interval={"a": 0.0, "b": 4.0})
    code, out, _ = _run(capsys, ["certify", path])
    assert code == EXIT_INCONCLUSIVE
    report = json.loads(out)
    assert report["verdict"] == "Inconclusive"
    assert report["quad_coefficient"] is None
    # the bound is still reported as context
    assert report["length_bound"] == pytest.approx(math.pi / 4.0)


def test_certify_legendre_failure_exits_three(tmp_path, capsys):
    path = _problem(tmp_path, integrand="-z^2")
    code, out, _ = _run(capsys, ["certify", path])
    assert code == EXIT_PRECONDITION
    assert json.loads(out)["verdict"] == "LegendreFailed"


def test_certify_non_extremal_exits_three(tmp_path, capsys):
    path = _problem(tmp_path, extremal="x")
    code, out, _ = _run(capsys, ["certify", path])
    assert code == EXIT_PRECONDITION
    assert json.loads(out)["verdict"] == "EulerLagrangeFailed"


def test_certify_cubic_slope_claims_only_a_weak_minimum(tmp_path, capsys):
    # int (y')^3 along y = x is a weak minimum but not a strong one
    path = _problem(tmp_path, integrand="z^3", interval={"a": 0, "b": 1}, extremal="x")
    # verify's probes are small in slope too, so its report keeps the claim
    for command in ("certify", "verify"):
        code, out, _ = _run(capsys, [command, path])
        report = json.loads(out)
        assert (code, report["verdict"]) == (EXIT_OK, "MinimumUnconditional")
        assert report["note"].startswith("Weak local minimum")
        assert "Strong" not in report["note"]
    # a sawtooth competitor, sup-close but steep, has a lower value: 1024
    # teeth, slope -10 on each tooth's first eighth and +10/7 on the rest;
    # each tooth spans 16 cells, so every kink sits on an even node, and a
    # slope sample is the slope to its right, of the next tooth at x = 1
    f = Integrand.from_text("z^3")
    grid = Grid(0.0, 1.0, 16384)
    xs = grid.nodes
    phase = (xs * 1024.0) % 1.0
    steep = phase < 0.125
    eta = np.where(steep, -10.0 * phase, -1.25 + (10.0 / 7.0) * (phase - 0.125)) / 1024.0
    slope = np.where(steep, -10.0, 10.0 / 7.0)
    assert np.max(np.abs(eta)) < 2e-3
    base = functional_value(f, SampledPath(grid, xs, np.ones_like(xs)))
    competitor = functional_value(f, SampledPath(grid, xs + eta, 1.0 + slope))
    assert base == pytest.approx(1.0, rel=1e-12)
    # (1/8)(1 - 10)^3 + (7/8)(1 + 10/7)^3, exact: f is constant on each Simpson panel
    assert competitor == pytest.approx(-729.0 / 8.0 + 4913.0 / 392.0, rel=1e-9)
    assert competitor < base


def test_certify_reports_are_byte_identical(tmp_path, capsys):
    path = _problem(tmp_path)
    _, first, _ = _run(capsys, ["certify", path])
    _, second, _ = _run(capsys, ["certify", path])
    assert first == second


def test_report_keys_are_only_what_a_decision_used(tmp_path, capsys):
    path = _problem(tmp_path, integrand="0.5*z^2")
    _, out, _ = _run(capsys, ["certify", path])
    assert set(json.loads(out)) == {
        "command", "version", "problem", "verdict", "note", "el_residual_max",
        "p_min", "q_min", "interval_length", "length_bound", "quad_coefficient",
        "grid_n"}
    _, out, _ = _run(capsys, ["generate", _genspec(tmp_path, P="exp(x^2)*y")])
    assert set(json.loads(out)["provenance"]) == {"a_path", "fit_degree", "fit_error"}
    code, out, err = _run(capsys, ["certify", path, "--sobolev"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.endswith("error: unrecognized arguments: --sobolev\n")


def test_grid_precedence(tmp_path, capsys):
    file_path = _problem(tmp_path, grid_n=256)
    _, out, _ = _run(capsys, ["certify", file_path, "--grid-n", "64"])
    assert json.loads(out)["grid_n"] == 64  # flag wins
    _, out, _ = _run(capsys, ["certify", file_path])
    assert json.loads(out)["grid_n"] == 256  # then the file
    bare_path = _problem(tmp_path, name="bare.json")
    _, out, _ = _run(capsys, ["certify", bare_path])
    assert json.loads(out)["grid_n"] == 512  # then the default


def test_el_tol_flag_overrides_file(tmp_path, capsys):
    path = _problem(tmp_path, el_tol=1e-2)
    _, out, _ = _run(capsys, ["certify", path, "--el-tol", "1e-4"])
    assert json.loads(out)["problem"]["el_tol"] == pytest.approx(1e-4)


def test_el_tol_accepts_integers_and_zero(tmp_path, capsys):
    path = _problem(tmp_path, el_tol=1)
    code, out, _ = _run(capsys, ["certify", path])
    assert code == EXIT_OK
    assert json.loads(out)["problem"]["el_tol"] == 1.0
    _, out, _ = _run(capsys, ["certify", path, "--el-tol", "0"])
    assert json.loads(out)["problem"]["el_tol"] == 0.0


@pytest.mark.parametrize("command", ["certify", "verify"])
@pytest.mark.parametrize("flag, field", [
    ("nan", None), ("inf", None), ("-1e-8", None),
    (None, "NaN"), (None, "Infinity"), (None, "1e400"), (None, "-1"), (None, "1" + "0" * 400),
    (None, "true"), (None, '"abc"'), (None, "null"), (None, "[1e-8]"),
])
def test_el_tol_must_be_a_finite_non_negative_number(tmp_path, capsys, command, flag, field):
    # the residual of y = x is 2 here, and no residual exceeds a nan or
    # infinite tolerance, so such a tolerance would certify a non-extremal
    text = '{"integrand": "z^2+y^2", "interval": {"a": 0, "b": 1}, "extremal": "x"'
    if field is not None:
        text += f', "el_tol": {field}'
    path = tmp_path / "problem.json"
    path.write_text(text + "}", encoding="utf-8")
    argv = [command, str(path)] + ([] if flag is None else [f"--el-tol={flag}"])
    code, out, err = _run(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: el_tol must be a finite non-negative number\n"


# ---------------------------------------------------------------------------
# input errors


def test_missing_file_exits_one(capsys):
    code, out, err = _run(capsys, ["certify", "/nonexistent/problem.json"])
    assert code == EXIT_ERROR
    assert out == ""
    assert err != ""


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, ["certify", str(path)])
    assert code == EXIT_ERROR and err != ""


def test_bad_expression_exits_one(tmp_path, capsys):
    path = _problem(tmp_path, integrand="z^^2")
    code, _, err = _run(capsys, ["certify", path])
    assert code == EXIT_ERROR
    assert "offset" in err


@pytest.mark.parametrize("integrand, message", [
    ("\u00e9+z^2", "expected a known function or variable name at offset 0"),
    ("z^\u00b2", "expected integer exponent at offset 2"),
])
def test_characters_outside_the_grammar_are_parse_errors(tmp_path, capsys, integrand, message):
    # str.isalpha and str.isdigit admit a non-ASCII letter and a superscript
    # digit, which no name and no integer exponent is made of
    code, out, err = _run(capsys, ["certify", _problem(tmp_path, integrand=integrand)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {message}\n"


def test_nan_residual_fails_stationarity(tmp_path, capsys):
    # f_zz y0'' overflows, and the residual is nan at 242 of the 513 nodes;
    # r is a root of the sampling program, so the root rule judges it
    path = _problem(tmp_path, integrand="5e300*z^2 + 1e300*sin(z)*y",
                    interval={"a": 0, "b": 1}, extremal="sin(1e10*x)")
    assert _run(capsys, ["certify", path]) == (
        EXIT_ERROR, "", "error: domain error in 'sub': non-finite result\n")


@pytest.mark.parametrize("command", ["certify", "compare", "verify"])
def test_overflowing_q_is_one_error_line(tmp_path, capsys, command):
    # every partial is finite, but q = f_yy - f_xyz = -0.5e308*2 - 1e308
    # overflows: the true q_min, -2e308, would give a length bound of
    # 7.85e-155 > 1e-160, so a verdict read from q_min = -inf is false
    path = _problem(tmp_path, integrand="z^2-0.5e308*y^2+1e308*x*y*z",
                    interval={"a": 0, "b": 1e-160})
    assert _run(capsys, [command, path]) == (
        EXIT_ERROR, "", "error: domain error in 'sub': non-finite result\n")


@pytest.mark.parametrize("command", ["certify", "compare", "verify"])
@pytest.mark.parametrize("text, message", [
    ("[]", "problem file must contain a JSON object"),
    ('{"integrand": 5, "interval": {"a": 0, "b": 1}}',
     "integrand and extremal must be expression strings"),
    ('{"integrand": "z^2", "interval": {"a": 0, "b": 1}, "grid_n": 1.5}',
     "grid_n must be an integer"),
])
def test_malformed_problem_files_are_one_error_line(tmp_path, capsys, command, text, message):
    # the three commands read their problem files through one loader
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    assert _run(capsys, [command, str(path)]) == (EXIT_ERROR, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["certify", "compare", "verify"])
def test_overflowing_interval_length_is_one_error_line(tmp_path, capsys, command):
    # both ends are finite, but b - a is not
    path = _problem(tmp_path, interval={"a": -1e308, "b": 1e308})
    assert _run(capsys, [command, path]) == (
        EXIT_ERROR, "", "error: grid length b - a overflows\n")


@pytest.mark.parametrize("command", ["certify", "compare", "verify"])
@pytest.mark.parametrize("integrand, a, b", [
    ("z^2+y^2", 0.0, 5e-324),
    ("z^2-5e30*y^2", 1.0, 1.000000000000002),
])
def test_grid_step_below_float_resolution_is_one_error_line(tmp_path, capsys, command,
                                                            integrand, a, b):
    # on [0, 5e-324] the step underflows to 0; on [1, 1 + 9 ulp] 512 cells
    # repeat nodes, and compare's Hermite resampling divided by a zero width
    path = _problem(tmp_path, integrand=integrand, interval={"a": a, "b": b})
    assert _run(capsys, [command, path]) == (
        EXIT_ERROR, "", "error: grid step (b - a)/n is below float resolution\n")


def test_missing_interval_exits_one(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"integrand": "z^2"}), encoding="utf-8")
    code, _, _ = _run(capsys, ["certify", str(path)])
    assert code == EXIT_ERROR


def test_deeply_nested_expression_certifies(tmp_path, capsys):
    # the parser keeps its own stack, so nesting is not bounded by recursion
    path = _problem(tmp_path, integrand="(" * 2000 + "z^2" + ")" * 2000)
    code, out, err = _run(capsys, ["certify", path])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["verdict"] == "MinimumUnconditional"


@pytest.mark.parametrize("command", ["certify", "generate"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, command):
    # the json module recurses on nesting; the problem and spec loaders
    # report that as a malformed file
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = _run(capsys, [command, str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {path} is not valid JSON: nested too deeply\n"


def test_long_sum_ends_in_a_verdict(tmp_path, capsys):
    # 600 terms nest 600 deep; no pass after parsing recurses on them
    terms = [f"{k}*x*y" for k in range(1, 600)] + ["z^2"]
    path = _problem(tmp_path, integrand="+".join(terms))
    code, out, err = _run(capsys, ["certify", path])
    assert (code, err) == (EXIT_PRECONDITION, "")
    assert json.loads(out)["verdict"] == "EulerLagrangeFailed"


@pytest.mark.parametrize("interval", [
    {"a": False, "b": 0.5}, {"a": 0.0, "b": True}, {"a": "0", "b": 0.5}, {"a": 0.0, "b": " 0.5 "},
])
def test_interval_ends_must_be_json_numbers(tmp_path, capsys, interval):
    # float() would take a bool or a numeric string
    code, out, err = _run(capsys, ["certify", _problem(tmp_path, interval=interval)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == 'error: problem file needs "integrand" and "interval": {"a": ..., "b": ...}\n'


# 401 digits: JSON reads it as an int that no float can hold
_HUGE_INT = 10 ** 400


@pytest.mark.parametrize("command", ["certify", "compare"])
def test_huge_interval_end_is_one_error_line(tmp_path, capsys, command):
    path = _problem(tmp_path, interval={"a": 0.0, "b": _HUGE_INT})
    code, out, err = _run(capsys, [command, path])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: int too large to convert to float\n"


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # raised in place of allocating, as numpy does for --grid-n 1000000000000
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000001,) and data type float64")

    monkeypatch.setattr(cli, "certify", exhausted)
    code, out, err = _run(capsys, ["certify", _problem(tmp_path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.splitlines() == ["error: Unable to allocate 7.28 TiB for an array with "
                                "shape (1000000000001,) and data type float64"]


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == EXIT_ERROR


def test_odd_grid_exits_one(tmp_path, capsys):
    code, _, err = _run(capsys, ["certify", _problem(tmp_path), "--grid-n", "7"])
    assert code == EXIT_ERROR and err != ""


# ---------------------------------------------------------------------------
# compare


def test_compare_reports_ratio(tmp_path, capsys):
    path = _problem(tmp_path, interval={"a": 0.0, "b": 4.0})
    code, out, err = _run(capsys, ["compare", path])
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["length_new"] == pytest.approx(math.pi / 4.0)
    assert report["length_jacobi"] == pytest.approx(math.pi, abs=1e-6)
    assert report["ratio"] == pytest.approx(4.0, abs=1e-5)
    assert report["conjugate_point"] == pytest.approx(math.pi, abs=1e-6)


def test_compare_infinite_lengths_serialize_as_strings(tmp_path, capsys):
    path = _problem(tmp_path, integrand="y^2+0.5*z^2", interval={"a": 0.0, "b": 2.0})
    code, out, _ = _run(capsys, ["compare", path])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["length_new"] == "inf"
    assert report["length_jacobi"] == "inf"
    assert report["ratio"] is None
    assert report["conjugate_point"] is None


def test_compare_legendre_failure_exits_three(tmp_path, capsys):
    path = _problem(tmp_path, integrand="-z^2")
    code, _, err = _run(capsys, ["compare", path])
    assert code == EXIT_PRECONDITION and err != ""


def test_plot_data_columns(tmp_path, capsys):
    path = _problem(tmp_path, interval={"a": 0.0, "b": 2.0})
    csv_path = tmp_path / "data.csv"
    _run(capsys, ["compare", path, "--grid-n", "64", "--plot-data", str(csv_path)])
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,p,q,U"
    assert len(lines) == 66  # header + 65 nodes
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0)  # p
    assert float(first[2]) == pytest.approx(-2.0)  # q
    assert float(first[3]) == pytest.approx(0.0)  # U(a)
    # certify leaves the accessory column blank
    _run(capsys, ["certify", path, "--grid-n", "64", "--plot-data", str(csv_path)])
    certify_lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert certify_lines[1].endswith(",")
    # compare's x,p,q come from its accessory solution, bit for bit the profile's
    assert ([line.rsplit(",", 1)[0] for line in lines]
            == [line.rsplit(",", 1)[0] for line in certify_lines])


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_exits_zero(tmp_path, capsys):
    path = _problem(tmp_path, integrand="y^2+0.5*z^2", interval={"a": 0.0, "b": 1.0})
    code, out, err = _run(capsys, ["verify", path])
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["note"].startswith("Strong local minimum certified")
    empirical = report["empirical"]
    assert empirical["passed"] is True
    assert empirical["note"].startswith("Observed growth dominates")
    assert len(empirical["checks"]) == 8 + 4  # sine modes + splines
    for check in empirical["checks"]:
        assert check["threshold"] == pytest.approx(0.1)
        assert len(check["margins"]) == 5


def test_verify_without_coefficient_exits_three(tmp_path, capsys):
    path = _problem(tmp_path, interval={"a": 0.0, "b": 4.0})
    code, out, _ = _run(capsys, ["verify", path])
    assert code == EXIT_PRECONDITION
    report = json.loads(out)
    assert report["empirical"] is None
    assert report["note"].startswith("The sufficient test is silent")


def test_verify_too_many_modes_is_one_error_line(tmp_path, capsys):
    # verify probes 8 sine modes, and 8 cells hold at most 4; the library
    # bound has its own test in test_certify.py
    path = _problem(tmp_path)
    message = "error: verify needs a grid of at least 16 cells, got 8\n"
    assert _run(capsys, ["verify", path, "--grid-n", "8"]) == (EXIT_ERROR, "", message)
    code, out, _ = _run(capsys, ["verify", path, "--grid-n", "16"])
    assert code == EXIT_OK
    assert json.loads(out)["empirical"]["checks"][7]["label"] == "sine-8"


@pytest.mark.parametrize("option", [["--modes", "4"], ["--seed", "1"]])
def test_verify_probe_set_is_fixed(tmp_path, capsys, option):
    # verify probes acceptance claim 6's directions; neither count nor seed is a flag
    code, out, err = _run(capsys, ["verify", _problem(tmp_path), *option])
    assert (code, out) == (EXIT_ERROR, "")
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_verify_quadrature_overflow_is_one_error_line(tmp_path, capsys):
    # every sample of f is finite, but their Simpson sum is not
    path = _problem(tmp_path, integrand="z^2+1e308", interval={"a": 0, "b": 4})
    assert _run(capsys, ["verify", path]) == (EXIT_ERROR, "", "error: integral overflowed\n")


def test_verify_on_a_very_short_interval_is_one_error_line(tmp_path, capsys):
    # the spline directions' cubic coefficients, about 1/dx^3, overflow
    path = _problem(tmp_path, integrand="z^2+y^2", interval={"a": 0, "b": 1e-120})
    assert _run(capsys, ["verify", path]) == (
        EXIT_ERROR, "", "error: path samples must be finite\n")


def test_verify_on_a_subnormal_interval_is_one_error_line(tmp_path, capsys):
    # the nodes are distinct subnormals, but the sine frequency overflows
    path = _problem(tmp_path, integrand="z^2+y^2", interval={"a": 0, "b": 1e-310})
    assert _run(capsys, ["verify", path]) == (
        EXIT_ERROR, "", "error: path samples must be finite\n")


def test_verify_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a claimed coefficient of 10 where 1 is certified: no direction grows
    # that fast at any rung
    real_certify = cli.certify

    def overclaimed(*args, **kwargs):
        return dataclasses.replace(real_certify(*args, **kwargs), quad_coefficient=10.0)

    monkeypatch.setattr(cli, "certify", overclaimed)
    path = _problem(tmp_path, integrand="z^2+y^2", interval={"a": 0, "b": 1})
    code, out, err = _run(capsys, ["verify", path])
    assert (code, err) == (EXIT_PRECONDITION, "")
    report = json.loads(out)
    assert report["quad_coefficient"] == 10.0
    assert report["empirical"]["passed"] is False
    assert [check["threshold"] for check in report["empirical"]["checks"]] == [None] * 12
    assert report["note"].startswith("Strong local minimum certified")
    assert report["empirical"]["note"].startswith("At least one perturbation shows less growth")


def test_verify_bad_ladder_exits_one(tmp_path, capsys):
    path = _problem(tmp_path)
    code, _, err = _run(capsys, ["verify", path, "--ladder", "big,small"])
    assert code == EXIT_ERROR and err != ""


def test_verify_probes_one_fixed_ladder(tmp_path, capsys):
    # the ladder is a class constant, not a field or a flag
    assert [field.name for field in dataclasses.fields(PerturbationFamily)] == [
        "kind", "count", "seed"]
    with pytest.raises(TypeError):
        PerturbationFamily(SINE_BASIS, ladder=(0.1,))
    path = _problem(tmp_path)
    code, out, _ = _run(capsys, ["verify", path, "--ladder", "1e-2"])
    assert (code, out) == (EXIT_ERROR, "")
    ladder = PerturbationFamily.ladder
    assert all(map(math.isfinite, ladder)) and min(ladder) > 0.0
    assert all(hi > lo for hi, lo in zip(ladder, ladder[1:]))
    code, out, _ = _run(capsys, ["verify", path])
    assert code == EXIT_OK
    assert json.loads(out)["empirical"]["ladder"] == list(ladder)


# ---------------------------------------------------------------------------
# generate


def _genspec(tmp_path, **fields):
    path = tmp_path / "genspec.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def test_generate_from_spec(tmp_path, capsys):
    path = _genspec(tmp_path, P="sin(x)*y", pfun="2+sin(x)")
    code, out, err = _run(capsys, ["generate", path])
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["mode"] == "spec"
    assert report["provenance"]["a_path"] == "symbolic"
    assert report["certificate"]["verdict"] in ("MinimumUnconditional",
                                                "MinimumUnderLength")
    # the emitted problem is consumable by certify
    problem = tmp_path / "roundtrip.json"
    problem.write_text(json.dumps({
        "integrand": report["problem"]["integrand"],
        "interval": report["problem"]["interval"],
        "extremal": report["problem"]["extremal"],
    }), encoding="utf-8")
    code2, out2, _ = _run(capsys, ["certify", str(problem)])
    assert code2 == EXIT_OK
    assert json.loads(out2)["el_residual_max"] <= 1e-8


def test_generate_with_a_designated_path(tmp_path, capsys):
    path = _genspec(tmp_path, P="sin(x)*y", pfun="2+sin(x)", y0="sin(x)")
    code, out, err = _run(capsys, ["generate", path])
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert report["problem"]["extremal"] == "sin(x)"
    assert report["ingredients"]["y0"] == "sin(x)"
    assert report["certificate"]["verdict"] in ("MinimumUnconditional", "MinimumUnderLength")


@pytest.mark.parametrize("text, message", [
    ("[]", "generator spec must be a JSON object"),
    ('{"P": "z*y"}', "invalid generator spec: P may only use ['x', 'y']; found ['z']"),
    pytest.param('{"y0": 5}', "invalid generator spec: y0 must be an expression string or null",
                 id="y0-number"),
    pytest.param('{"y0": "x", "a": 1, "b": 0}', "invalid generator spec: requires a < b",
                 id="y0-reversed-interval"),
    pytest.param('{"y0": "y"}',
                 "invalid generator spec: candidate path must be a function of x alone",
                 id="y0-not-of-x"),
    ('{"P": "x*y", "a": -1e308, "b": 1e308}', "grid length b - a overflows"),
    # JSON reads 1e400 as inf, and "inf*z" would not parse back
    ('{"C": 1e400, "P": "x*y"}', "invalid generator spec: C must be a finite number"),
])
def test_malformed_generator_specs_are_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "genspec.json"
    path.write_text(text, encoding="utf-8")
    assert _run(capsys, ["generate", str(path)]) == (EXIT_ERROR, "", f"error: {message}\n")


@pytest.mark.parametrize("name, value", [("P", None), ("qfun", [1]), ("pfun", 2), ("rho", True)])
def test_generator_spec_expressions_must_be_strings(tmp_path, capsys, name, value):
    path = tmp_path / "genspec.json"
    path.write_text(json.dumps({name: value}), encoding="utf-8")
    message = f"error: invalid generator spec: {name} must be an expression string\n"
    assert _run(capsys, ["generate", str(path)]) == (EXIT_ERROR, "", message)


def test_generate_table_provenance(tmp_path, capsys):
    path = _genspec(tmp_path, P="exp(x^2)*y", a=0.0, b=0.6)
    code, out, _ = _run(capsys, ["generate", path])
    assert code == EXIT_OK
    provenance = json.loads(out)["provenance"]
    assert provenance["a_path"] == "table"
    assert provenance["fit_degree"] >= 4
    assert provenance["fit_error"] < 1e-8 * 3


@pytest.mark.parametrize("rho, warns", [
    # rho multiplies z^2, so any z in rho makes f more than quadratic in z
    ("y*z", True), ("0.1*sin(y)*z", True), ("z^2", True),
    ("0", False), ("y", False), ("y^2", False),
])
def test_generate_superlinear_rho_warns(tmp_path, capsys, rho, warns):
    # the certificate's note claims only a weak minimum, and says why
    path = _genspec(tmp_path, rho=rho)
    code, out, _ = _run(capsys, ["generate", path])
    assert code == EXIT_OK
    report = json.loads(out)
    assert "warnings" not in report
    note = report["certificate"]["note"]
    assert note.startswith("Weak local minimum (f is more than quadratic in the slope, "
                           "so only competitors close in value and in slope are covered)"
                           if warns else "Strong local minimum")


def test_generate_nonpositive_pfun_exits_three(tmp_path, capsys):
    path = _genspec(tmp_path, pfun="sin(x)", a=0.0, b=4.0)
    code, _, err = _run(capsys, ["generate", path])
    assert code == EXIT_PRECONDITION and err != ""


@pytest.mark.parametrize("P, b", [
    ("5e307*exp(-x^2)*y", 1),
    # these two overflow inside numpy's Chebyshev fit, which must not warn
    ("1e301*(2+sin(x^2))*y", 10),
    ("1e306*(2+sin(x^2))*y", 1000),
])
def test_generate_fit_overflow_is_one_error_line(tmp_path, capsys, P, b):
    path = _genspec(tmp_path, P=P, a=0, b=b)
    assert _run(capsys, ["generate", path]) == (
        EXIT_ERROR, "", "error: domain error in 'mul': non-finite result\n")


@pytest.mark.parametrize("field", ["C", "b"])
def test_generate_huge_number_is_one_error_line(tmp_path, capsys, field):
    path = _genspec(tmp_path, P="x*y", **{field: _HUGE_INT})
    code, out, err = _run(capsys, ["generate", path])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: int too large to convert to float\n"


@pytest.mark.parametrize("field", ["a", "b", "C"])
@pytest.mark.parametrize("value", [True, False, "0.5"])
def test_generate_numbers_must_be_json_numbers(tmp_path, capsys, field, value):
    path = _genspec(tmp_path, P="x*y", **{field: value})
    code, out, err = _run(capsys, ["generate", path])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: invalid generator spec: {field} must be a number\n"


def test_generate_corpus_mode(tmp_path, capsys):
    code, out, err = _run(capsys, ["generate", "--corpus", "0", "5"])
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert report["mode"] == "corpus"
    assert report["count"] == 5
    assert len(report["problems"]) == 5
    for problem in report["problems"]:
        assert problem["interval"] == {"a": 0.0, "b": 0.6}
        assert set(problem["ingredients"]) == {"P", "qfun", "pfun", "rho",
                                               "C", "a", "b", "y0"}


def test_generate_corpus_deterministic(capsys):
    _, first, _ = _run(capsys, ["generate", "--corpus", "3", "4"])
    _, second, _ = _run(capsys, ["generate", "--corpus", "3", "4"])
    assert first == second


@pytest.mark.parametrize("argv", [["generate", "--corpus", "-1", "1"]])
def test_negative_seed_is_named(capsys, argv):
    assert _run(capsys, argv) == (EXIT_ERROR, "", "error: seed must be >= 0\n")


@pytest.mark.parametrize("seed, count, size, digest", [
    (0, 100, 76098, "7585a5edfbd5d0042b2b91f4f86ae095304775e106b9075991b659ec3e96d959"),
    (7919, 30, 24100, "45ae299b17921017cbfa811e79e448e5c0ed402c8c465a9e1ddc82bc694520f3"),
])
def test_generate_corpus_bytes_are_pinned(capsys, seed, count, size, digest):
    # a change to parsing, simplification, the generator's draws or the
    # screen that alters any emitted byte shows here
    code, out, err = _run(capsys, ["generate", "--corpus", str(seed), str(count)])
    assert (code, err) == (EXIT_OK, "")
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


_PINNED_INPUTS = {
    "p1": {"integrand": "z^2-y^2", "interval": {"a": 0, "b": 4}},
    "p2": {"integrand": "z^2-y^2", "interval": {"a": 0, "b": 0.5}},
    "p3": {"integrand": "(1+x^2)*z^2+x*y*z-y^2", "interval": {"a": 0, "b": 0.6}},
    "g1": {"P": "x*y+y^2", "qfun": "x*y", "pfun": "1+x^2", "rho": "y*z",
           "y0": "x*(1-x)", "a": 0, "b": 0.5},
}


# every input uses only + - * / and integer powers, so these bytes hold on
# any IEEE-754 host; verify and the fitted spec call sin, cos or exp
@pytest.mark.parametrize("argv, code, size, digest", [
    (["certify", "p1"], EXIT_INCONCLUSIVE, 467,
     "4502ff81aaed8914dea5978c82ded93181b0430ebb8b6541dca84befbb197264"),
    (["compare", "p1"], EXIT_OK, 324,
     "a602eca2d1917cf47ef27fe177265e532ec716083af1d732b62da4d76e144b56"),
    (["certify", "p2"], EXIT_OK, 464,
     "d4afddbcc131321ecf65efe62e6a656c4d056c857e96dfa973d797cdba6d3e06"),
    (["certify", "p3"], EXIT_OK, 511,
     "db01243b204122d39361319a30b57285a3dcfd9b615b5707ceef4376308b7463"),
    (["certify", "p3", "--grid-n", "16384"], EXIT_OK, 515,
     "4a6b903e2f84f27313a686e8fd6d4429af243801f382d6fb507173907cd410b7"),
    (["compare", "p3"], EXIT_OK, 315,
     "4723c02ddfc9e01c71009afc2594792df4a6fed42457e34d3a3ca60379d31d1d"),
    # rho = y*z makes g1's integrand cubic in z, so its note claims a weak minimum
    (["generate", "g1"], EXIT_OK, 923,
     "e8fbe1e0d9b1bea0412bdc3216689e33e86c1038942d16e297c1141877434642"),
    # at n = 65536 the prefix product groups the most steps differently from
    # a step-by-step march
    (["compare", "p1", "--grid-n", "65536"], EXIT_OK, 326,
     "9658e9f53d1b582124420a56729c677b3660ed7e154aee47b5a55e91d6e33a61"),
    (["compare", "p3", "--grid-n", "65536"], EXIT_OK, 317,
     "9ac9aadc3a77d627a7a842fb7f3f1ec0d308ac5f4d5b7024fb44941ad47f4825"),
])
def test_cli_stdout_is_pinned(tmp_path, capsys, argv, code, size, digest):
    # a change to any certify, compare or generate report byte shows here
    name = argv[1]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_PINNED_INPUTS[name]), encoding="utf-8")
    got, out, err = _run(capsys, [argv[0], str(path), *argv[2:]])
    assert (got, err) == (code, "")
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_generate_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = _run(capsys, ["generate"])
    assert code == EXIT_ERROR and err != ""
    path = _genspec(tmp_path, P="x*y")
    code, _, err = _run(capsys, ["generate", path, "--corpus", "0", "2"])
    assert code == EXIT_ERROR and err != ""


def test_readme_usage_lists_every_flag():
    # each "varcert <cmd>" line of README's usage block names exactly the
    # options of that subcommand's parser
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                  for line in block.splitlines() if line.startswith("varcert ")}
    subparsers = next(action for action in cli._build_parser()._actions
                      if action.choices is not None and "verify" in action.choices)
    options = {name: {option for action in sub._actions for option in action.option_strings
                      if option not in ("-h", "--help")}
               for name, sub in subparsers.choices.items()}
    assert len(documented) == 4 and documented == options


# ---------------------------------------------------------------------------
# module entry


def _fresh_python(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_module_entry_runs_without_runpy_warning():
    result = _fresh_python("-W", "error::RuntimeWarning", "-m", "varcert.cli", "--help")
    assert result.returncode == 0
    assert result.stderr == ""
    assert "certify" in result.stdout


def test_compare_overflow_is_one_error_line(tmp_path):
    path = _problem(tmp_path, integrand="0.5*z^2+1e6*y^2", interval={"a": 0, "b": 10},
                    extremal="0")
    result = _fresh_python("-m", "varcert", "compare", path)
    assert result.returncode == EXIT_ERROR
    assert result.stderr == "error: accessory integration produced non-finite values\n"
    assert result.stdout == ""


def test_package_import_does_not_load_the_cli():
    result = _fresh_python("-c", "import sys, varcert; print('varcert.cli' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_python_dash_m_varcert_matches_main(tmp_path, capsys):
    path = _problem(tmp_path, interval={"a": 0.0, "b": 4.0})
    code, out, _ = _run(capsys, ["certify", path])
    result = _fresh_python("-m", "varcert", "certify", path)
    assert code == EXIT_INCONCLUSIVE
    assert (result.returncode, result.stdout) == (code, out)
