"""Command-line behavior: exit codes, deterministic reports, file handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_certify_reports_are_byte_identical(tmp_path, capsys):
    path = _problem(tmp_path)
    _, first, _ = _run(capsys, ["certify", path])
    _, second, _ = _run(capsys, ["certify", path])
    assert first == second


def test_certify_sobolev_note(tmp_path, capsys):
    path = _problem(tmp_path, integrand="0.5*z^2")
    _, out, _ = _run(capsys, ["certify", path, "--sobolev"])
    assert json.loads(out)["k_extremum_note"] is not None
    _, out, _ = _run(capsys, ["certify", path])
    assert json.loads(out)["k_extremum_note"] is None


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


def test_missing_interval_exits_one(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"integrand": "z^2"}), encoding="utf-8")
    code, _, _ = _run(capsys, ["certify", str(path)])
    assert code == EXIT_ERROR


def test_deeply_nested_expression_exits_one(tmp_path, capsys):
    terms = [f"{k}*x*y" for k in range(1, 600)] + ["z^2"]
    path = _problem(tmp_path, integrand="+".join(terms))
    code, out, err = _run(capsys, ["certify", path])
    assert code == EXIT_ERROR
    assert out == ""
    assert err.splitlines() == ["error: expression is nested too deeply"]
    assert "Traceback" not in err


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
    code, out, err = _run(capsys, ["verify", path, "--modes", "4"])
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    empirical = report["empirical"]
    assert empirical["passed"] is True
    assert len(empirical["checks"]) == 4 + 4  # sine modes + splines
    for check in empirical["checks"]:
        assert check["threshold"] == pytest.approx(0.1)
        assert len(check["margins"]) == 5


def test_verify_without_coefficient_exits_three(tmp_path, capsys):
    path = _problem(tmp_path, interval={"a": 0.0, "b": 4.0})
    code, out, _ = _run(capsys, ["verify", path])
    assert code == EXIT_PRECONDITION
    assert json.loads(out)["empirical"] is None


def test_verify_custom_ladder(tmp_path, capsys):
    path = _problem(tmp_path, integrand="0.5*z^2")
    code, out, _ = _run(capsys, ["verify", path, "--ladder", "1e-2,1e-3", "--modes", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["empirical"]["ladder"] == [1e-2, 1e-3]


def test_verify_bad_ladder_exits_one(tmp_path, capsys):
    path = _problem(tmp_path)
    code, _, err = _run(capsys, ["verify", path, "--ladder", "big,small"])
    assert code == EXIT_ERROR and err != ""


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
    assert report["provenance"]["table"] is None
    assert report["certificate"]["verdict"] in ("MinimumUnconditional",
                                                "MinimumUnderLength")
    assert report["warnings"] == []
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


def test_generate_table_provenance(tmp_path, capsys):
    path = _genspec(tmp_path, P="exp(x^2)*y", a=0.0, b=0.6)
    code, out, _ = _run(capsys, ["generate", path])
    assert code == EXIT_OK
    provenance = json.loads(out)["provenance"]
    assert provenance["a_path"] == "table"
    assert provenance["fit_degree"] >= 4
    assert provenance["fit_error"] < 1e-8 * 3
    assert len(provenance["table"]["values"]) == provenance["table"]["n"] + 1


def test_generate_superlinear_rho_warns(tmp_path, capsys):
    path = _genspec(tmp_path, rho="z^2")
    code, out, _ = _run(capsys, ["generate", path])
    assert code == EXIT_OK
    assert len(json.loads(out)["warnings"]) == 1


def test_generate_nonpositive_pfun_exits_three(tmp_path, capsys):
    path = _genspec(tmp_path, pfun="sin(x)", a=0.0, b=4.0)
    code, _, err = _run(capsys, ["generate", path])
    assert code == EXIT_PRECONDITION and err != ""


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


def test_generate_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = _run(capsys, ["generate"])
    assert code == EXIT_ERROR and err != ""
    path = _genspec(tmp_path, P="x*y")
    code, _, err = _run(capsys, ["generate", path, "--corpus", "0", "2"])
    assert code == EXIT_ERROR and err != ""


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
