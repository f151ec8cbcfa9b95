"""Command-line entry points with deterministic JSON reports.

Subcommands: ``certify`` (decide minimality of a supplied path), ``compare``
(length criterion next to the classical conjugate-point computation),
``generate`` (build integrands whose designated path is an exact extremal),
``verify`` (probe a certificate's quadratic lower bound empirically).

Exit codes: 0 a minimum was certified (or the requested pipeline succeeded),
1 input could not be parsed or evaluated, 2 the sufficient test is silent,
3 a precondition failed (non-positive leading coefficient, stationarity
residual above tolerance, or a failed empirical check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .calculus import Grid
from .certify import (
    MINIMUM_KINDS,
    RANDOM_SPLINE,
    SINE_BASIS,
    Certificate,
    PerturbationFamily,
    VerdictKind,
    certify,
    empirical_verify,
    length_bound,
)
from .expr import EvalDomainError, ParseError, diff, parse, unparse
from .generator import (
    GeneratorError,
    GeneratorSpec,
    build,
    sample_corpus,
)
from .jacobi import AccessoryIntegrationError, compare_criteria
from .variational import Extremal, Integrand, LegendreError, legendre_profile

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_PRECONDITION = 3

_DEFAULT_GRID_N = 512
_DEFAULT_EL_TOL = 1e-8

_NOTES = {
    VerdictKind.MINIMUM_UNCONDITIONAL: (
        "Strong local minimum certified with a quadratic growth bound; "
        "no restriction on the interval length was needed."
    ),
    VerdictKind.MINIMUM_UNDER_LENGTH: (
        "Strong local minimum certified because the interval is shorter "
        "than the computed length bound."
    ),
    VerdictKind.INCONCLUSIVE: (
        "The sufficient test is silent: the interval is not shorter than "
        "the length bound. This is not evidence against minimality."
    ),
    VerdictKind.LEGENDRE_FAILED: (
        "The slope-squared coefficient is not strictly positive along the "
        "path, so the certificate does not apply."
    ),
    VerdictKind.EL_FAILED: (
        "The supplied path does not satisfy the stationarity equation to "
        "tolerance, so certification does not start."
    ),
}

_SOBOLEV_NOTE = (
    "Growth is measured against the squared first-order Sobolev norm of the "
    "deviation: the certified gap scales with the integral of the deviation "
    "squared plus the slope deviation squared."
)


class CliInputError(ValueError):
    """Malformed command-line input or problem file."""


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "null"
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _render(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(item) for item in value) + "]"
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            parts.append(json.dumps(str(key)) + ": " + _render(value[key]))
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(report: dict) -> None:
    sys.stdout.write(_render(report) + "\n")


# ---------------------------------------------------------------------------
# problem loading


@dataclass(frozen=True)
class ProblemFile:
    integrand: str
    a: float
    b: float
    extremal: str
    grid_n: int
    el_tol: float


def _resolve_grid_n(flag: Optional[int], file_value) -> int:
    if flag is not None:
        n = flag
    elif file_value is not None:
        n = file_value
    else:
        n = _DEFAULT_GRID_N
    if not isinstance(n, int) or isinstance(n, bool):
        raise CliInputError("grid_n must be an integer")
    return n


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CliInputError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}")


def _load_problem(path: str, grid_flag: Optional[int],
                  el_flag: Optional[float]) -> ProblemFile:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise CliInputError("problem file must contain a JSON object")
    try:
        integrand = raw["integrand"]
        interval = raw["interval"]
        a = float(interval["a"])
        b = float(interval["b"])
    except (KeyError, TypeError, ValueError):
        raise CliInputError(
            'problem file needs "integrand" and "interval": {"a": ..., "b": ...}')
    extremal = raw.get("extremal", "0")
    if not isinstance(integrand, str) or not isinstance(extremal, str):
        raise CliInputError("integrand and extremal must be expression strings")
    grid_n = _resolve_grid_n(grid_flag, raw.get("grid_n"))
    if el_flag is not None:
        el_tol = float(el_flag)
    else:
        el_tol = float(raw.get("el_tol", _DEFAULT_EL_TOL))
    return ProblemFile(integrand, a, b, extremal, grid_n, el_tol)


def _problem_echo(problem: ProblemFile) -> dict:
    return {
        "integrand": problem.integrand,
        "interval": {"a": problem.a, "b": problem.b},
        "extremal": problem.extremal,
        "grid_n": problem.grid_n,
        "el_tol": problem.el_tol,
    }


def _exit_for(kind: VerdictKind) -> int:
    if kind in MINIMUM_KINDS:
        return EXIT_OK
    if kind is VerdictKind.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_PRECONDITION


def _reported_length_bound(cert: Certificate) -> Optional[float]:
    # informative even when the verdict is Inconclusive or unconditional
    if cert.p_min > 0.0 and cert.q_min < 0.0:
        return length_bound(cert.p_min, cert.q_min)
    return None


def _certificate_block(cert: Certificate) -> dict:
    block = {
        "verdict": cert.verdict.kind.value,
        "note": _NOTES[cert.verdict.kind],
        "el_residual_max": cert.verdict.el_residual_max,
        "p_min": cert.p_min,
        "q_min": cert.q_min,
        "interval_length": cert.interval_length,
        "length_bound": _reported_length_bound(cert),
        "quad_coefficient": cert.quad_coefficient,
        "grid_n": cert.grid_n,
        "k_extremum_note": None,
    }
    return block


def _write_plot_data(path: str, grid: Grid, p, q, U=None) -> None:
    lines = ["x,p,q,U"]
    for i, x in enumerate(grid.nodes):
        u = "" if U is None else format(float(U[i]), ".17g")
        lines.append(
            f"{format(float(x), '.17g')},{format(float(p[i]), '.17g')},"
            f"{format(float(q[i]), '.17g')},{u}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_certify(args) -> int:
    problem = _load_problem(args.problem, args.grid_n, args.el_tol)
    f = Integrand.from_text(problem.integrand)
    y0 = Extremal.from_text(problem.extremal, problem.a, problem.b)
    grid = Grid(problem.a, problem.b, problem.grid_n)
    cert = certify(f, y0, grid, el_tol=problem.el_tol)
    report = {"command": "certify", "version": __version__,
              "problem": _problem_echo(problem)}
    report.update(_certificate_block(cert))
    if args.sobolev:
        report["k_extremum_note"] = _SOBOLEV_NOTE
    if args.plot_data:
        profile = legendre_profile(f, y0, grid)
        _write_plot_data(args.plot_data, grid, profile.p_of_x, profile.q_of_x)
    _emit(report)
    return _exit_for(cert.verdict.kind)


def cmd_compare(args) -> int:
    problem = _load_problem(args.problem, args.grid_n, None)
    f = Integrand.from_text(problem.integrand)
    y0 = Extremal.from_text(problem.extremal, problem.a, problem.b)
    grid = Grid(problem.a, problem.b, problem.grid_n)
    comparison = compare_criteria(f, y0, grid)
    report = {
        "command": "compare",
        "version": __version__,
        "problem": _problem_echo(problem),
        "p_min": comparison.p_min,
        "q_min": comparison.q_min,
        "length_new": comparison.length_new,
        "length_jacobi": comparison.length_jacobi,
        "ratio": comparison.ratio,
        "conjugate_point": comparison.conjugate_point,
    }
    if args.plot_data:
        solution = comparison.solution
        _write_plot_data(args.plot_data, grid, solution.p_of_x, solution.q_of_x, solution.U)
    _emit(report)
    return EXIT_OK


def _parse_ladder(text: str) -> tuple:
    try:
        rungs = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CliInputError("--ladder expects comma-separated numbers")
    if not rungs:
        raise CliInputError("--ladder must list at least one rung")
    return rungs


def cmd_verify(args) -> int:
    problem = _load_problem(args.problem, args.grid_n, args.el_tol)
    f = Integrand.from_text(problem.integrand)
    y0 = Extremal.from_text(problem.extremal, problem.a, problem.b)
    grid = Grid(problem.a, problem.b, problem.grid_n)
    cert = certify(f, y0, grid, el_tol=problem.el_tol)
    report = {"command": "verify", "version": __version__,
              "problem": _problem_echo(problem)}
    report.update(_certificate_block(cert))
    if cert.quad_coefficient is None:
        report["empirical"] = None
        report["note"] = (
            "No quadratic coefficient accompanies this verdict, so there "
            "is nothing to verify empirically.")
        _emit(report)
        return EXIT_PRECONDITION
    kwargs = {"seed": args.seed}
    if args.ladder is not None:
        kwargs["ladder"] = _parse_ladder(args.ladder)
    families = (
        PerturbationFamily(SINE_BASIS, count=args.modes, **kwargs),
        PerturbationFamily(RANDOM_SPLINE, count=4, **kwargs),
    )
    results = [empirical_verify(f, y0, cert, fam, grid) for fam in families]
    checks = []
    for result in results:
        for check in result.checks:
            checks.append({
                "label": check.label,
                "threshold": check.threshold,
                "margins": [[eps, margin] for eps, margin
                            in zip(result.ladder, check.margins)],
            })
    passed = all(result.passed for result in results)
    report["empirical"] = {
        "coefficient": results[0].coefficient,
        "abs_tol": results[0].abs_tol,
        "base_value": results[0].base_value,
        "ladder": list(results[0].ladder),
        "checks": checks,
        "passed": passed,
    }
    report["note"] = (
        "Observed growth dominates the certified quadratic model for every "
        "perturbation from its threshold downward." if passed else
        "At least one perturbation shows less growth than the certified "
        "quadratic model at every rung; inspect the margins.")
    _emit(report)
    return EXIT_OK if passed else EXIT_PRECONDITION


def _spec_from_json(raw: dict) -> GeneratorSpec:
    if not isinstance(raw, dict):
        raise CliInputError("generator spec must be a JSON object")
    a = float(raw.get("a", 0.0))
    b = float(raw.get("b", 1.0))
    y0_text = raw.get("y0")
    y0 = None
    if y0_text is not None:
        if not isinstance(y0_text, str):
            raise CliInputError("y0 must be an expression string or null")
        y0 = Extremal.from_text(y0_text, a, b)
    try:
        return GeneratorSpec(
            P=parse(str(raw.get("P", "0"))),
            qfun=parse(str(raw.get("qfun", "0"))),
            pfun=parse(str(raw.get("pfun", "1"))),
            rho=parse(str(raw.get("rho", "0"))),
            C=float(raw.get("C", 0.0)),
            a=a,
            b=b,
            y0=y0,
        )
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"invalid generator spec: {exc}")


def _spec_echo(spec: GeneratorSpec) -> dict:
    return {
        "P": unparse(spec.P),
        "qfun": unparse(spec.qfun),
        "pfun": unparse(spec.pfun),
        "rho": unparse(spec.rho),
        "C": spec.C,
        "a": spec.a,
        "b": spec.b,
        "y0": None if spec.y0 is None else unparse(spec.y0.y0),
    }


def cmd_generate(args) -> int:
    if (args.spec is None) == (args.corpus is None):
        raise CliInputError("generate expects a spec file or --corpus SEED COUNT")
    if args.corpus is not None:
        seed, count = args.corpus
        triples = sample_corpus(seed, count, 0.0, 0.6)
        problems = []
        for index, (spec, integrand, extremal) in enumerate(triples):
            problems.append({
                "index": index,
                "integrand": unparse(integrand.f),
                "interval": {"a": spec.a, "b": spec.b},
                "extremal": unparse(extremal.y0),
                "ingredients": _spec_echo(spec),
            })
        _emit({
            "command": "generate",
            "version": __version__,
            "mode": "corpus",
            "seed": seed,
            "count": count,
            "problems": problems,
        })
        return EXIT_OK
    spec = _spec_from_json(_load_json(args.spec))
    integrand, info = build(spec)
    extremal = spec.y0 if spec.y0 is not None else Extremal.zero(spec.a, spec.b)
    grid = Grid(spec.a, spec.b, _resolve_grid_n(args.grid_n, None))
    cert = certify(integrand, extremal, grid)
    warnings = []
    rho_zz = diff(diff(spec.rho, "z"), "z")
    if rho_zz.op != "const" or rho_zz.value != 0.0:
        warnings.append(
            "rho adds slope dependence beyond the quadratic term; the "
            "certificate below still decides the built problem numerically.")
    provenance = {
        "a_path": info.a_path,
        "fit_degree": info.fit_degree,
        "fit_error": info.fit_error,
        "table": None if info.table is None else {
            "a": info.table.grid.a,
            "b": info.table.grid.b,
            "n": info.table.grid.n,
            "values": info.table.values,
        },
    }
    report = {
        "command": "generate",
        "version": __version__,
        "mode": "spec",
        "ingredients": _spec_echo(spec),
        "problem": {
            "integrand": unparse(integrand.f),
            "interval": {"a": spec.a, "b": spec.b},
            "extremal": unparse(extremal.y0),
            "grid_n": grid.n,
        },
        "provenance": provenance,
        "certificate": _certificate_block(cert),
        "warnings": warnings,
    }
    _emit(report)
    return _exit_for(cert.verdict.kind)


# ---------------------------------------------------------------------------
# parser and entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcert",
        description="Certify strong local minimality of one-dimensional "
                    "integral functionals without solving the accessory "
                    "boundary-value problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="decide minimality of a supplied path")
    p_cert.add_argument("problem", help="problem JSON file")
    p_cert.add_argument("--grid-n", type=int, default=None,
                        help="override the evaluation grid size")
    p_cert.add_argument("--el-tol", type=float, default=None,
                        help="stationarity residual tolerance")
    p_cert.add_argument("--sobolev", action="store_true",
                        help="annotate the report with the norm the bound uses")
    p_cert.add_argument("--plot-data", metavar="CSV", default=None,
                        help="write x,p,q columns for plotting")
    p_cert.set_defaults(func=cmd_certify)

    p_comp = sub.add_parser(
        "compare", help="length criterion next to the conjugate-point computation")
    p_comp.add_argument("problem", help="problem JSON file")
    p_comp.add_argument("--grid-n", type=int, default=None)
    p_comp.add_argument("--plot-data", metavar="CSV", default=None,
                        help="write x,p,q,U columns for plotting")
    p_comp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser(
        "generate", help="build an integrand whose designated path is an extremal")
    p_gen.add_argument("spec", nargs="?", default=None,
                       help="generator ingredient JSON file")
    p_gen.add_argument("--corpus", nargs=2, type=int, metavar=("SEED", "COUNT"),
                       default=None, help="emit a deterministic problem corpus")
    p_gen.add_argument("--grid-n", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser(
        "verify", help="probe a certificate empirically with perturbation ladders")
    p_ver.add_argument("problem", help="problem JSON file")
    p_ver.add_argument("--grid-n", type=int, default=None)
    p_ver.add_argument("--el-tol", type=float, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--modes", type=int, default=8,
                       help="number of sine directions")
    p_ver.add_argument("--ladder", default=None,
                       help="comma-separated decreasing scale ladder")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except LegendreError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CliInputError, ParseError, EvalDomainError, GeneratorError,
            AccessoryIntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: expression is nested too deeply", file=sys.stderr)
        return EXIT_ERROR


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
