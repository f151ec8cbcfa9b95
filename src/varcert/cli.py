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
from dataclasses import asdict
from typing import Optional

from . import __version__
from .calculus import DEFAULT_GRID_N, Grid
from .certify import (
    DEFAULT_EL_TOL,
    MINIMUM_KINDS,
    RANDOM_SPLINE,
    SINE_BASIS,
    Certificate,
    PerturbationFamily,
    VerdictKind,
    certify,
    empirical_verify,
    length_bound,
    quadratic_in_slope,
)
from .expr import parse, unparse
from .generator import (
    GeneratorError,
    GeneratorSpec,
    build,
    sample_corpus,
)
from .jacobi import AccessoryIntegrationError, compare_criteria
from .variational import Extremal, Integrand, LegendreError, certify_samples

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_PRECONDITION = 3

_STRONG = "Strong local minimum"
_WEAK = ("Weak local minimum (f is more than quadratic in the slope, so only "
         "competitors close in value and in slope are covered)")

_NOTES = {
    VerdictKind.MINIMUM_UNCONDITIONAL: (
        "{} certified with a quadratic growth bound; "
        "no restriction on the interval length was needed."
    ),
    VerdictKind.MINIMUM_UNDER_LENGTH: (
        "{} certified because the interval is shorter "
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

# verify's directions, acceptance claim 6's, the sine modes first
_PROBES = (PerturbationFamily(SINE_BASIS, count=8),
           PerturbationFamily(RANDOM_SPLINE, count=4))


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "null"
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
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


def _resolve_grid_n(flag: Optional[int], file_value) -> int:
    if flag is not None:
        n = flag
    elif file_value is not None:
        n = file_value
    else:
        n = DEFAULT_GRID_N
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("grid_n must be an integer")
    return n


def _is_number(value) -> bool:
    # a JSON number: float() would also take bools and numeric strings
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve_el_tol(flag: Optional[float], file_value) -> float:
    tol = flag if flag is not None else file_value
    # the chained comparison is false for nan and exact for ints of any size
    if not _is_number(tol) or not 0.0 <= tol <= sys.float_info.max:
        raise ValueError("el_tol must be a finite non-negative number")
    return float(tol)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    except RecursionError:  # the json module recurses on nested arrays and objects
        raise ValueError(f"{path} is not valid JSON: nested too deeply")


def _load_problem(args) -> tuple:
    """The report's echo of the problem file, then the integrand, path, grid
    and stationarity tolerance it describes."""
    raw = _load_json(args.problem)
    if not isinstance(raw, dict):
        raise ValueError("problem file must contain a JSON object")
    try:
        integrand = raw["integrand"]
        a, b = raw["interval"]["a"], raw["interval"]["b"]
    except (KeyError, TypeError):
        a = b = None
    if not (_is_number(a) and _is_number(b)):
        raise ValueError(
            'problem file needs "integrand" and "interval": {"a": ..., "b": ...}')
    extremal = raw.get("extremal", "0")
    if not isinstance(integrand, str) or not isinstance(extremal, str):
        raise ValueError("integrand and extremal must be expression strings")
    grid_n = _resolve_grid_n(args.grid_n, raw.get("grid_n"))
    el_tol = _resolve_el_tol(args.el_tol, raw.get("el_tol", DEFAULT_EL_TOL))
    a, b = float(a), float(b)
    echo = {"integrand": integrand, "interval": {"a": a, "b": b}, "extremal": extremal,
            "grid_n": grid_n, "el_tol": el_tol}
    return (echo, Integrand.from_text(integrand), Extremal.from_text(extremal, a, b),
            Grid(a, b, grid_n), el_tol)


def _exit_for(kind: VerdictKind) -> int:
    if kind in MINIMUM_KINDS:
        return EXIT_OK
    if kind is VerdictKind.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_PRECONDITION


def _certificate_block(f: Integrand, cert: Certificate, grid: Grid) -> dict:
    kind = cert.verdict.kind
    # only the Minimum* notes have a {}, for the claim
    strong = kind not in MINIMUM_KINDS or quadratic_in_slope(f)
    return {
        "verdict": kind.value,
        "note": _NOTES[kind].format(_STRONG if strong else _WEAK),
        "el_residual_max": cert.verdict.el_residual_max,
        "p_min": cert.p_min,
        "q_min": cert.q_min,
        "interval_length": grid.length,
        # informative even when the verdict is Inconclusive
        "length_bound": length_bound(cert.p_min, cert.q_min) if cert.p_min > 0.0 else None,
        "quad_coefficient": cert.quad_coefficient,
        "grid_n": grid.n,
    }


def _certificate_report(args, problem: dict, f: Integrand, cert: Certificate, grid: Grid) -> dict:
    return {"command": args.command, "version": __version__, "problem": problem,
            **_certificate_block(f, cert, grid)}


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
    problem, f, y0, grid, el_tol = _load_problem(args)
    cert = certify(f, y0, grid, el_tol=el_tol)
    report = _certificate_report(args, problem, f, cert, grid)
    if args.plot_data:
        _, p, q = certify_samples(f, y0, grid.nodes)
        _write_plot_data(args.plot_data, grid, p, q)
    _emit(report)
    return _exit_for(cert.verdict.kind)


def cmd_compare(args) -> int:
    problem, f, y0, grid, _ = _load_problem(args)
    solution = compare_criteria(f, y0, grid)
    report = {
        "command": "compare",
        "version": __version__,
        "problem": problem,
        "p_min": solution.p_min,
        "q_min": solution.q_min,
        "length_new": solution.length_new,
        "length_jacobi": solution.length_jacobi,
        "ratio": solution.ratio,
        "conjugate_point": solution.conjugate_point,
    }
    if args.plot_data:
        _write_plot_data(args.plot_data, grid, solution.p_of_x, solution.q_of_x, solution.U)
    _emit(report)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, f, y0, grid, el_tol = _load_problem(args)
    # each sine mode spans at least two cells per half-wave
    cells = 2 * _PROBES[0].count
    if grid.n < cells:
        raise ValueError(f"verify needs a grid of at least {cells} cells, got {grid.n}")
    cert = certify(f, y0, grid, el_tol=el_tol)
    report = _certificate_report(args, problem, f, cert, grid)
    if cert.quad_coefficient is None:
        # no growth constant to probe; the certificate's note says why
        report["empirical"] = None
        _emit(report)
        return EXIT_PRECONDITION
    ladder = list(PerturbationFamily.ladder)
    results = [empirical_verify(f, y0, cert, fam, grid) for fam in _PROBES]
    checks = [{"label": check.label, "threshold": check.threshold,
               "margins": [list(rung) for rung in zip(ladder, check.margins)]}
              for result in results for check in result.checks]
    passed = all(result.passed for result in results)
    report["empirical"] = {
        "coefficient": cert.quad_coefficient,
        "abs_tol": results[0].abs_tol,
        "base_value": results[0].base_value,
        "ladder": ladder,
        "checks": checks,
        "passed": passed,
        "note": (
            "Observed growth dominates the certified quadratic model for every "
            "perturbation from its threshold downward." if passed else
            "At least one perturbation shows less growth than the certified "
            "quadratic model at every rung; inspect the margins."),
    }
    _emit(report)
    return EXIT_OK if passed else EXIT_PRECONDITION


def _spec_from_json(raw: dict) -> GeneratorSpec:
    if not isinstance(raw, dict):
        raise ValueError("generator spec must be a JSON object")
    for name in ("a", "b", "C"):
        if name in raw and not _is_number(raw[name]):
            raise ValueError(f"invalid generator spec: {name} must be a number")
    texts = {name: raw.get(name, default)
             for name, default in (("P", "0"), ("qfun", "0"), ("pfun", "1"), ("rho", "0"))}
    for name, text in texts.items():
        if not isinstance(text, str):
            raise ValueError(f"invalid generator spec: {name} must be an expression string")
    a = float(raw.get("a", 0.0))
    b = float(raw.get("b", 1.0))
    y0_text = raw.get("y0")
    try:
        if y0_text is not None and not isinstance(y0_text, str):
            raise TypeError("y0 must be an expression string or null")
        y0 = None if y0_text is None else Extremal.from_text(y0_text, a, b)
        return GeneratorSpec(**{name: parse(text) for name, text in texts.items()},
                             C=float(raw.get("C", 0.0)), a=a, b=b, y0=y0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid generator spec: {exc}")


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


def _built_echo(spec: GeneratorSpec, integrand: Integrand, extremal: Extremal) -> dict:
    return {"integrand": unparse(integrand.f), "interval": {"a": spec.a, "b": spec.b},
            "extremal": unparse(extremal.y0)}


def cmd_generate(args) -> int:
    if (args.spec is None) == (args.corpus is None):
        raise ValueError("generate expects a spec file or --corpus SEED COUNT")
    if args.corpus is not None:
        seed, count = args.corpus
        problems = [{"index": index, **_built_echo(spec, integrand, extremal),
                     "ingredients": _spec_echo(spec)}
                    for index, (spec, integrand, extremal)
                    in enumerate(sample_corpus(seed, count, 0.0, 0.6))]
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
    report = {
        "command": "generate",
        "version": __version__,
        "mode": "spec",
        "ingredients": _spec_echo(spec),
        "problem": {**_built_echo(spec, integrand, extremal), "grid_n": grid.n},
        "provenance": asdict(info),
        "certificate": _certificate_block(integrand, cert, grid),
    }
    _emit(report)
    return _exit_for(cert.verdict.kind)


# ---------------------------------------------------------------------------
# parser and entry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcert",
        description="Certify weak local minimality (strong when f is at most "
                    "quadratic in the slope) of one-dimensional integral functionals "
                    "without solving the accessory boundary-value problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="decide minimality of a supplied path")
    p_cert.add_argument("problem", help="problem JSON file")
    p_cert.add_argument("--grid-n", type=int, default=None,
                        help="override the evaluation grid size")
    p_cert.add_argument("--el-tol", type=float, default=None,
                        help="stationarity residual tolerance")
    p_cert.add_argument("--plot-data", metavar="CSV", default=None,
                        help="write x,p,q columns for plotting")
    p_cert.set_defaults(func=cmd_certify)

    p_comp = sub.add_parser(
        "compare", help="length criterion next to the conjugate-point computation")
    p_comp.add_argument("problem", help="problem JSON file")
    p_comp.add_argument("--grid-n", type=int, default=None)
    p_comp.add_argument("--plot-data", metavar="CSV", default=None,
                        help="write x,p,q,U columns for plotting")
    p_comp.set_defaults(func=cmd_compare, el_tol=None)

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
    except (ValueError, TypeError, OSError, OverflowError, MemoryError,
            GeneratorError, AccessoryIntegrationError) as exc:
        # ParseError and EvalDomainError are ValueErrors;
        # OverflowError comes from a JSON integer too large for a float
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
