"""Correctness oracles that do not depend on the code under test.

Each oracle takes plain values (numbers, strings, parsed JSON) and returns a
list of failure messages; an empty list means the output is correct. The
expected values are mathematical facts about the benchmark's inputs:

* the oscillator f = z^2 - y^2 has its first conjugate point at pi, which is
  4 times the length bound (pi/4) sqrt(p_min/|q_min|) = pi/4;
* on [0, 4] the oscillator's length test is silent (Inconclusive, exit 2);
* every corpus instance is built to be a minimum, so it certifies with a
  stationarity residual of at most 1e-8 and a positive quadratic coefficient
  (acceptance claim 5), and a certified minimum has no conjugate point in
  (a, b] (Jacobi's necessary condition);
* the generator spec's rate P_y(x, 0) has no closed-form antiderivative, so
  the generator takes the table-fit path.
"""

from __future__ import annotations

import json
import math

MINIMUM_VERDICTS = ("MinimumUnconditional", "MinimumUnderLength")
INCONCLUSIVE = "Inconclusive"
EL_TOL = 1e-8
CONJUGATE_TOL = 1e-6
RATIO_TOL = 1e-5
OSCILLATOR_CONJUGATE = math.pi
OSCILLATOR_RATIO = 4.0

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2


def corpus_certificate(verdict: str, el_residual_max: float, quad_coefficient) -> list:
    failures = []
    if verdict not in MINIMUM_VERDICTS:
        failures.append(f"corpus verdict {verdict!r} is not a minimum")
    if not (el_residual_max is not None and el_residual_max <= EL_TOL):
        failures.append(f"corpus residual {el_residual_max!r} exceeds {EL_TOL}")
    if not (quad_coefficient is not None and quad_coefficient > 0.0):
        failures.append(f"corpus quadratic coefficient {quad_coefficient!r} is not positive")
    return failures


def oscillator_certificate(verdict: str) -> list:
    if verdict != INCONCLUSIVE:
        return [f"oscillator on [0, 4] gave {verdict!r}, expected {INCONCLUSIVE!r}"]
    return []


def oscillator_comparison(conjugate_point, ratio) -> list:
    failures = []
    if conjugate_point is None or abs(conjugate_point - OSCILLATOR_CONJUGATE) > CONJUGATE_TOL:
        failures.append(f"oscillator conjugate point {conjugate_point!r} is not pi")
    if ratio is None or abs(ratio - OSCILLATOR_RATIO) > RATIO_TOL:
        failures.append(f"oscillator length ratio {ratio!r} is not 4")
    return failures


def corpus_comparison(conjugate_point, ratio, b: float) -> list:
    failures = []
    if conjugate_point is not None and conjugate_point <= b:
        failures.append(f"certified minimum has a conjugate point at {conjugate_point!r}")
    if ratio is not None and ratio < 1.0:
        failures.append(f"conjugate-point length is shorter than the length bound ({ratio!r})")
    return failures


def verification(passed) -> list:
    return [] if passed is True else ["empirical verification did not pass"]


# ---------------------------------------------------------------------------
# command-line reports


def _report(stdout: str):
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _exit(code: int, expected: int) -> list:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def cli_certify_corpus(code: int, stdout: str) -> list:
    report = _report(stdout)
    if report is None:
        return ["certify printed no JSON object"]
    return _exit(code, EXIT_OK) + corpus_certificate(
        report.get("verdict"), report.get("el_residual_max"), report.get("quad_coefficient"))


def cli_certify_oscillator(code: int, stdout: str) -> list:
    report = _report(stdout)
    if report is None:
        return ["certify printed no JSON object"]
    return _exit(code, EXIT_INCONCLUSIVE) + oscillator_certificate(report.get("verdict"))


def cli_compare_oscillator(code: int, stdout: str) -> list:
    report = _report(stdout)
    if report is None:
        return ["compare printed no JSON object"]
    return _exit(code, EXIT_OK) + oscillator_comparison(
        report.get("conjugate_point"), report.get("ratio"))


def cli_verify(code: int, stdout: str) -> list:
    report = _report(stdout)
    if report is None:
        return ["verify printed no JSON object"]
    empirical = report.get("empirical") or {}
    return _exit(code, EXIT_OK) + verification(empirical.get("passed"))


def cli_generate_table(code: int, stdout: str) -> list:
    report = _report(stdout)
    if report is None:
        return ["generate printed no JSON object"]
    a_path = (report.get("provenance") or {}).get("a_path")
    failures = _exit(code, EXIT_OK)
    if a_path != "table":
        failures.append(f"generate took the {a_path!r} path, expected 'table'")
    return failures


CLI_ORACLES = {
    "certify-corpus": cli_certify_corpus,
    "certify-oscillator": cli_certify_oscillator,
    "compare-oscillator": cli_compare_oscillator,
    "verify-corpus": cli_verify,
    "generate-table": cli_generate_table,
}


class RepeatCheck:
    """A repeated command line must print byte-identical output."""

    def __init__(self):
        self._seen = {}

    def __call__(self, argv: tuple, stdout: str) -> list:
        first = self._seen.setdefault(argv, stdout)
        if first != stdout:
            return [f"output of {' '.join(argv[:1])} changed between identical runs"]
        return []
