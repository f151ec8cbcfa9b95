"""Sufficient-condition certificates that avoid the accessory equation.

The pipeline checks the Euler-Lagrange residual, the strengthened Legendre
condition p(x) > 0, and the sign of q(x); a negative q still certifies a
minimum when the interval is shorter than (pi/4) sqrt(p_min / |q_min|).
Minimum verdicts come with an explicit coefficient c > 0 such that the
functional gap dominates c times the squared Sobolev distance in a small
enough C1 neighborhood; empirical_verify probes that bound with concrete
perturbations: sine modes, and clamped cubic splines whose node slopes come
from the tridiagonal system of de Boor's *A Practical Guide to Splines*,
solved by Gaussian elimination with partial pivoting (LAPACK dgtsv).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .calculus import Grid, SampledPath, h1_norm_sq, integrate
from .expr import EvalDomainError, Program
from .variational import (
    Extremal,
    Integrand,
    LegendreError,
    certify_samples,
    ensure_same_interval,
)


class VerdictKind(Enum):
    MINIMUM_UNCONDITIONAL = "MinimumUnconditional"
    MINIMUM_UNDER_LENGTH = "MinimumUnderLength"
    INCONCLUSIVE = "Inconclusive"
    LEGENDRE_FAILED = "LegendreFailed"
    EL_FAILED = "EulerLagrangeFailed"


MINIMUM_KINDS = frozenset({VerdictKind.MINIMUM_UNCONDITIONAL, VerdictKind.MINIMUM_UNDER_LENGTH})

# the largest stationarity residual that still counts as an extremal
DEFAULT_EL_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    el_residual_max: float
    length_bound: Optional[float] = None

    def __post_init__(self):
        if (self.length_bound is not None) != (self.kind is VerdictKind.MINIMUM_UNDER_LENGTH):
            raise ValueError("length_bound accompanies MinimumUnderLength exactly")


def length_bound(p_min: float, q_min: float) -> Optional[float]:
    """Interval-length threshold (pi/4) sqrt(p/|q|); None when q_min >= 0."""
    if p_min <= 0.0:
        raise LegendreError("length bound requires p_min > 0")
    if q_min >= 0.0:
        return None
    return 0.25 * math.pi * math.sqrt(p_min / abs(q_min))


def _within_length(p_min: float, q_min: float, length: float) -> bool:
    # product form of length < (pi/4) sqrt(p/|q|); quad_coefficient tests
    # the same predicate, so the verdict and the coefficient can never
    # disagree at the boundary
    return 16.0 * length * length * abs(q_min) < math.pi * math.pi * p_min


def classify(p_min: float, q_min: float, el_max: float, a: float, b: float,
             el_tol: float = DEFAULT_EL_TOL) -> Verdict:
    """Order of checks: extremality, Legendre, sign of q, interval length.

    Inconclusive means the sufficient criterion is silent; it never claims
    the absence of a minimum. ``el_tol`` must be finite and non-negative:
    no residual exceeds a nan or infinite tolerance, so the first check
    would pass every path.
    """
    if not 0.0 <= el_tol < math.inf:
        raise ValueError("el_tol must be a finite non-negative number")
    if not el_max <= el_tol:  # a nan residual fails too
        return Verdict(VerdictKind.EL_FAILED, el_max)
    if p_min <= 0.0:
        return Verdict(VerdictKind.LEGENDRE_FAILED, el_max)
    if q_min >= 0.0:
        return Verdict(VerdictKind.MINIMUM_UNCONDITIONAL, el_max)
    if _within_length(p_min, q_min, b - a):
        return Verdict(
            VerdictKind.MINIMUM_UNDER_LENGTH,
            el_max,
            length_bound(p_min, q_min),
        )
    return Verdict(VerdictKind.INCONCLUSIVE, el_max)


def quad_coefficient(p_min: float, q_min: float, a: float, b: float) -> Optional[float]:
    """Coefficient c of the certified bound gap >= c * squared H1 distance.

    Two closed-form cases, split where ``classify`` splits them. For
    q_min >= 0 both the min(p, q)/2 and the length-weighted formulas hold,
    so the larger is returned. For q_min < 0 the bound holds when
    ``_within_length`` does, and None is returned otherwise.

    Hand-evaluated examples on (p_min, q_min, b - a):

        (1,  1, 1.0) -> 1/2                        = 0.5
        (2,  0, 1.0) -> pi^2/(pi^2 + 16)           = 0.3815135418411637...
        (2, -2, 0.5) -> (2 pi^2 - 8)/(2 pi^2 + 8)  = 0.4231991217159981...
    """
    if p_min <= 0.0:
        raise LegendreError("quadratic coefficient requires p_min > 0")
    length = b - a
    pi_sq = math.pi * math.pi
    denom = 2.0 * (pi_sq + 16.0 * length * length)
    if q_min >= 0.0:
        return max(0.5 * min(p_min, q_min), pi_sq * p_min / denom)
    if not _within_length(p_min, q_min, length):
        return None
    return (pi_sq * p_min - 16.0 * length * length * abs(q_min)) / denom


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    p_min: float
    q_min: float
    quad_coefficient: Optional[float]

    def __post_init__(self):
        has_coefficient = self.quad_coefficient is not None
        if has_coefficient != (self.verdict.kind in MINIMUM_KINDS):
            raise ValueError("quad_coefficient accompanies minimum verdicts exactly")
        if has_coefficient and not self.quad_coefficient > 0.0:
            raise ValueError("quad_coefficient must be positive")


def certify(f: Integrand, y0: Extremal, grid: Grid,
            el_tol: float = DEFAULT_EL_TOL) -> Certificate:
    """Full pipeline: residual, Legendre profile, verdict, quadratic coefficient.

    The residual, p and q come from one pass of ``certify_samples`` over the
    grid nodes, which runs f's partials composed along the path per chunk.
    """
    ensure_same_interval(y0, grid)
    residual, p, q = certify_samples(f, y0, grid.nodes)
    el_max = float(np.max(np.abs(residual)))
    p_min = float(p.min())
    q_min = float(q.min())
    verdict = classify(p_min, q_min, el_max, y0.a, y0.b, el_tol)
    coefficient = None
    if verdict.kind in MINIMUM_KINDS:
        coefficient = quad_coefficient(p_min, q_min, y0.a, y0.b)
    return Certificate(
        verdict=verdict,
        p_min=p_min,
        q_min=q_min,
        quad_coefficient=coefficient,
    )


def functional_value(f: Integrand, path: SampledPath,
                     x_values: Optional[tuple] = None) -> float:
    """Simpson value of the integral of f(x, y(x), y'(x)) over the path.

    ``x_values``, when given, holds the values of ``f.x_parts`` on the
    path's nodes; they are read, not computed again.
    """
    xs = path.grid.nodes
    env = {"x": xs, "y": path.y, "z": path.yp}
    program = f.value_program
    if x_values is not None:
        env.update(zip(f.x_parts, x_values))
        program = f.x_parts_program
    (values,) = program(env)
    return integrate(values, path.grid)


SINE_BASIS = "sine-basis"
RANDOM_SPLINE = "random-spline"

_DEFAULT_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
_SPLINE_KNOTS = 8  # interior knots of each random spline


@dataclass(frozen=True)
class PerturbationFamily:
    """Zero-boundary test directions with unit C1 size and an epsilon ladder.

    ``count`` is the number of sine modes or of random splines; splines are
    clamped cubics through ``_SPLINE_KNOTS`` interior knots with values
    drawn from a seeded generator.
    """

    kind: str
    count: int = 8
    seed: int = 0
    ladder: tuple = _DEFAULT_LADDER

    def __post_init__(self):
        if self.kind not in (SINE_BASIS, RANDOM_SPLINE):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        for name, value in (("count", self.count), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if isinstance(self.ladder, (str, bytes)) or not hasattr(self.ladder, "__iter__"):
            raise TypeError("ladder must be a sequence of numbers")
        ladder = tuple(float(t) for t in self.ladder)
        if not all(map(math.isfinite, ladder)):
            raise ValueError("ladder entries must be finite")
        if not ladder or any(t <= 0.0 for t in ladder):
            raise ValueError("ladder entries must be positive")
        if any(hi <= lo for hi, lo in zip(ladder, ladder[1:])):
            raise ValueError("ladder must be strictly decreasing")
        object.__setattr__(self, "ladder", ladder)

    def paths(self, grid: Grid):
        """The (label, SampledPath) perturbations in a fixed order.

        A generator: directions are built one at a time, so a caller that
        walks them holds one in memory. More than ``grid.n // 2`` sine
        modes is a ValueError: a higher mode has fewer than two cells per
        half-wave.
        """
        if self.kind == SINE_BASIS:
            if self.count > grid.n // 2:
                raise ValueError(f"count must be <= grid.n // 2 = {grid.n // 2} for sine "
                                 f"modes (two cells per half-wave), got {self.count}")
            return (self._sine(k, grid) for k in range(1, self.count + 1))
        return (self._spline(i, grid) for i in range(self.count))

    def _sine(self, k: int, grid: Grid):
        xs = grid.nodes
        # on an interval shorter than about 1e-307 omega overflows;
        # SampledPath then rejects the non-finite samples
        with np.errstate(over="ignore", invalid="ignore"):
            omega = k * math.pi / grid.length
            y = np.sin(omega * (xs - grid.a))
            yp = omega * np.cos(omega * (xs - grid.a))
        return (f"sine-{k}", _normalized(grid, y, yp))

    def _spline(self, i: int, grid: Grid):
        rng = np.random.default_rng((self.seed, i))
        knots = _snapped_knots(grid, _SPLINE_KNOTS)
        values = rng.uniform(-1.0, 1.0, _SPLINE_KNOTS + 2)
        values[0] = 0.0
        values[-1] = 0.0
        # on a very short interval the cubic coefficients, about 1/dx^3,
        # overflow; SampledPath then rejects the non-finite samples
        with np.errstate(over="ignore", invalid="ignore"):
            y, yp = _clamped_spline(knots, values, grid.nodes)
        return (f"spline-{i}", _normalized(grid, y, yp))


def _clamped_spline(knots: np.ndarray, values: np.ndarray, xs: np.ndarray) -> tuple:
    """Value and first derivative at xs of the clamped cubic spline.

    The spline interpolates (knots, values) with zero end slopes. Its node
    slopes solve the tridiagonal system of C. de Boor, *A Practical Guide to
    Splines* (1978), ch. IV, by LAPACK dgtsv's elimination with partial
    pivoting, and its Hermite pieces are summed from low to high power. Each
    operation and its order are those of the usual clamped CubicSpline and
    its piecewise-polynomial evaluation, so the results equal its bits.
    """
    dx = np.diff(knots)
    slope = np.diff(values) / dx
    m = len(knots)
    # rows 0 and m-1 pin the end slopes; row i couples slopes i-1, i, i+1
    dl = [*dx[1:].tolist(), 0.0]
    d = [1.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 1.0]
    du = [0.0, *dx[:-1].tolist()]
    b = [0.0, *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(), 0.0]
    for i in range(m - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            # swap rows i and i+1; dl[i] then holds the second superdiagonal
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < m - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    s = [0.0] * m
    s[-1] = b[-1] / d[-1]
    s[-2] = (b[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(m - 3, -1, -1):
        s[i] = (b[i] - du[i] * s[i + 1] - dl[i] * s[i + 2]) / d[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c3, c2, c1 = t / dx, (slope - s[:-1]) / dx - t, s[:-1]
    # xs is sorted, so each piece is a slice; the end pieces also take the
    # points beyond the end knots
    bounds = [0, *np.searchsorted(xs, knots[1:-1], side="left").tolist(), len(xs)]
    value = np.empty_like(xs)
    derivative = np.empty_like(xs)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        h = xs[lo:hi] - knots[i]
        h2 = h * h
        value[lo:hi] = values[i] + c1[i] * h + c2[i] * h2 + c3[i] * (h2 * h)
        derivative[lo:hi] = c1[i] + c2[i] * h * 2.0 + c3[i] * h2 * 3.0
    return value, derivative


def _snapped_knots(grid: Grid, interior: int) -> np.ndarray:
    """Knot abscissae aligned with quadrature cell boundaries when possible.

    The composite rule on the grid treats node pairs as cells; placing the
    spline's curvature breaks on cell boundaries keeps the integrand
    piecewise smooth inside every cell, so functional differences at small
    amplitudes are not polluted by the breaks.
    """
    cells = grid.n // 2
    if cells >= interior + 1:
        idx = np.rint(np.linspace(0, cells, interior + 2)).astype(int)
        if len(np.unique(idx)) == interior + 2:
            return grid.nodes[2 * idx]
    return np.linspace(grid.a, grid.b, interior + 2)


def _normalized(grid: Grid, y: np.ndarray, yp: np.ndarray) -> SampledPath:
    y = np.asarray(y, dtype=float).copy()
    yp = np.asarray(yp, dtype=float)
    y[0] = 0.0
    y[-1] = 0.0
    scale = max(float(np.max(np.abs(y))), float(np.max(np.abs(yp))))
    if scale == 0.0:
        raise ValueError("perturbation is identically zero")
    return SampledPath(grid, y / scale, yp / scale)


@dataclass(frozen=True)
class PerturbationCheck:
    label: str
    threshold: Optional[float]
    margins: tuple


@dataclass(frozen=True)
class EmpiricalReport:
    abs_tol: float
    base_value: float
    checks: tuple
    passed: bool


def empirical_verify(f: Integrand, y0: Extremal, cert: Certificate,
                     fam: PerturbationFamily, grid: Grid) -> EmpiricalReport:
    """Probe the certified quadratic lower bound with concrete perturbations.

    For each direction and each ladder rung epsilon, checks
    gap(y0 + eps eta) >= c * h1_norm_sq(eps eta) - abs_tol and records, per
    direction, the largest rung from which every smaller rung passes, with
    abs_tol = 1e-10 (1 + |value of the base path|). Violations are report
    content, not exceptions.

    Every pass evaluates f on the same nodes, so the parts of f in x alone
    (``f.x_parts``) are computed once per call and read by each pass. If
    computing them fails, every pass computes all of f, so the error raised
    is the one a plain pass raises. Directions are built one at a time.
    """
    if cert.quad_coefficient is None:
        raise ValueError("certificate carries no quadratic coefficient")
    ensure_same_interval(y0, grid)
    coefficient = cert.quad_coefficient
    xs = grid.nodes
    base_y, base_yp = Program((y0.y0, y0.y0p))({"x": xs})
    base = SampledPath(grid, base_y, base_yp)
    x_values = _x_part_values(f, xs)
    base_value = functional_value(f, base, x_values)
    abs_tol = 1e-10 * (1.0 + abs(base_value))
    checks = []
    passed = True
    for label, eta in fam.paths(grid):
        eta_norm_sq = h1_norm_sq(eta)
        margins = []
        holds = []
        for eps in fam.ladder:
            bumped = SampledPath(grid, base.y + eps * eta.y, base.yp + eps * eta.yp)
            gap = functional_value(f, bumped, x_values) - base_value
            required = coefficient * eps * eps * eta_norm_sq
            margins.append(gap - required)
            holds.append(gap >= required - abs_tol)
        threshold = _validated_threshold(fam.ladder, holds)
        if threshold is None:
            passed = False
        checks.append(PerturbationCheck(label, threshold, tuple(margins)))
    return EmpiricalReport(abs_tol, base_value, tuple(checks), passed)


def _x_part_values(f: Integrand, xs: np.ndarray) -> Optional[tuple]:
    """f.x_parts on the nodes xs; None if there are none or one fails there."""
    if not f.x_parts:
        return None
    try:
        return Program(f.x_parts)({"x": xs})
    except EvalDomainError:
        return None


def _validated_threshold(ladder: tuple, holds: list) -> Optional[float]:
    threshold = None
    for i in range(len(ladder) - 1, -1, -1):
        if not holds[i]:
            break
        threshold = ladder[i]
    return threshold
