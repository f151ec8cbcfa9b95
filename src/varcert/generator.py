"""Inverse-problem construction: integrands built to attain a minimum.

Given free ingredient functions, assembles an integrand of the form

    f = P(x,y) + (C + A(x) + [qfun(x,y) - qfun(x,0)]) z
        + (1/2) (pfun(x) + [rho(x,y,z) - rho(x,0,0)]) z^2

with A(x) the antiderivative of d/dy P(x, y) at y = 0 vanishing at a. By
construction the zero path satisfies the Euler-Lagrange equation exactly and
the leading slope-squared coefficient along it equals pfun. A nonzero
designated path is handled by substituting y -> y - y0(x), z -> z - y0'(x)
into the zero-path template. Doubles as the property-test corpus factory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .calculus import Grid, _integer
from .certify import MINIMUM_KINDS, VerdictKind, certify, length_bound
from .expr import (
    ONE,
    X,
    Y,
    ZERO,
    _ZEROS,
    EvalDomainError,
    Expr,
    Program,
    _postorder,
    const,
    diff,
    evaluate,
    free_vars,
    parse,
    simplify,
    substitute,
    var,
)
from .variational import Extremal, Integrand, LegendreError

_FIT_DEGREES = (4, 6, 8, 10, 12, 14, 16, 20, 24)
_FIT_TARGET = 1e-10
_FIT_ACCEPT = 1e-8
_MAX_POLY_TERMS = 64


class GeneratorError(RuntimeError):
    """Construction failed (typically: the antiderivative fit did not converge)."""


def _require_scope(e: Expr, allowed: frozenset, label: str) -> None:
    if not isinstance(e, Expr):
        raise TypeError(f"{label} must be an Expr")
    extra = free_vars(e) - allowed
    if extra:
        raise ValueError(f"{label} may only use {sorted(allowed)}; found {sorted(extra)}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Ingredients for the minimum-by-construction integrand family.

    P: zeroth-order term, an expression in (x, y).
    qfun: shapes the linear-in-slope coefficient through its y-variation.
    pfun: strictly positive leading slope-squared coefficient, in x alone.
    rho: extra slope dependence beyond the leading quadratic term.
    C: constant added to the linear-in-slope coefficient; on fixed-boundary
       competitors its contribution integrates to a constant.
    y0: optional designated path; absent means the zero path.
    """

    P: Expr = ZERO
    qfun: Expr = ZERO
    pfun: Expr = ONE
    rho: Expr = ZERO
    C: float = 0.0
    a: float = 0.0
    b: float = 1.0
    y0: Optional[Extremal] = None

    def __post_init__(self):
        _require_scope(self.P, frozenset({"x", "y"}), "P")
        _require_scope(self.qfun, frozenset({"x", "y"}), "qfun")
        _require_scope(self.pfun, frozenset({"x"}), "pfun")
        _require_scope(self.rho, frozenset({"x", "y", "z"}), "rho")
        object.__setattr__(self, "C", float(self.C))
        if not math.isfinite(self.C):
            raise ValueError("C must be a finite number")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not self.a < self.b:
            raise ValueError("requires a < b")
        if self.y0 is not None:
            if not isinstance(self.y0, Extremal):
                raise TypeError("y0 must be an Extremal")
            if self.y0.a != self.a or self.y0.b != self.b:
                raise ValueError("designated path interval must match (a, b)")


@dataclass(frozen=True)
class BuildInfo:
    """How the antiderivative A(x) was materialized."""

    a_path: str  # "symbolic", or "table" for the Chebyshev fit
    fit_degree: Optional[int] = None
    fit_error: Optional[float] = None


# ---------------------------------------------------------------------------
# closed-form antiderivatives (capability table)

_POLY_OPS = frozenset({"const", "var", "add", "sub", "mul", "neg", "pow"})


def _poly_coefficients(e: Expr) -> Optional[list]:
    """Power-basis coefficients via repeated exact differentiation at x = 0;
    None past _MAX_POLY_TERMS of them."""
    chain = [simplify(e)]
    while chain[-1] not in _ZEROS and len(chain) <= _MAX_POLY_TERMS:
        chain.append(diff(chain[-1], "x"))
    values = Program(chain[:-1])({"x": 0.0})
    if len(chain) > _MAX_POLY_TERMS:
        return None
    coefficients = []
    factorial = 1.0
    for k, value in enumerate(values):
        coefficients.append(float(value) / factorial)
        factorial *= k + 1.0
    return coefficients


def _horner(coefficients: list, variable: Expr) -> Expr:
    acc = const(float(coefficients[-1]))
    for c in reversed(coefficients[:-1]):
        acc = Expr("add", (const(float(c)), Expr("mul", (variable, acc))))
    return acc


def _affine_slope(e: Expr) -> Optional[float]:
    d = diff(e, "x")
    if d.op == "const":
        return d.value
    return None


def _oscillator_slope(e: Expr) -> Optional[float]:
    if e.op in ("sin", "cos", "exp"):
        slope = _affine_slope(e.args[0])
        if slope is not None and slope != 0.0:
            return slope
    return None


def antiderivative(e: Expr) -> Optional[Expr]:
    """A closed-form antiderivative in x, or None when outside the table.

    Covered: polynomials; sin, cos, exp of affine arguments; integer powers
    of affine arguments; products of a polynomial with one of the above
    oscillators (by repeated integration by parts); linear combinations and
    constant multiples of covered forms.
    """
    e = simplify(e)
    if free_vars(e) - {"x"}:
        return None
    # polynomial in x: only +, -, *, neg, nonnegative integer powers
    polynomial = {}
    for node in _postorder(e):
        polynomial[node] = (node.op in _POLY_OPS and (node.op != "pow" or node.value >= 0)
                            and all(map(polynomial.get, node.args)))
    anti = {}
    expansions = {}
    # the walk enters a node only when its rule waits for its children
    for node in _postorder(e, leaf=lambda n: _anti(n, anti, polynomial, expansions)):
        if node not in anti:
            _anti(node, anti, polynomial, expansions)
    return anti[e]


def _anti(e: Expr, anti: dict, polynomial: dict, expansions: dict) -> bool:
    """Put e's antiderivative, or None outside the table, in ``anti`` and
    return True; return False instead while the children's antiderivatives
    that e's is built from are not all there. Those are the children of
    neg, add and sub, and the non-constant side of a mul by a constant or
    of a div by one. ``expansions`` keeps each polynomial node's
    ``_poly_coefficients``, since a node that waits is asked again.
    """
    if not free_vars(e):
        anti[e] = simplify(Expr("mul", (e, X)))
        return True
    if polynomial[e]:
        if e not in expansions:
            expansions[e] = _poly_coefficients(e)
        coefficients = expansions[e]
        if coefficients is not None:
            shifted = [c / (k + 1.0) for k, c in enumerate(coefficients)]
            anti[e] = simplify(Expr("mul", (X, _horner(shifted, X))))
            return True
    op = e.op
    left, right = e.args[0], e.args[-1]
    out = None
    if op in ("neg", "add", "sub"):
        if not all(child in anti for child in e.args):
            return False
        parts = tuple(anti[child] for child in e.args)
        if None not in parts:
            out = Expr(op, parts)
    elif op == "mul" and not free_vars(left) or op in ("mul", "div") and not free_vars(right):
        constant, varying = (left, right) if not free_vars(left) else (right, left)
        if varying not in anti:
            return False
        inner = anti[varying]
        if inner is not None:
            out = Expr(op, (inner, constant) if op == "div" else (constant, inner))
    elif op == "mul":
        if polynomial[left] and _oscillator_slope(right) is not None:
            out = _anti_product(left, right)
        elif polynomial[right] and _oscillator_slope(left) is not None:
            out = _anti_product(right, left)
    elif op in ("sin", "cos", "exp"):
        if _oscillator_slope(e) is not None:
            out = _anti_oscillator(e)
    elif op == "pow":
        n = e.value
        slope = _affine_slope(left)
        if not (slope is None or slope == 0.0 or n == -1):
            out = simplify(Expr("div", (Expr("pow", (left,), n + 1), const(slope * (n + 1)))))
    anti[e] = out
    return True


def _anti_oscillator(e: Expr) -> Expr:
    # sin, cos or exp of an affine argument of nonzero slope
    slope = _oscillator_slope(e)
    if e.op == "sin":
        return simplify(Expr("div", (Expr("neg", (Expr("cos", e.args),)), const(slope))))
    if e.op == "cos":
        return simplify(Expr("div", (Expr("sin", e.args), const(slope))))
    return simplify(Expr("div", (e, const(slope))))


def _anti_product(poly: Expr, oscillator: Expr) -> Optional[Expr]:
    # integral of p g = p G1 - p' G2 + p'' G3 - ... where G_{k+1} integrates G_k;
    # each G_k is neg and divide-by-constant wrappers around a sin, cos or
    # exp of g's argument, and G_{k+1} is the same wrappers around that
    # oscillator's antiderivative; the polynomial dies off
    result = None
    current = simplify(poly)
    chain = oscillator
    positive = True
    for _ in range(_MAX_POLY_TERMS):
        wrappers = []
        while chain.op in ("neg", "div"):
            wrappers.append(chain)
            chain = chain.args[0]
        chain = _anti_oscillator(chain)
        for wrapper in reversed(wrappers):
            chain = Expr(wrapper.op, (chain,) + wrapper.args[1:])
        term = Expr("mul", (current, chain))
        if result is None:
            result = term
        else:
            result = Expr("add" if positive else "sub", (result, term))
        current = diff(current, "x")
        if current in _ZEROS:
            return simplify(result)
        positive = not positive
    return None


# ---------------------------------------------------------------------------
# materialization


def _materialize(rate: Expr, a: float, b: float) -> tuple:
    closed = antiderivative(rate)
    if closed is not None:
        at_a = float(evaluate(closed, {"x": a}))
        return simplify(Expr("sub", (closed, const(at_a)))), BuildInfo("symbolic")
    return _fit_antiderivative(rate, a, b)


def _fit_antiderivative(rate: Expr, a: float, b: float) -> tuple:
    program = Program((rate,))  # one compile for every fit degree

    def rate_samples(xs):
        return program({"x": np.asarray(xs, dtype=float)})[0]

    dense = np.linspace(a, b, 4097)
    rate_dense = rate_samples(dense)
    scale = 1.0 + float(np.max(np.abs(rate_dense)))
    best_expr = None
    best_resid = math.inf
    best_degree = None
    for degree in _FIT_DEGREES:
        candidate = _poly_antiderivative_expr(rate_samples, degree, a, b)
        resid_samples = evaluate(diff(candidate, "x"), {"x": dense})
        resid = float(np.max(np.abs(resid_samples - rate_dense)))
        if resid < best_resid:
            best_expr = candidate
            best_resid = resid
            best_degree = degree
        if resid <= _FIT_TARGET * scale:
            break
    if best_resid > _FIT_ACCEPT * scale:
        raise GeneratorError(
            "no closed-form antiderivative and polynomial fitting stalled "
            f"(best derivative residual {best_resid:.3e})"
        )
    return best_expr, BuildInfo("table", fit_degree=best_degree, fit_error=best_resid)


def _poly_antiderivative_expr(rate_samples, degree: int, a: float, b: float) -> Expr:
    """Exact antiderivative of a Chebyshev fit, expressed in the window variable."""
    # a rate near the float limit overflows here; the non-finite
    # coefficients then fail evaluation with one domain error
    with np.errstate(over="ignore", invalid="ignore"):
        series = npcheb.Chebyshev.interpolate(rate_samples, degree, domain=[a, b])
        power = npcheb.cheb2poly(series.coef)
    anti = [c / (k + 1.0) for k, c in enumerate(power)]
    u_expr = simplify(Expr("div", (
        Expr("sub", (Expr("mul", (const(2.0), X)), const(a + b))),
        const(b - a),
    )))
    poly_u = Expr("mul", (u_expr, _horner(anti, u_expr)))
    at_a = float(evaluate(poly_u, {"x": a}))
    return simplify(Expr("mul", (
        const(0.5 * (b - a)),
        Expr("sub", (poly_u, const(at_a))),
    )))


def _check_positive(pfun: Expr, a: float, b: float) -> None:
    grid = Grid(a, b, 512)
    xs = np.concatenate([grid.nodes, grid.midpoints])
    values = evaluate(pfun, {"x": xs})
    if values.min() <= 0.0:
        raise LegendreError("pfun must be strictly positive on [a, b]")


# ---------------------------------------------------------------------------
# builder


def build(spec: GeneratorSpec) -> tuple:
    """(Integrand, BuildInfo) whose designated path is an exact extremal.

    The zero-path template is assembled first; a designated path y0 then
    recentres it by substituting y -> y - y0(x), z -> z - y0'(x).
    """
    _check_positive(spec.pfun, spec.a, spec.b)
    rate = substitute(diff(spec.P, "y"), {"y": ZERO})
    A, info = _materialize(rate, spec.a, spec.b)
    # the template is simplified once, at its root: simplify works bottom-up,
    # so its parts need no simplify of their own
    q_bracket = Expr("sub", (spec.qfun, substitute(spec.qfun, {"y": ZERO})))
    rho_bracket = Expr("sub", (spec.rho, substitute(spec.rho, {"y": ZERO, "z": ZERO})))
    linear = Expr("add", (Expr("add", (const(spec.C), A)), q_bracket))
    quadratic = Expr("add", (spec.pfun, rho_bracket))
    z = var("z")
    f = simplify(Expr("add", (
        Expr("add", (spec.P, Expr("mul", (linear, z)))),
        Expr("mul", (
            Expr("mul", (const(0.5), quadratic)),
            Expr("pow", (z,), 2),
        )),
    )))
    if spec.y0 is not None:
        mapping = {
            "y": Expr("sub", (Y, spec.y0.y0)),
            "z": Expr("sub", (z, spec.y0.y0p)),
        }
        f = substitute(f, mapping)
    return Integrand(f), info


# ---------------------------------------------------------------------------
# corpus

_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_QUADRATIC_COUNT = 6  # leading monomials of total degree <= 2
_QFUN_CHOICES = tuple(map(parse, ("0", "x*y", "sin(x)*y")))
_PFUN_CHOICES = tuple(map(parse, ("1", "2+sin(x)", "1+x^2")))
_RHO_CHOICES = tuple(map(parse, ("0", "y*z", "0.1*sin(y)*z")))
_C_CHOICES = (-1.0, 0.0, 1.0)

_SCREEN_N = 256
_MAX_ATTEMPTS = 64
# reject near-threshold instances so grid refinement cannot flip the verdict
_LENGTH_SAFETY = 1e-7
# the early screen rejects a draw only when the interval is longer than
# (1 + _EARLY_MARGIN) times its length bound; its p and q agree with the
# full screen's to rounding, far inside this margin, so every draw it
# rejects the full screen rejects too
_EARLY_MARGIN = 1e-3


def _random_polynomial(rng: np.random.Generator, monomials: tuple) -> Expr:
    total = None
    for (i, j), c in zip(monomials, rng.uniform(-2.0, 2.0, len(monomials))):
        term = const(float(c))
        if i:
            term = Expr("mul", (term, X if i == 1 else Expr("pow", (X,), int(i))))
        if j:
            term = Expr("mul", (term, Y if j == 1 else Expr("pow", (Y,), int(j))))
        total = term if total is None else Expr("add", (total, term))
    return total


def sample_corpus(seed: int, count: int, a: float, b: float) -> list:
    """Deterministic list of (spec, integrand, extremal) triples.

    Ingredients are drawn from documented finite families; candidates whose
    certificate is not a minimum on [a, b] (or sits too close to the length
    threshold) are rejected and redrawn, so every returned instance certifies.

    Each draw first meets an early screen that builds nothing: it reads p and
    q off the construction (``_construction_p_and_q``) and rejects the draw
    when b - a exceeds (1 + ``_EARLY_MARGIN``) times the length bound. Every
    other draw, including one whose samples fail or are not both a positive
    p and a negative q, is built and certified as before. An early reject
    counts as an attempt, and ``build`` draws nothing from the rng, so the
    returned triples are those the full screen alone selects.
    """
    count, seed = _integer("count", count), _integer("seed", seed)
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    screen_grid = Grid(a, b, _SCREEN_N)
    paths = (None, Extremal.from_text("sin(x)", a, b), Extremal.from_text(f"x*({b!r}-x)", a, b))
    zero = Extremal.zero(a, b)
    out = []
    for index in range(count):
        rng = np.random.default_rng((seed, index))
        for _ in range(_MAX_ATTEMPTS):
            candidate = _draw(rng, a, b, paths)
            if _fails_length_early(candidate, screen_grid):
                continue
            integrand, _ = build(candidate)
            extremal = candidate.y0 if candidate.y0 is not None else zero
            cert = certify(integrand, extremal, screen_grid)
            if cert.verdict.kind not in MINIMUM_KINDS:
                continue
            if cert.verdict.kind is VerdictKind.MINIMUM_UNDER_LENGTH:
                slack = cert.verdict.length_bound - screen_grid.length
                if slack <= _LENGTH_SAFETY * screen_grid.length:
                    continue
            out.append((candidate, integrand, extremal))
            break
        else:
            raise GeneratorError(f"no acceptable draw for corpus index {index}")
    return out


def _construction_p_and_q(spec: GeneratorSpec, xs: np.ndarray) -> tuple:
    """p and q along the designated path at xs, without building f.

    By construction p = pfun and q = P_yy(x, 0) - qfun_xy(x, 0) there, for
    the zero-path template and for its recentring alike. Raises
    EvalDomainError when a sample fails or is not finite.
    """
    q = Expr("sub", (diff(diff(spec.P, "y"), "y"), diff(diff(spec.qfun, "y"), "x")))
    return Program((spec.pfun, q))({"x": xs, "y": 0.0})


def _fails_length_early(spec: GeneratorSpec, grid: Grid) -> bool:
    """True when the construction's p and q fail the length test on the grid
    by more than ``_EARLY_MARGIN``; False whenever the full screen must decide."""
    try:
        p, q = _construction_p_and_q(spec, grid.nodes)
    except EvalDomainError:
        return False
    p_min = float(p.min())
    q_min = float(q.min())
    if not (p_min > 0.0 and q_min < 0.0):
        return False
    return grid.length > (1.0 + _EARLY_MARGIN) * length_bound(p_min, q_min)


def _draw(rng: np.random.Generator, a: float, b: float, paths: tuple) -> GeneratorSpec:
    # half the draws stay quadratic so the corpus exercises the regime where
    # the functional equals its second-order model exactly
    monomials = _MONOMIALS if rng.integers(0, 2) else _MONOMIALS[:_QUADRATIC_COUNT]
    P = _random_polynomial(rng, monomials)
    qfun = _QFUN_CHOICES[rng.integers(0, len(_QFUN_CHOICES))]
    pfun = _PFUN_CHOICES[rng.integers(0, len(_PFUN_CHOICES))]
    rho = _RHO_CHOICES[rng.integers(0, len(_RHO_CHOICES))]
    C = _C_CHOICES[rng.integers(0, len(_C_CHOICES))]
    y0 = paths[rng.integers(0, len(paths))]
    return GeneratorSpec(P=P, qfun=qfun, pfun=pfun, rho=rho, C=C, a=a, b=b, y0=y0)
