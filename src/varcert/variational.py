"""Integrand and candidate-path abstractions for one-dimensional functionals.

Everything the certification pipeline needs from an integrand f(x, y, z),
with z standing for the slope y', is derived symbolically here: the
Euler-Lagrange residual, the pointwise coefficients p(x) = f_zz and
q(x) = f_yy - d/dx f_yz along a candidate path, and the change of variables
that recenters a problem on an arbitrary twice-differentiable path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
import numpy as np

from .calculus import Grid
from .expr import (
    ZERO,
    Expr,
    Program,
    _postorder,
    chunked,
    diff,
    free_vars,
    parse,
    substitute,
    var,
)


class LegendreError(ValueError):
    """The leading slope-squared coefficient is not strictly positive where required."""


@dataclass(frozen=True)
class Integrand:
    """Wraps f(x, y, z); every partial derivative is derived from f on demand."""

    f: Expr

    def __post_init__(self):
        if not isinstance(self.f, Expr):
            raise TypeError("integrand must wrap an Expr")

    @classmethod
    def from_text(cls, text: str) -> "Integrand":
        return cls(parse(text))

    @property
    def f_y(self) -> Expr:
        return diff(self.f, "y")

    @property
    def f_z(self) -> Expr:
        return diff(self.f, "z")

    @property
    def f_yy(self) -> Expr:
        return diff(self.f_y, "y")

    @property
    def f_yz(self) -> Expr:
        return diff(self.f_y, "z")

    @property
    def f_zz(self) -> Expr:
        return diff(self.f_z, "z")

    @property
    def f_xz(self) -> Expr:
        return diff(self.f_z, "x")

    @property
    def f_xyz(self) -> Expr:
        return diff(self.f_yz, "x")

    @property
    def f_yyz(self) -> Expr:
        return diff(self.f_yz, "y")

    @property
    def f_yzz(self) -> Expr:
        return diff(self.f_yz, "z")

    @cached_property
    def value_program(self) -> Program:
        """f itself, for functional values."""
        return Program((self.f,))

    @cached_property
    def x_parts(self) -> tuple:
        """f's largest subexpressions in x alone, other than leaves.

        They do not change when the path does, so passes along several paths
        on one grid can compute them once and hand them to
        ``x_parts_program``.
        """
        nodes = _postorder(self.f, leaf=lambda node: free_vars(node) == {"x"})
        return tuple(node for node in nodes if node.args and free_vars(node) == {"x"})

    @cached_property
    def x_parts_program(self) -> Program:
        """f, reading the values of ``x_parts`` from the environment."""
        return Program((self.f,), given=self.x_parts)

    @cached_property
    def certify_program(self) -> Program:
        """The partials of the residual, then the rest of p and q.

        Roots: f_y, f_xz, f_yz, f_zz for the Euler-Lagrange residual, then
        f_yy, f_xyz, f_yyz, f_yzz; the last five are ``profile_program``'s
        roots, and p is f_zz itself.
        """
        return Program((self.f_y, self.f_xz, self.f_yz, self.f_zz,
                        self.f_yy, self.f_xyz, self.f_yyz, self.f_yzz))

    @cached_property
    def profile_program(self) -> Program:
        """The partials of p and q alone: f_zz, f_yy, f_xyz, f_yyz, f_yzz."""
        return Program((self.f_zz, self.f_yy, self.f_xyz, self.f_yyz, self.f_yzz))


@dataclass(frozen=True)
class Extremal:
    """Candidate path y0(x) on [a, b] with exact symbolic derivatives."""

    y0: Expr
    a: float
    b: float

    def __post_init__(self):
        if not isinstance(self.y0, Expr):
            raise TypeError("candidate path must be an Expr")
        if free_vars(self.y0) - {"x"}:
            raise ValueError("candidate path must be a function of x alone")
        a = float(self.a)
        b = float(self.b)
        if not a < b:
            raise ValueError("requires a < b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def zero(cls, a: float, b: float) -> "Extremal":
        return cls(ZERO, a, b)

    @classmethod
    def from_text(cls, text: str, a: float, b: float) -> "Extremal":
        return cls(parse(text), a, b)

    @property
    def y0p(self) -> Expr:
        return diff(self.y0, "x")

    @property
    def y0pp(self) -> Expr:
        return diff(self.y0p, "x")

    @cached_property
    def program(self) -> Program:
        """The path and its first two derivatives."""
        return Program((self.y0, self.y0p, self.y0pp))


def ensure_same_interval(y0: Extremal, grid: Grid) -> None:
    if grid.a != y0.a or grid.b != y0.b:
        raise ValueError("grid interval must match the candidate path interval")


def coefficient_samples(f: Integrand, y0: Extremal, xs) -> tuple:
    """Sample p and q along the candidate path at arbitrary abscissae.

    The total derivative d/dx f_yz is expanded by the exact chain rule
    (f_xyz + f_yyz y0' + f_yzz y0''), never by numerical differentiation.
    """
    return chunked(partial(_coefficients, f, y0), np.asarray(xs, dtype=float))


def _coefficients(f: Integrand, y0: Extremal, xs: np.ndarray) -> tuple:
    yv, ypv, yppv = y0.program({"x": xs})
    # the partials are finite, but q may overflow; solve_accessory judges that
    with np.errstate(over="ignore", invalid="ignore"):
        return _p_and_q(f.profile_program({"x": xs, "y": yv, "z": ypv}), ypv, yppv)


def _p_and_q(partials, ypv, yppv) -> tuple:
    """p and q from the samples of f_zz, f_yy, f_xyz, f_yyz, f_yzz."""
    p, f_yy, f_xyz, f_yyz, f_yzz = partials
    return p, f_yy - f_xyz - f_yyz * ypv - f_yzz * yppv


def certify_samples(f: Integrand, y0: Extremal, xs) -> tuple:
    """The Euler-Lagrange residual f_y - (f_xz + f_yz y0' + f_zz y0''), p and q.

    One pass at arbitrary abscissae, chunked like ``coefficient_samples``:
    per chunk the path is sampled once and ``f.certify_program`` runs once.
    Its residual roots come first, so an evaluation error is the one that
    the residual followed by p and q, each sampled on its own, would raise.
    """
    return chunked(partial(_certify_chunk, f, y0), np.asarray(xs, dtype=float))


def _certify_chunk(f: Integrand, y0: Extremal, xs: np.ndarray) -> tuple:
    yv, ypv, yppv = y0.program({"x": xs})
    partials = f.certify_program({"x": xs, "y": yv, "z": ypv})
    f_y, f_xz, f_yz, f_zz = partials[:4]
    # the partials are finite, but the residual and q may overflow; a nan
    # residual fails stationarity in classify
    with np.errstate(over="ignore", invalid="ignore"):
        return (f_y - f_xz - f_yz * ypv - f_zz * yppv, *_p_and_q(partials[3:], ypv, yppv))


def shift(f: Integrand, y0: Extremal) -> Integrand:
    """Recenter: returns g with g(x, y, z) = f(x, y + y0(x), z + y0'(x)).

    The zero path of g plays the role y0 played for f; residuals and
    coefficient profiles transported this way agree node-wise.
    """
    mapping = {
        "y": Expr("add", (var("y"), y0.y0)),
        "z": Expr("add", (var("z"), y0.y0p)),
    }
    return Integrand(substitute(f.f, mapping))
