"""Integrand and candidate-path abstractions for one-dimensional functionals.

Everything the certification pipeline needs from an integrand f(x, y, z),
with z standing for the slope y', is derived symbolically here: the
Euler-Lagrange residual, the pointwise coefficients p(x) = f_zz and
q(x) = f_yy - d/dx f_yz along a candidate path, from one program in x of
f's partials composed with y -> y0(x), z -> y0'(x) and d/dx = ∂x + y0'∂y +
y0''∂z, and the recentering of a problem on any twice-differentiable path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, partial
import numpy as np

from .calculus import Grid
from .expr import (
    ZERO,
    Y,
    Z,
    Expr,
    Program,
    _postorder,
    chunked,
    diff,
    free_vars,
    parse,
    substitute,
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


def ensure_same_interval(y0: Extremal, grid: Grid) -> None:
    if grid.a != y0.a or grid.b != y0.b:
        raise ValueError("grid interval must match the candidate path interval")


def certify_samples(f: Integrand, y0: Extremal, xs) -> tuple:
    """The Euler-Lagrange residual r = f_y - d/dx f_z, p and q along the path,
    from one run of ``_along``'s program per chunk: an evaluation error is the
    one that sampling the path, then each partial in turn, would raise."""
    return chunked(partial(_combined, _along(f, y0, True)), np.asarray(xs, dtype=float))


def coefficient_samples(f: Integrand, y0: Extremal, xs) -> tuple:
    """p and q along the path, as ``certify_samples`` gives them, without r."""
    return chunked(partial(_combined, _along(f, y0, False)), np.asarray(xs, dtype=float))


# _along's programs by integrand node, path and root set, both held weakly. A
# path is keyed by its Extremal, which an equal re-parsed path finds, not by
# its node: the node is a root of the program, which keeps it alive, so an
# entry keyed on it would never die
_ALONG = weakref.WeakKeyDictionary()


def _along(f: Integrand, y0: Extremal, residual: bool) -> Program:
    """The program in x of y0, y0', y0'' and f's partials, r's if ``residual``,
    then p's and q's, with y -> y0(x) and z -> y0'(x) composed node for node
    in one walk, so each term evaluates as it does with y and z bound to the
    path's samples.

    One fold is made: A - A is the constant 0.0 when A is y0, y0' or y0'',
    as in the y - y0(x) and z - y0'(x) of a problem recentred on its path.
    The path's three roots run, and the root rule checks them finite, before
    any partial's node, so wherever the program completes A - A is +0.0 at
    every point; and every kernel gives the same bits, and raises the same
    error, for a float +0.0 as for an array of them. Every other node is
    built unfolded.
    """
    programs = _ALONG.setdefault(f.f, weakref.WeakKeyDictionary()).setdefault(y0, {})
    if residual not in programs:
        partials = (f.f_y, f.f_xz, f.f_yz) if residual else ()
        partials += (f.f_zz, f.f_yy, f.f_xyz, f.f_yyz, f.f_yzz)
        path = (y0.y0, y0.y0p, y0.y0pp)
        composed = {Y: y0.y0, Z: y0.y0p}
        for root in partials:
            for node in () if root in composed else _postorder(root, composed.__contains__):
                args = tuple(map(composed.get, node.args))
                if node.op == "sub" and args[0] is args[1] and args[0] in path:
                    composed[node] = ZERO
                else:
                    composed[node] = Expr(node.op, args, node.value)
        programs[residual] = Program((*path, *map(composed.get, partials)))
    return programs[residual]


def _combined(program: Program, xs: np.ndarray) -> tuple:
    # (r,) p and q from one chunk; r and q may overflow: a nan residual
    # fails stationarity in classify, and solve_accessory judges q. The run
    # is not assembled, so a root that is constant along the path stays a
    # float through the chain rule, and the caller's chunked fills each
    # result once
    _, ypv, yppv, *residual, p, f_yy, f_xyz, f_yyz, f_yzz = program._run({"x": xs})
    with np.errstate(over="ignore", invalid="ignore"):
        q = _less_derivative(f_yy, f_xyz, f_yyz, f_yzz, ypv, yppv)
        return (_less_derivative(*residual, p, ypv, yppv), p, q) if residual else (p, q)


def _less_derivative(g, h_x, h_y, h_z, ypv, yppv):
    # g - d/dx h along the path, from h's partials: d/dx = ∂x + y0'∂y + y0''∂z
    return g - h_x - h_y * ypv - h_z * yppv


def shift(f: Integrand, y0: Extremal) -> Integrand:
    """Recenter: returns g with g(x, y, z) = f(x, y + y0(x), z + y0'(x)).

    The zero path of g plays the role y0 played for f; residuals and
    coefficient profiles transported this way agree node-wise.
    """
    mapping = {
        "y": Expr("add", (Y, y0.y0)),
        "z": Expr("add", (Z, y0.y0p)),
    }
    return Integrand(substitute(f.f, mapping))
