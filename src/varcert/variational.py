"""Integrand and candidate-path abstractions for one-dimensional functionals.

Everything the certification pipeline needs from an integrand f(x, y, z),
with z standing for the slope y', is derived symbolically here: the
Euler-Lagrange residual, the pointwise coefficients p(x) = f_zz and
q(x) = f_yy - d/dx f_yz along a candidate path, from one program in x of
f's partials composed with y -> y0(x), z -> y0'(x) and d/dx = ∂x + y0'∂y +
y0''∂z, and the recentering of a problem on any twice-differentiable path.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .calculus import Grid
from .expr import (
    ZERO,
    Y,
    Z,
    Expr,
    Program,
    _postorder,
    assemble,
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
    as the roots of ``_along``'s program: each is checked finite, and an
    evaluation error is the one that walking y0, r, p and q in turn raises.
    y0, the first root, is checked and dropped, never assembled."""
    return _assembled(_along(f, y0, True), xs)


def coefficient_samples(f: Integrand, y0: Extremal, xs) -> tuple:
    """p and q along the path, as ``certify_samples`` gives them, without r."""
    return _assembled(_along(f, y0, False), xs)


def _assembled(program: Program, xs) -> tuple:
    xs = np.asarray(xs, dtype=float)
    return assemble(((part, values[1:]) for part, values in program.chunks({"x": xs})), xs)


def certify_extrema(f: Integrand, y0: Extremal, xs) -> tuple:
    """max |r|, min p and min q along the path, folded slice by slice.

    The slices are those of ``certify_samples``' program, with its checks
    and its errors, and the three floats equal the reductions over the
    arrays it assembles, bit for bit, save the sign of a zero minimum,
    which numpy leaves open: here -0.0 counts as below +0.0, so a zero
    minimum is -0.0 exactly when some point holds -0.0. Each slice is
    reduced where it lies, and a root that does not depend on x, such as
    a constant, is reduced as the float it is and never filled.
    """
    r_max, p_min, q_min = 0.0, math.inf, math.inf
    # after a failed slice the whole points may come again, complete: max
    # and min are the same whether a point is seen once or twice
    for _, (_, r, p, q) in _along(f, y0, True).chunks({"x": np.asarray(xs, dtype=float)}):
        r_max = max(r_max, _magnitude(r))
        p_min = _below(p_min, p)
        q_min = _below(q_min, q)
    return r_max, p_min, q_min


def _magnitude(values) -> float:
    # max |values|, without the temporary of np.abs: a zero comes out +0.0
    if isinstance(values, np.ndarray):
        return float(max(values.max(), -values.min())) + 0.0
    return abs(float(values))


def _below(low: float, values) -> float:
    # the lesser of low and min(values), -0.0 counting as below +0.0; when
    # an array's min is zero, it has no negative value, so a set sign bit
    # is a -0.0
    if isinstance(values, np.ndarray):
        least = float(values.min())
        if least == 0.0 and np.signbit(values).any():
            least = -0.0
    else:
        least = float(values)
    return least if least < low or least == low and math.copysign(1.0, least) < 0 else low


# _along's programs by integrand node, path and root set, both held weakly. A
# path is keyed by its Extremal, which an equal re-parsed path finds, not by
# its node: the node is a root of the program, which keeps it alive, so an
# entry keyed on it would never die
_ALONG = weakref.WeakKeyDictionary()


def _along(f: Integrand, y0: Extremal, residual: bool) -> Program:
    """The program in x of y0, then r if ``residual``, p and q, from f's
    partials with y -> y0(x) and z -> y0'(x) composed node for node in one
    walk, so each term evaluates as it does with y and z bound to the path's
    samples. r and q are g - d/dx h = ((g - h_x) - h_y y0') - h_z y0'', the
    chain rule d/dx = ∂x + y0'∂y + y0''∂z written as nodes: y0' and y0'' are
    not roots, but a non-finite one makes r or q non-finite.

    One fold is made: A - A is the constant 0.0 when A is y0, y0' or y0'',
    as in the y - y0(x) and z - y0'(x) of a problem recentred on its path.
    y0 is the first root, so it is checked finite before any partial's node
    runs, and wherever the program completes y0' and y0'' are finite too; so
    there A - A is +0.0 at every point, and every kernel gives the same bits
    for a float +0.0 as for an array of them. Every other node is built
    unfolded.
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
        *r_terms, p, f_yy, f_xyz, f_yyz, f_yzz = map(composed.get, partials)
        # r from (f_y, f_xz, f_yz, f_zz) and q from (f_yy, f_xyz, f_yyz, f_yzz),
        # each as g - d/dx h from (g, h_x, h_y, h_z)
        chains = [(*r_terms, p)] if residual else []
        r_and_q = [Expr("sub", (Expr("sub", (Expr("sub", (g, h_x)), Expr("mul", (h_y, path[1])))),
                                Expr("mul", (h_z, path[2]))))
                   for g, h_x, h_y, h_z in chains + [(f_yy, f_xyz, f_yyz, f_yzz)]]
        programs[residual] = Program((y0.y0, *r_and_q[:-1], p, r_and_q[-1]))
    return programs[residual]


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
