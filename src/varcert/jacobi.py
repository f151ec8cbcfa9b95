"""Classical conjugate-point baseline via the accessory equation.

Integrates the first-order system U' = V / p(x), V' = q(x) U with
U(a) = 0, V(a) = p(a) (so U'(a) = 1) by classic fourth-order Runge-Kutta,
then locates the first zero of U in (a, b]. Used to cross-validate the
length criterion and to measure how conservative it is.

The system is linear, so each RK4 step is a 2x2 matrix M_i of p and q at
x_i, the cell midpoint and x_{i+1}. All n step matrices are built at once
and composed into the prefix products M_i ... M_0 by a Hillis-Steele scan
(W. D. Hillis and G. L. Steele, "Data parallel algorithms", CACM 1986):
ceil(log2 n) levels of elementwise 2x2 products, carried as M - I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .calculus import Grid
from .certify import length_bound
from .variational import (
    Extremal,
    Integrand,
    LegendreError,
    coefficient_samples,
    ensure_same_interval,
)

X_TOL = 1e-9


class AccessoryIntegrationError(RuntimeError):
    """The Runge-Kutta state became non-finite."""


@dataclass(frozen=True, eq=False)
class AccessorySolution:
    """U and V = p U' at the grid nodes, the node samples of p and q, and
    the first conjugate point if any."""

    grid: Grid
    U: np.ndarray
    V: np.ndarray
    p_of_x: np.ndarray
    q_of_x: np.ndarray
    conjugate_point: Optional[float]

    @property
    def Up(self) -> np.ndarray:
        return self.V / self.p_of_x


def solve_accessory(f: Integrand, y0: Extremal, grid: Grid) -> AccessorySolution:
    """March the (U, V) system across the grid; p and q are sampled once.

    Working in V = p U' avoids differentiating p(x) when f depends on x.
    p <= 0 at a node is reported before the midpoints are sampled.
    """
    ensure_same_interval(y0, grid)
    p_nodes, q_nodes = coefficient_samples(f, y0, grid.nodes)
    if p_nodes.min() <= 0.0:
        raise LegendreError("comparison requires a strictly positive leading coefficient")
    p_mids, q_mids = coefficient_samples(f, y0, grid.midpoints)
    if p_mids.min() <= 0.0:
        raise LegendreError("accessory equation requires f_zz > 0 along the path")
    # an overflowing march ends in AccessoryIntegrationError, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        U, V = _march(grid.h, p_nodes, q_nodes, p_mids, q_mids)
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise AccessoryIntegrationError("accessory integration produced non-finite values")
    solution = AccessorySolution(grid, U, V, p_nodes, q_nodes, None)
    return replace(solution, conjugate_point=first_conjugate_point(solution))


def _march(h: float, p_nodes: np.ndarray, q_nodes: np.ndarray,
           p_mids: np.ndarray, q_mids: np.ndarray) -> tuple:
    """U and V at every node from U(a) = 0, V(a) = p(a)."""
    p0, p1, q0, q1 = p_nodes[:-1], p_nodes[1:], q_nodes[:-1], q_nodes[1:]

    def increment(u, v):
        # the change of (u, v) over one RK4 step of U' = V / p, V' = q U
        k1u = v / p0
        k1v = q0 * u
        k2u = (v + 0.5 * h * k1v) / p_mids
        k2v = q_mids * (u + 0.5 * h * k1u)
        k3u = (v + 0.5 * h * k2v) / p_mids
        k3v = q_mids * (u + 0.5 * h * k2u)
        k4u = (v + h * k3v) / p1
        k4v = q1 * (u + h * k3u)
        return (h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

    # M_i = I + [[a, b], [c, d]], column by column from the basis states. The
    # scan carries M - I: entries stored next to 1 would lose the O(h) part of
    # every step to rounding, an error that grows like n eps
    a, c = increment(1.0, 0.0)
    b, d = increment(0.0, 1.0)
    # after the level with stride k, entry i holds M_i ... M_max(0, i-2k+1);
    # (I + X)(I + Y) = I + X + Y + XY with X the later block
    k = 1
    while k < len(a):
        a[k:], b[k:], c[k:], d[k:] = (
            a[k:] + a[:-k] + (a[k:] * a[:-k] + b[k:] * c[:-k]),
            b[k:] + b[:-k] + (a[k:] * b[:-k] + b[k:] * d[:-k]),
            c[k:] + c[:-k] + (c[k:] * a[:-k] + d[k:] * c[:-k]),
            d[k:] + d[:-k] + (c[k:] * b[:-k] + d[k:] * d[:-k]),
        )
        k *= 2
    # the initial state (0, p(a)) picks the second column
    p_a = p_nodes[0]
    return np.concatenate(([0.0], b * p_a)), np.concatenate(([p_a], p_a + d * p_a))


def first_conjugate_point(sol: AccessorySolution) -> Optional[float]:
    """Smallest zero of U in (a, b], or None.

    Node scan plus bisection on the cubic Hermite interpolant between nodes.
    U(a) = 0 by the initial condition, so the scan starts after the first
    step; a sign change inside the first cell is still caught because
    U'(a) = 1 forces U > 0 immediately to the right of a.
    """
    xs = sol.grid.nodes
    U = sol.U
    Up = sol.Up
    if U[1] < 0.0:
        cell = _hermite(xs[0], xs[1], U[0], Up[0], U[1], Up[1])
        lo = xs[0] + 1e-3 * sol.grid.h
        if cell(lo) <= 0.0:
            return float(lo)
        return float(_bisect(cell, lo, xs[1]))
    # first node i >= 1 that is a zero of U or starts a cell over which U
    # changes sign; a zero at i wins over a sign change from i
    hits = U[1:] == 0.0
    hits[:-1] |= (U[2:] != 0.0) & ((U[1:-1] > 0.0) != (U[2:] > 0.0))
    first = int(np.argmax(hits))
    if not hits[first]:
        return None
    i = first + 1
    if U[i] == 0.0:
        return float(xs[i])
    cell = _hermite(xs[i], xs[i + 1], U[i], Up[i], U[i + 1], Up[i + 1])
    return float(_bisect(cell, xs[i], xs[i + 1]))


def _hermite(x0: float, x1: float, u0: float, up0: float,
             u1: float, up1: float) -> Callable[[float], float]:
    h = x1 - x0

    def value(x: float) -> float:
        t = (x - x0) / h
        t2 = t * t
        t3 = t2 * t
        return (
            (2.0 * t3 - 3.0 * t2 + 1.0) * u0
            + (t3 - 2.0 * t2 + t) * h * up0
            + (-2.0 * t3 + 3.0 * t2) * u1
            + (t3 - t2) * h * up1
        )

    return value


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    f_lo = fn(lo)
    for _ in range(200):
        if hi - lo <= X_TOL:
            break
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
            f_lo = f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class CriteriaComparison:
    """Length criterion versus conjugate-point baseline for one instance.

    ``length_new`` is inf when q_min >= 0 (no restriction); ``length_jacobi``
    is inf when no conjugate point exists in (a, b]. ``ratio`` is defined only
    when both are finite.
    """

    p_min: float
    q_min: float
    length_new: float
    length_jacobi: float
    ratio: Optional[float]
    conjugate_point: Optional[float]
    solution: AccessorySolution


def compare_criteria(f: Integrand, y0: Extremal, grid: Grid) -> CriteriaComparison:
    """p_min and q_min are the minima of the accessory solution's node samples."""
    solution = solve_accessory(f, y0, grid)
    p_min = float(solution.p_of_x.min())
    q_min = float(solution.q_of_x.min())
    bound = length_bound(p_min, q_min)
    length_new = math.inf if bound is None else bound
    conjugate = solution.conjugate_point
    length_jacobi = math.inf if conjugate is None else conjugate - grid.a
    ratio = None
    if math.isfinite(length_new) and math.isfinite(length_jacobi):
        ratio = length_jacobi / length_new
    return CriteriaComparison(
        p_min=p_min,
        q_min=q_min,
        length_new=length_new,
        length_jacobi=length_jacobi,
        ratio=ratio,
        conjugate_point=conjugate,
        solution=solution,
    )
