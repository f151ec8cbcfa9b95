"""Classical conjugate-point baseline via the accessory equation.

Integrates the first-order system U' = V / p(x), V' = q(x) U with
U(a) = 0, V(a) = p(a) (so U'(a) = 1) by classic fourth-order Runge-Kutta,
then locates the first zero of U in (a, b]. Used to cross-validate the
length criterion and to measure how conservative it is.
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
    legendre_profile,
)

X_TOL = 1e-9


class AccessoryIntegrationError(RuntimeError):
    """The Runge-Kutta state became non-finite."""


@dataclass(frozen=True, eq=False)
class AccessorySolution:
    """U and V = p U' at the grid nodes, plus the first conjugate point if any."""

    grid: Grid
    U: np.ndarray
    V: np.ndarray
    p_of_x: np.ndarray
    conjugate_point: Optional[float]

    @property
    def Up(self) -> np.ndarray:
        return self.V / self.p_of_x


def solve_accessory(f: Integrand, y0: Extremal, grid: Grid) -> AccessorySolution:
    """March the (U, V) system across the grid; p and q are sampled once.

    Working in V = p U' avoids differentiating p(x) when f depends on x.
    """
    ensure_same_interval(y0, grid)
    p_nodes, q_nodes = coefficient_samples(f, y0, grid.nodes)
    p_mids, q_mids = coefficient_samples(f, y0, grid.midpoints)
    if min(p_nodes.min(), p_mids.min()) <= 0.0:
        raise LegendreError("accessory equation requires f_zz > 0 along the path")
    n = grid.n
    h = grid.h
    U = np.empty(n + 1)
    V = np.empty(n + 1)
    u = 0.0
    v = float(p_nodes[0])
    U[0] = u
    V[0] = v
    for i in range(n):
        p_mid = p_mids[i]
        q_mid = q_mids[i]
        k1u = v / p_nodes[i]
        k1v = q_nodes[i] * u
        k2u = (v + 0.5 * h * k1v) / p_mid
        k2v = q_mid * (u + 0.5 * h * k1u)
        k3u = (v + 0.5 * h * k2v) / p_mid
        k3v = q_mid * (u + 0.5 * h * k2u)
        k4u = (v + h * k3v) / p_nodes[i + 1]
        k4v = q_nodes[i + 1] * (u + h * k3u)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        U[i + 1] = u
        V[i + 1] = v
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise AccessoryIntegrationError("accessory integration produced non-finite values")
    solution = AccessorySolution(grid, U, V, p_nodes, None)
    return replace(solution, conjugate_point=first_conjugate_point(solution))


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
    profile = legendre_profile(f, y0, grid)
    if profile.p_min <= 0.0:
        raise LegendreError("comparison requires a strictly positive leading coefficient")
    solution = solve_accessory(f, y0, grid)
    bound = length_bound(profile.p_min, profile.q_min)
    length_new = math.inf if bound is None else bound
    conjugate = solution.conjugate_point
    length_jacobi = math.inf if conjugate is None else conjugate - grid.a
    ratio = None
    if math.isfinite(length_new) and math.isfinite(length_jacobi):
        ratio = length_jacobi / length_new
    return CriteriaComparison(
        p_min=profile.p_min,
        q_min=profile.q_min,
        length_new=length_new,
        length_jacobi=length_jacobi,
        ratio=ratio,
        conjugate_point=conjugate,
        solution=solution,
    )
