"""Classical conjugate-point baseline via the accessory equation.

Integrates the first-order system U' = V / p(x), V' = q(x) U with
U(a) = 0, V(a) = p(a) (so U'(a) = 1) by classic fourth-order Runge-Kutta,
then locates the first zero of U in (a, b]. Used to cross-validate the
length criterion and to measure how conservative it is.

The system is linear, so each RK4 step is a 2x2 matrix M_i of p and q at
x_i, the cell midpoint and x_{i+1}. All n step matrices are built at once
and composed into the prefix products M_i ... M_0, carried as M - I, by a
blocked scan in O(n) work (G. E. Blelloch, "Prefix sums and their
applications", 1990): every block of BLOCK steps is composed in place, the
block totals are scanned Hillis-Steele (W. D. Hillis and G. L. Steele,
"Data parallel algorithms", CACM 1986), and each block then takes the
product of the blocks before it in one elementwise pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# steps per block of the prefix product; 16 measures the same
BLOCK = 8


class AccessoryIntegrationError(RuntimeError):
    """The Runge-Kutta state became non-finite."""


@dataclass(frozen=True, eq=False)
class AccessorySolution:
    """U and V = p U' at the grid nodes, the node samples of p and q, the
    first conjugate point if any, and the length criterion beside it.

    ``p_min`` and ``q_min`` are the minima of the node samples;
    ``length_new`` is inf when q_min >= 0 (no restriction);
    ``length_jacobi`` is inf when no conjugate point exists in (a, b].
    ``ratio`` is defined only when both are finite.
    """

    U: np.ndarray
    V: np.ndarray
    p_of_x: np.ndarray
    q_of_x: np.ndarray
    conjugate_point: Optional[float]
    p_min: float
    q_min: float
    length_new: float
    length_jacobi: float
    ratio: Optional[float]


def solve_accessory(f: Integrand, y0: Extremal, grid: Grid) -> AccessorySolution:
    """March the (U, V) system across the grid; p and q are sampled once.

    Working in V = p U' avoids differentiating p(x) when f depends on x.
    p <= 0 at a node is reported before the midpoints are sampled.
    """
    ensure_same_interval(y0, grid)
    p_nodes, q_nodes = coefficient_samples(f, y0, grid.nodes)
    p_min, q_min = float(p_nodes.min()), float(q_nodes.min())
    if p_min <= 0.0:
        raise LegendreError("comparison requires a strictly positive leading coefficient")
    p_mids, q_mids = coefficient_samples(f, y0, grid.midpoints)
    if p_mids.min() <= 0.0:
        raise LegendreError("accessory equation requires f_zz > 0 along the path")
    # march on p and q times 2^k, which brings max p into [0.5, 1), so h / p
    # stays finite for a subnormal p; a power of two scales V and every RK4
    # quantity exactly and leaves U unchanged. An overflowing march ends in
    # AccessoryIntegrationError, not in warnings
    k = -math.frexp(float(p_nodes.max()))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        p_scaled, *rest = (np.ldexp(c, k) for c in (p_nodes, q_nodes, p_mids, q_mids))
        U, V_scaled = _march(grid.h, p_scaled, *rest)
        V = np.ldexp(V_scaled, -k)
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise AccessoryIntegrationError("accessory integration produced non-finite values")
    # U' from the scaled pair, which keeps the bits a subnormal V would lose
    conjugate = first_conjugate_point(grid, U, V_scaled / p_scaled)
    bound = length_bound(p_min, q_min)
    length_new = math.inf if bound is None else bound
    length_jacobi = math.inf if conjugate is None else conjugate - grid.a
    ratio = None
    if math.isfinite(length_new) and math.isfinite(length_jacobi):
        ratio = length_jacobi / length_new
    return AccessorySolution(U, V, p_nodes, q_nodes, conjugate,
                             p_min, q_min, length_new, length_jacobi, ratio)


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
    b, d = _prefix_products((a, b, c, d))
    # the initial state (0, p(a)) picks the second column
    p_a = p_nodes[0]
    return np.concatenate(([0.0], b * p_a)), np.concatenate(([p_a], p_a + d * p_a))


def _compose(x, y, out) -> None:
    """Write (I + X)(I + Y) - I = X + Y + XY into out, for 2x2 matrices X, Y
    given as their entries (a, b, c, d) along the first axis of an array; X
    is the later factor. Each matrix row of the product, (a, b) or (c, d),
    reads only the same row of X, so out may be x, but it must not overlap
    y."""
    ya, yb, yc, yd = y
    for r in (0, 2):
        xp, xq, yp, yq = x[r], x[r + 1], y[r], y[r + 1]
        first = xp + yp + (xp * ya + xq * yc)
        out[r + 1] = xq + yq + (xp * yb + xq * yd)
        out[r] = first


def _prefix_products(steps) -> np.ndarray:
    """The second column, entries b and d, of M_i ... M_0 - I for every i,
    from the entries (a, b, c, d) of M_i - I, four arrays of length n >= 1;
    a (2, n) array."""
    n = len(steps[0])
    blocks = -(-n // BLOCK)
    # zero pads are identity steps; e[:, j, k] is step j of block k, so each
    # block position is one contiguous row
    e = np.zeros((4, blocks * BLOCK))
    e[:, :n] = steps
    e = np.ascontiguousarray(e.reshape(4, blocks, BLOCK).transpose(0, 2, 1))
    # within every block at once: position j becomes steps j ... 0 of its block
    for j in range(1, BLOCK):
        _compose(e[:, j], e[:, j - 1], e[:, j])
    # after the level with stride k, total i holds blocks i ... max(0, i-2k+1)
    totals = e[:, -1].copy()
    k = 1
    while k < blocks:
        _compose(totals[:, k:], totals[:, :-k].copy(), totals[:, k:])
        k *= 2
    # block i >= 1 carries blocks i-1 ... 0, that is total i-1; of the
    # product only the second column, _compose's out[1] and out[3], is kept
    x, y = e[:, :, 1:], totals[:, None, :-1]
    for r in (1, 3):
        x[r] = x[r] + y[r] + (x[r - 1] * y[1] + x[r] * y[3])
    return e[1::2].transpose(0, 2, 1).reshape(2, -1)[:, :n]


def first_conjugate_point(grid: Grid, U: np.ndarray, Up: np.ndarray) -> Optional[float]:
    """Smallest zero of U in (a, b], or None, from U and U' at the grid nodes.

    Node scan plus bisection on the cubic Hermite interpolant between nodes.
    U(a) = 0 by the initial condition, so the scan starts after the first
    step; a sign change inside the first cell is still caught because
    U'(a) = 1 forces U > 0 immediately to the right of a.
    """
    xs = grid.nodes
    if U[1] < 0.0:
        cell = _hermite(xs[0], xs[1], U[0], Up[0], U[1], Up[1])
        lo = xs[0] + 1e-3 * grid.h
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


def compare_criteria(f: Integrand, y0: Extremal, grid: Grid) -> AccessorySolution:
    """The length criterion beside the conjugate point: the accessory
    solution, whose p_min, q_min, length_new, length_jacobi and ratio
    are computed with it."""
    return solve_accessory(f, y0, grid)
