"""Uniform grids, composite Simpson quadrature, and discrete Sobolev norms."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BOUNDARY_TOL = 1e-12
DEFAULT_GRID_N = 512


def _integer(name: str, value) -> int:
    """value as a Python int: any integer type but bool, else a TypeError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer")
    return operator.index(value)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into an even number n of subintervals."""

    a: float
    b: float
    n: int = DEFAULT_GRID_N

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("grid requires finite endpoints with a < b")
        if not math.isfinite(b - a):
            raise ValueError("grid length b - a overflows")
        if not hasattr(self.n, "__index__") or self.n < 2 or self.n % 2 != 0:
            raise ValueError("grid size must be an even integer >= 2")
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        nodes = self.nodes
        if not np.all(nodes[1:] > nodes[:-1]):
            raise ValueError("grid step (b - a)/n is below float resolution")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def length(self) -> float:
        return self.b - self.a

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)

    @cached_property
    def midpoints(self) -> np.ndarray:
        return self.nodes[:-1] + 0.5 * self.h

    @cached_property
    def simpson_weights(self) -> np.ndarray:
        """Composite Simpson weights 1, 4, 2, ..., 4, 1 of the nodes; read-only."""
        w = np.ones(self.n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w.flags.writeable = False
        return w


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A path and its derivative sampled on the nodes of a grid.

    Derivative samples are supplied, not finite-differenced, so paths with
    symbolic derivatives contribute no differentiation noise to norms.
    """

    grid: Grid
    y: np.ndarray
    yp: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        yp = np.asarray(self.yp, dtype=float)
        expected = (self.grid.n + 1,)
        if y.shape != expected or yp.shape != expected:
            raise ValueError(f"path samples must have shape {expected}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(yp))):
            raise ValueError("path samples must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "yp", yp)


def integrate(values, grid: Grid) -> float:
    """Composite Simpson estimate of the integral of node samples over [a, b]."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n + 1,):
        raise ValueError(f"expected {grid.n + 1} node values, got shape {v.shape}")
    # einsum sums in numpy's own loop: np.dot hands a long product to BLAS,
    # which splits it over threads, so its rounding follows the core count
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(grid.h / 3.0 * np.einsum("i,i->", grid.simpson_weights, v))
    if not math.isfinite(total):
        # the weights are positive, so a non-finite node makes the total so
        if not np.all(np.isfinite(v)):
            raise ValueError("node values must be finite")
        raise ValueError("integral overflowed")
    return total


def h1_norm_sq(path: SampledPath) -> float:
    """Squared Sobolev norm: the integral of y^2 + y'^2 over the path's grid."""
    return integrate(path.y * path.y + path.yp * path.yp, path.grid)


def friedrichs_coefficient(length: float) -> float:
    """The constant 16 L^2 / pi^2 relating the two halves of the Sobolev norm.

    Zero-boundary paths on an interval of the given length satisfy
    integral(y^2) <= friedrichs_coefficient(length) * integral(y'^2).
    """
    return 16.0 * length * length / (math.pi * math.pi)


def friedrichs_margin(path: SampledPath) -> float:
    """Slack of the inequality above for one concrete zero-boundary path."""
    if abs(path.y[0]) > _BOUNDARY_TOL or abs(path.y[-1]) > _BOUNDARY_TOL:
        raise ValueError("friedrichs_margin requires zero boundary values")
    coeff = friedrichs_coefficient(path.grid.length)
    return coeff * integrate(path.yp * path.yp, path.grid) - integrate(path.y * path.y, path.grid)

