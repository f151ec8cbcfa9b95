"""Quadrature, Sobolev norms, and the zero-boundary inequality margin."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from varcert import (
    Grid,
    SampledPath,
    friedrichs_coefficient,
    friedrichs_margin,
    h1_norm_sq,
    integrate,
)


def _path_from(grid, fn, dfn):
    xs = grid.nodes
    return SampledPath(grid, fn(xs), dfn(xs))


# ---------------------------------------------------------------------------
# grids


def test_grid_properties():
    grid = Grid(0.0, 1.0, 8)
    assert grid.h == pytest.approx(0.125)
    assert grid.length == 1.0
    assert len(grid.nodes) == 9
    assert len(grid.midpoints) == 8
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 7)  # odd
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Grid(0.0, math.inf, 8)
    # finite ends whose distance overflows would give linspace nan nodes
    with pytest.raises(ValueError, match="grid length b - a overflows"):
        Grid(-1e308, 1e308, 8)
    assert np.all(np.isfinite(Grid(-1e308, 0.0, 8).nodes))


@pytest.mark.parametrize("a, b", [(0.0, 5e-324), (1.0, 1.000000000000002)])
def test_grid_nodes_must_increase(a, b):
    # (b - a)/512 underflows to 0, or is below half an ulp of the ends
    with pytest.raises(ValueError, match=r"^grid step \(b - a\)/n is below float resolution$"):
        Grid(a, b, 512)


def test_grid_of_a_few_ulps_is_valid_when_its_nodes_increase():
    assert np.all(np.diff(Grid(1.0, 1.000000000000002, 8).nodes) > 0.0)


def test_sampled_path_shape_check():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledPath(grid, np.zeros(4), np.zeros(5))
    with pytest.raises(ValueError):
        SampledPath(grid, np.full(5, np.nan), np.zeros(5))


# ---------------------------------------------------------------------------
# quadrature


def test_simpson_exact_on_quadratic():
    grid = Grid(0.0, 1.0, 2)
    xs = grid.nodes
    assert integrate(xs ** 2, grid) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_simpson_exact_on_cubic():
    grid = Grid(-1.0, 2.0, 4)
    xs = grid.nodes
    # integral of x^3 from -1 to 2 is (16 - 1)/4
    assert integrate(xs ** 3, grid) == pytest.approx(15.0 / 4.0, abs=1e-13)


def test_simpson_sine():
    grid = Grid(0.0, math.pi, 64)
    assert integrate(np.sin(grid.nodes), grid) == pytest.approx(2.0, abs=1e-7)


def test_simpson_weights_are_cached_and_read_only():
    grid = Grid(0.0, 1.0, 6)
    weights = grid.simpson_weights
    assert weights is grid.simpson_weights
    assert weights.tolist() == [1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 2.0


def test_integrate_rejects_bad_shapes():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        integrate(np.zeros(4), grid)
    with pytest.raises(ValueError):
        integrate(np.full(5, np.inf), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("others", [0.5, 1e308])
def test_non_finite_nodes_raise(bad, others):
    # beside finite nodes whose sum overflows too, a non-finite node is
    # named as such
    grid = Grid(0.0, 4.0, 4)
    for i in (0, 1, 4):
        values = np.full(5, others)
        values[i] = bad
        with pytest.raises(ValueError, match="^node values must be finite$"):
            integrate(values, grid)


def test_overflowing_sums_raise():
    # every sample is finite, but the weighted sums leave the float range
    grid = Grid(0.0, 4.0, 4)
    with pytest.raises(ValueError, match="^integral overflowed$"):
        integrate(np.full(5, 1e308), grid)


def test_integrals_do_not_depend_on_the_blas_thread_count():
    # a dot product of 65537 samples is long enough for OpenBLAS to split
    # over its threads, which would group the sum by the core count
    code = ("import numpy as np\n"
            "from varcert import Grid, integrate\n"
            "rng = np.random.default_rng(5)\n"
            "grid = Grid(0.0, 1.0, 65536)\n"
            "for _ in range(20):\n"
            "    print(integrate(rng.standard_normal(65537), grid).hex())\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout)
    assert len(printed[0].split()) == 20
    assert printed[0] == printed[1]


# ---------------------------------------------------------------------------
# Sobolev norm


def test_h1_norm_sine():
    # y = sin(pi x) on [0,1]: integral y^2 = 1/2, integral y'^2 = pi^2/2
    grid = Grid(0.0, 1.0, 256)
    path = _path_from(grid, lambda xs: np.sin(math.pi * xs),
                      lambda xs: math.pi * np.cos(math.pi * xs))
    want = 0.5 + math.pi * math.pi / 2.0
    assert h1_norm_sq(path) == pytest.approx(want, abs=1e-6)


def test_h1_norm_poly():
    # y = x(1-x) on [0,1]: integral y^2 = 1/30, integral y'^2 = 1/3
    grid = Grid(0.0, 1.0, 128)
    path = _path_from(grid, lambda xs: xs * (1 - xs), lambda xs: 1 - 2 * xs)
    assert h1_norm_sq(path) == pytest.approx(1.0 / 30.0 + 1.0 / 3.0, abs=1e-9)


@given(st.floats(0.1, 3.0, allow_nan=False))
def test_h1_norm_scales_quadratically(scale):
    grid = Grid(0.0, 1.0, 64)
    base = _path_from(grid, lambda xs: xs * (1 - xs), lambda xs: 1 - 2 * xs)
    scaled = SampledPath(grid, scale * base.y, scale * base.yp)
    assert h1_norm_sq(scaled) == pytest.approx(scale * scale * h1_norm_sq(base),
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# zero-boundary inequality


def test_friedrichs_coefficient_value():
    assert friedrichs_coefficient(2.0) == pytest.approx(64.0 / math.pi ** 2)


def test_friedrichs_margin_sine():
    # (16/pi^2) * (pi^2/2) - 1/2 = 8 - 1/2
    grid = Grid(0.0, 1.0, 256)
    path = _path_from(grid, lambda xs: np.sin(math.pi * xs),
                      lambda xs: math.pi * np.cos(math.pi * xs))
    assert friedrichs_margin(path) == pytest.approx(7.5, abs=1e-6)


def test_friedrichs_margin_poly():
    # (16/pi^2) * (1/3) - 1/30
    grid = Grid(0.0, 1.0, 128)
    path = _path_from(grid, lambda xs: xs * (1 - xs), lambda xs: 1 - 2 * xs)
    want = 16.0 / (3.0 * math.pi ** 2) - 1.0 / 30.0
    assert friedrichs_margin(path) == pytest.approx(want, abs=1e-8)


def test_friedrichs_margin_requires_zero_boundary():
    grid = Grid(0.0, 1.0, 16)
    path = _path_from(grid, lambda xs: xs, lambda xs: np.ones_like(xs))
    with pytest.raises(ValueError):
        friedrichs_margin(path)


def test_friedrichs_margin_positive_on_modes():
    # the conservative constant strictly dominates the sharp one, so every
    # nonzero mode has positive margin
    for length, n in ((0.3, 128), (1.0, 128), (5.0, 256)):
        grid = Grid(0.0, length, n)
        for k in range(1, 6):
            omega = k * math.pi / length
            path = _path_from(grid, lambda xs: np.sin(omega * xs),
                              lambda xs: omega * np.cos(omega * xs))
            assert friedrichs_margin(path) > 0.0
