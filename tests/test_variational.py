"""Integrand partials, stationarity residual, second-order profile, shift."""

import math

import numpy as np
import pytest

from varcert import (
    Extremal,
    Grid,
    Integrand,
    certify,
    evaluate,
    parse,
    shift,
    unparse,
)
from varcert.expr import CHUNK
from varcert.variational import (
    certify_samples,
    coefficient_samples,
    ensure_same_interval,
)

from conftest import eval_at


# ---------------------------------------------------------------------------
# integrand and extremal types


def test_integrand_partials():
    f = Integrand.from_text("y^2+0.5*(2+x^2)*z^2")
    assert eval_at(f.f_y, 0.0, 3.0, 1.0) == pytest.approx(6.0)
    assert eval_at(f.f_zz, 2.0, 0.0, 5.0) == pytest.approx(6.0)
    assert eval_at(f.f_z, 1.0, 0.0, 2.0) == pytest.approx((2 + 1) * 2.0)


def test_extremal_requires_x_only():
    with pytest.raises(ValueError):
        Extremal.from_text("y+x", 0.0, 1.0)


def test_extremal_interval_validation():
    with pytest.raises(ValueError):
        Extremal.from_text("x", 1.0, 1.0)


def test_extremal_sampling_derivatives():
    y0 = Extremal.from_text("sin(x)", 0.0, 2.0)
    xs = np.linspace(0.0, 2.0, 9)
    ys, yps, ypps = y0.program({"x": xs})
    assert np.allclose(ys, np.sin(xs))
    assert np.allclose(yps, np.cos(xs))
    assert np.allclose(ypps, -np.sin(xs))


def test_ensure_same_interval():
    y0 = Extremal.zero(0.0, 1.0)
    with pytest.raises(ValueError):
        ensure_same_interval(y0, Grid(0.0, 2.0, 8))


# ---------------------------------------------------------------------------
# stationarity residual


def test_residual_zero_on_true_extremal():
    # y = sin x solves the oscillator equation y'' = -y
    f = Integrand.from_text("z^2-y^2")
    y0 = Extremal.from_text("sin(x)", 0.0, 2.0)
    assert certify(f, y0, Grid(0.0, 2.0, 128)).verdict.el_residual_max < 1e-12


def test_residual_formula_on_non_extremal():
    # f = z^2 - y^2 at y = x^2: residual is -2y - 2y'' = -2x^2 - 4
    f = Integrand.from_text("z^2-y^2")
    y0 = Extremal.from_text("x^2", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 64)
    r, _, _ = certify_samples(f, y0, grid.nodes)
    assert np.max(np.abs(r - (-2 * grid.nodes ** 2 - 4))) < 1e-12
    assert certify(f, y0, grid).verdict.el_residual_max == pytest.approx(6.0)


def test_residual_chain_rule_with_slope_coupling():
    # f = x*y*z has f_z = x*y, so d/dx f_z = y + x*y'; with y = x the
    # residual is f_y - (y + x y') = x*1 - (x + x) = -x
    f = Integrand.from_text("x*y*z")
    y0 = Extremal.from_text("x", 0.0, 2.0)
    grid = Grid(0.0, 2.0, 32)
    r, _, _ = certify_samples(f, y0, grid.nodes)
    assert np.max(np.abs(r - (-grid.nodes))) < 1e-12


def _el_residual_fd(f, y0, grid):
    """Residual with d/dx f_z taken by central differences."""
    ensure_same_interval(y0, grid)
    h = (y0.b - y0.a) * 1e-5

    def momentum(xs):
        yv, ypv, _ = y0.program({"x": xs})
        return evaluate(f.f_z, {"x": xs, "y": yv, "z": ypv})

    xs = grid.nodes
    dfz = (momentum(xs + h) - momentum(xs - h)) / (2.0 * h)
    yv, ypv, _ = y0.program({"x": xs})
    return evaluate(f.f_y, {"x": xs, "y": yv, "z": ypv}) - dfz


def test_residual_matches_finite_difference_of_momentum():
    f = Integrand.from_text("sin(y)*z+0.5*(1+x^2)*z^2+exp(y)")
    y0 = Extremal.from_text("sin(x)", 0.0, 1.5)
    grid = Grid(0.0, 1.5, 128)
    exact, _, _ = certify_samples(f, y0, grid.nodes)
    approx = _el_residual_fd(f, y0, grid)
    assert np.max(np.abs(exact - approx)) < 1e-6


# ---------------------------------------------------------------------------
# second-order profile


def test_profile_oscillator():
    f = Integrand.from_text("z^2-y^2")
    _, p, q = certify_samples(f, Extremal.zero(0.0, 1.0), Grid(0.0, 1.0, 32).nodes)
    assert np.allclose(p, 2.0)
    assert np.allclose(q, -2.0)
    cert = certify(f, Extremal.zero(0.0, 1.0), Grid(0.0, 1.0, 32))
    assert cert.p_min == pytest.approx(2.0)
    assert cert.q_min == pytest.approx(-2.0)


def test_profile_dirichlet():
    f = Integrand.from_text("0.5*z^2")
    cert = certify(f, Extremal.zero(0.0, 4.0), Grid(0.0, 4.0, 32))
    assert cert.p_min == pytest.approx(1.0)
    assert cert.q_min == pytest.approx(0.0)


def test_profile_variable_leading_coefficient():
    f = Integrand.from_text("0.5*(1+x^2)*z^2")
    grid = Grid(0.0, 1.0, 64)
    assert certify(f, Extremal.zero(0.0, 1.0), grid).p_min == pytest.approx(1.0)  # left node
    _, p, _ = certify_samples(f, Extremal.zero(0.0, 1.0), grid.nodes)
    assert np.allclose(p, 1.0 + grid.nodes ** 2)


def test_profile_q_includes_slope_coupling_derivative():
    # f = x*y*z: f_yz = x so q = f_yy - d/dx f_yz = -1
    f = Integrand.from_text("x*y*z+z^2")
    _, p, q = certify_samples(f, Extremal.zero(0.0, 1.0), Grid(0.0, 1.0, 32).nodes)
    assert np.allclose(q, -1.0)
    assert p.min() == pytest.approx(2.0)


def test_profile_minima_over_nodes():
    # p(x) = 2 + sin(x) dips to its interior minimum between nodes when the
    # grid is coarse; minima are defined over the nodes
    f = Integrand.from_text("0.5*(2+sin(x))*z^2")
    grid = Grid(3.0, 6.0, 4)
    cert = certify(f, Extremal.zero(3.0, 6.0), grid)
    assert cert.p_min == pytest.approx(min(2.0 + np.sin(grid.nodes)))


# 2 CHUNK + 2 cells: nodes and midpoints both span two chunks
@pytest.mark.parametrize("n", [64, 2 * CHUNK + 2])
def test_certify_and_compare_sample_the_same_p_and_q(corpus100, n):
    # certify's fused pass and compare's profile program are two programs;
    # their p and q must agree bit for bit, across chunk boundaries too
    for _, f, y0 in corpus100:
        grid = Grid(y0.a, y0.b, n)
        for xs in (grid.nodes, grid.midpoints):
            _, p, q = certify_samples(f, y0, xs)
            want_p, want_q = coefficient_samples(f, y0, xs)
            assert np.array_equal(p, want_p) and np.array_equal(q, want_q)


# ---------------------------------------------------------------------------
# recentering


def test_shift_dirichlet():
    # g(x, y, z) = f(x, y + y0, z + y0'): the zero path of g plays the role
    # of the designated path of f
    f = Integrand.from_text("0.5*z^2")
    y0 = Extremal.from_text("sin(x)", 0.0, 1.0)
    g = shift(f, y0)
    for t, u, w in ((0.2, 0.5, 1.0), (0.9, -0.3, 0.4)):
        want = 0.5 * (w + math.cos(t)) ** 2
        assert eval_at(g.f, t, u, w) == pytest.approx(want)


def test_shift_maps_designated_path_to_zero():
    # the recentered integrand has zero residual at the zero path exactly
    # when the original has zero residual at the designated path
    f = Integrand.from_text("y^2+0.5*z^2+sin(x)*y")
    y0 = Extremal.from_text("x*(1-x)", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 64)
    direct, _, _ = certify_samples(f, y0, grid.nodes)
    recentred, _, _ = certify_samples(shift(f, y0), Extremal.zero(0.0, 1.0), grid.nodes)
    assert np.max(np.abs(direct - recentred)) < 1e-10
