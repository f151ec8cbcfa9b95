"""Accessory equation integration and conjugate-point location."""

import math

import numpy as np
import pytest

from varcert import (
    AccessoryIntegrationError,
    Extremal,
    Grid,
    Integrand,
    LegendreError,
    compare_criteria,
    first_conjugate_point,
    solve_accessory,
)
from varcert import jacobi, variational
from varcert.jacobi import X_TOL, _bisect, _hermite, _prefix_products
from varcert.variational import coefficient_samples


def _solve(f_text, a, b, n=256, y0_text="0"):
    f = Integrand.from_text(f_text)
    y0 = Extremal.from_text(y0_text, a, b)
    grid = Grid(a, b, n)
    return solve_accessory(f, y0, grid), grid


# ---------------------------------------------------------------------------
# analytic solutions


def test_oscillator_solution_is_sine():
    # p = 2, q = -2: U'' = -U with U(0)=0, U'(0)=1, so U = sin
    sol, grid = _solve("z^2-y^2", 0.0, 2.0)
    assert np.max(np.abs(sol.U - np.sin(grid.nodes))) < 1e-9
    assert np.max(np.abs(sol.V / sol.p_of_x - np.cos(grid.nodes))) < 1e-9


def test_coercive_solution_is_sinh():
    # p = 1, q = 1: U'' = U with U(0)=0, U'(0)=1, so U = sinh
    sol, grid = _solve("0.5*z^2+0.5*y^2", 0.0, 2.0)
    assert np.max(np.abs(sol.U - np.sinh(grid.nodes))) < 1e-8
    assert sol.conjugate_point is None


def test_initial_conditions():
    sol, _ = _solve("z^2-y^2", 0.0, 1.0)
    assert sol.U[0] == 0.0
    assert sol.V[0] == pytest.approx(2.0)  # V = p U' with p = 2, U'(a) = 1
    assert (sol.V / sol.p_of_x)[0] == pytest.approx(1.0)


def test_conjugate_point_oscillator():
    sol, _ = _solve("z^2-y^2", 0.0, 4.0, n=512)
    assert sol.conjugate_point == pytest.approx(math.pi, abs=1e-6)


def test_conjugate_point_half_frequency():
    # p = 1, q = -1/4: U = 2 sin(x/2), first zero at 2 pi
    sol, _ = _solve("0.5*z^2-0.125*y^2", 0.0, 7.0, n=512)
    assert sol.conjugate_point == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_no_conjugate_point_before_first_zero():
    # sin stays positive on (0, 3]
    sol, grid = _solve("z^2-y^2", 0.0, 3.0)
    assert sol.conjugate_point is None
    assert first_conjugate_point(grid, sol.U, sol.V / sol.p_of_x) is None


def _first_conjugate_point_loop(grid, U, Up):
    # the per-node scan the vectorised one replaced, kept as its oracle
    xs, n = grid.nodes, grid.n
    if U[1] < 0.0:
        cell = _hermite(xs[0], xs[1], U[0], Up[0], U[1], Up[1])
        lo = xs[0] + 1e-3 * grid.h
        if cell(lo) <= 0.0:
            return float(lo)
        return float(_bisect(cell, lo, xs[1]))
    for i in range(1, n + 1):
        if U[i] == 0.0:
            return float(xs[i])
        if i < n and U[i + 1] != 0.0 and (U[i] > 0.0) != (U[i + 1] > 0.0):
            cell = _hermite(xs[i], xs[i + 1], U[i], Up[i], U[i + 1], Up[i + 1])
            return float(_bisect(cell, xs[i], xs[i + 1]))
    return None


@pytest.mark.parametrize("seed", range(40))
def test_node_scan_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 4, 8, 64]))
    grid = Grid(0.0, 1.0, n)
    U = rng.choice([-1.0, 1.0], n + 1) * rng.uniform(0.5, 2.0, n + 1)
    U[rng.random(n + 1) < 0.1] = rng.choice([0.0, -0.0])
    U[0] = 0.0
    if seed % 4 == 0:
        U[1:] = np.abs(U[1:])  # zeros only, or no root at all
    elif seed % 4 == 1:
        U[1] = -abs(U[1]) or -1.0  # sign change inside the first cell
    Up = rng.uniform(-2.0, 2.0, n + 1)
    assert first_conjugate_point(grid, U, Up) == _first_conjugate_point_loop(grid, U, Up)


@pytest.mark.parametrize("U, expected_node", [
    ([0.0, 1.0, 0.0, -1.0, -2.0], 2),   # zero at a node before the change
    ([0.0, 1.0, 0.0, 1.0, 2.0], 2),     # a touching zero: the node, not its cell
    ([0.0, 1.0, 2.0, -0.0, -1.0], 3),   # a negative zero is a zero
    ([0.0, 1.0, 2.0, 3.0, 4.0], None),  # no root
])
def test_node_scan_exact_zeros(U, expected_node):
    grid = Grid(0.0, 1.0, 4)
    U = np.array(U)
    Up = np.ones(5)
    expected = None if expected_node is None else float(grid.nodes[expected_node])
    assert (first_conjugate_point(grid, U, Up) == expected
            == _first_conjugate_point_loop(grid, U, Up))


def test_bisect_returns_an_exact_zero_at_a_midpoint():
    assert _bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5


def _accessory_loop(f, y0, grid):
    # the per-step RK4 loop the prefix-product march replaced, kept as its oracle
    p_nodes, q_nodes = coefficient_samples(f, y0, grid.nodes)
    p_mids, q_mids = coefficient_samples(f, y0, grid.midpoints)
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
    return U, V, p_nodes, q_nodes


_MARCH_CASES = {
    "oscillating": ("z^2-25*y^2", "0", 0.0, 2.0),            # q < 0, conjugate points
    "growing": ("0.5*z^2+8*y^2", "0", 0.0, 2.0),             # q > 0, U ~ sinh(4x)
    "x-dependent-p": ("0.5*(1+x^2)*z^2-(2+sin(3*x))*y^2", "0", 0.0, 3.0),
    "nonzero-path": ("(1+0.5*y^2)*z^2-y^2+x*y*z", "sin(x)", 0.0, 2.0),
}


# in blocks of 8 steps, 10, 18, 1030 and 4098 end in a partial block, and 18,
# 1030 and 4098 have an odd number of blocks above one
@pytest.mark.parametrize("n", [2, 4, 6, 10, 18, 510, 512, 1030, 4098, 65536])
@pytest.mark.parametrize("case", sorted(_MARCH_CASES))
def test_march_matches_the_loop(case, n):
    f_text, y0_text, a, b = _MARCH_CASES[case]
    f = Integrand.from_text(f_text)
    y0 = Extremal.from_text(y0_text, a, b)
    grid = Grid(a, b, n)
    sol = solve_accessory(f, y0, grid)
    U, V, p_nodes, q_nodes = _accessory_loop(f, y0, grid)
    # the scan groups the same products differently: agreement to rounding
    assert np.max(np.abs(sol.U - U)) <= 1e-11 * np.max(np.abs(U))
    assert np.max(np.abs(sol.V - V)) <= 1e-11 * np.max(np.abs(V))
    assert sol.U[0] == U[0] and sol.V[0] == V[0]
    assert np.array_equal(sol.p_of_x, p_nodes) and np.array_equal(sol.q_of_x, q_nodes)
    expected = first_conjugate_point(grid, U, V / p_nodes)
    if expected is None:
        assert sol.conjugate_point is None
    else:
        assert abs(sol.conjugate_point - expected) <= X_TOL


@pytest.mark.parametrize("n", range(1, 41))
def test_prefix_products_match_sequential_composition(n):
    steps = np.random.default_rng(n).uniform(-0.1, 0.1, (n, 2, 2))
    product = np.eye(2)
    expected = np.empty((n, 2, 2))
    for i, step in enumerate(steps):
        product = (np.eye(2) + step) @ product
        expected[i] = product - np.eye(2)
    got = _prefix_products(tuple(steps.reshape(n, 4).T))
    assert got.shape == (2, n)
    ref = expected.reshape(n, 4).T[1::2]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_overflow_raises_without_warnings():
    # q = 2e6: U grows like exp(1414 x) and overflows long before b = 10
    with pytest.raises(AccessoryIntegrationError):
        _solve("0.5*z^2+1e6*y^2", 0.0, 10.0, n=512)


def test_variable_coefficient_scaling():
    # p = 1 + x^2 with q = 0: V is constant, U' = V / p, so
    # U(x) = p(a) * arctan(x) with a = 0
    sol, grid = _solve("0.5*(1+x^2)*z^2", 0.0, 2.0, n=512)
    assert np.max(np.abs(sol.U - np.arctan(grid.nodes))) < 1e-8
    assert sol.conjugate_point is None


def test_legendre_violation_raises():
    # p = 1 - x^2 crosses zero inside the interval
    with pytest.raises(LegendreError):
        _solve("0.5*(1-x^2)*z^2", 0.0, 2.0)


# ---------------------------------------------------------------------------
# RK4 convergence order


@pytest.mark.parametrize("f_text,exact", [
    ("z^2-y^2", np.sin),
    ("0.5*z^2+0.5*y^2", np.sinh),
])
def test_rk4_error_ratio_under_halving(f_text, exact):
    errors = []
    for n in (64, 128, 256):
        sol, grid = _solve(f_text, 0.0, 2.0, n=n)
        errors.append(float(np.max(np.abs(sol.U - exact(grid.nodes)))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 8.0 <= coarse / fine <= 32.0


# ---------------------------------------------------------------------------
# criteria comparison


def test_compare_oscillator_ratio_four():
    comparison = compare_criteria(Integrand.from_text("z^2-y^2"),
                                  Extremal.zero(0.0, 4.0), Grid(0.0, 4.0, 512))
    assert comparison.length_new == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert comparison.length_jacobi == pytest.approx(math.pi, abs=1e-6)
    assert comparison.ratio == pytest.approx(4.0, abs=1e-5)
    assert comparison.conjugate_point == comparison.length_jacobi + 0.0


def test_compare_no_conjugate_point_reports_infinite_length():
    comparison = compare_criteria(Integrand.from_text("y^2+0.5*z^2"),
                                  Extremal.zero(0.0, 2.0), Grid(0.0, 2.0, 256))
    assert comparison.conjugate_point is None
    assert math.isinf(comparison.length_jacobi)
    assert math.isinf(comparison.length_new)  # q > 0: no length restriction
    assert comparison.ratio is None


def test_compare_requires_positive_p():
    # p <= 0 at a node is reported before the midpoints are looked at
    with pytest.raises(LegendreError, match="^comparison requires a strictly positive "
                                            "leading coefficient$"):
        compare_criteria(Integrand.from_text("-z^2"), Extremal.zero(0.0, 1.0),
                         Grid(0.0, 1.0, 64))


def test_compare_samples_p_and_q_once(monkeypatch):
    calls = []

    def counted(f, y0, xs):
        calls.append(len(xs))
        return coefficient_samples(f, y0, xs)

    # every call through either module's name is counted
    monkeypatch.setattr(jacobi, "coefficient_samples", counted)
    monkeypatch.setattr(variational, "coefficient_samples", counted)
    grid = Grid(0.0, 4.0, 512)
    comparison = compare_criteria(Integrand.from_text("z^2-y^2"), Extremal.zero(0.0, 4.0), grid)
    assert calls == [grid.n + 1, grid.n]  # the nodes, then the midpoints
    assert (comparison.p_min, comparison.q_min) == (2.0, -2.0)


def test_compare_reports_p_at_a_midpoint_only():
    # p = cos(4 pi x) is 1 at the nodes 0, 1/2, 1 and -1 at both midpoints
    f = Integrand.from_text(f"0.5*cos({4.0 * math.pi!r}*x)*z^2")
    with pytest.raises(LegendreError, match="^accessory equation requires f_zz > 0 "
                                            "along the path$"):
        compare_criteria(f, Extremal.zero(0.0, 1.0), Grid(0.0, 1.0, 2))


def test_compare_conjugate_relative_to_left_endpoint():
    # same oscillator shifted to [1, 5]: conjugate point at 1 + pi
    comparison = compare_criteria(Integrand.from_text("z^2-y^2"),
                                  Extremal.zero(1.0, 5.0), Grid(1.0, 5.0, 512))
    assert comparison.conjugate_point == pytest.approx(1.0 + math.pi, abs=1e-6)
    # lengths compare the distance from a, not the absolute coordinate
    assert comparison.length_jacobi == pytest.approx(math.pi, abs=1e-6)
