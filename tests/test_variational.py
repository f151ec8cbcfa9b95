"""Integrand partials, stationarity residual, second-order profile, shift."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from varcert import (
    EvalDomainError,
    Expr,
    Extremal,
    Grid,
    Integrand,
    certify,
    diff,
    evaluate,
    parse,
    shift,
    unparse,
)
from varcert import expr, variational
from varcert.expr import CHUNK, X, Y, Z, Program, substitute
from varcert.variational import (
    certify_samples,
    coefficient_samples,
    ensure_same_interval,
)

from conftest import (bits, digest, eval_at, path_then_partials, random_tree, recentred_problem,
                      walk_along)


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
    ys, yps, ypps = Program((y0.y0, y0.y0p, y0.y0pp))({"x": xs})
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
        yv, ypv, _ = Program((y0.y0, y0.y0p, y0.y0pp))({"x": xs})
        return evaluate(f.f_z, {"x": xs, "y": yv, "z": ypv})

    xs = grid.nodes
    dfz = (momentum(xs + h) - momentum(xs - h)) / (2.0 * h)
    yv, ypv, _ = Program((y0.y0, y0.y0p, y0.y0pp))({"x": xs})
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


# at a slice length of 4096, 2 x 4096 + 2 cells: nodes and midpoints both
# span two slices
@pytest.mark.parametrize("n", [64, 2 * 4096 + 2])
def test_certify_and_compare_sample_the_same_p_and_q(monkeypatch, corpus100, n):
    # certify's program and compare's are two programs composed along the
    # path, with and without the residual's partials; their p and q must
    # agree bit for bit, across chunk boundaries too
    monkeypatch.setattr(expr, "CHUNK", 4096)
    for _, f, y0 in corpus100:
        grid = Grid(y0.a, y0.b, n)
        for xs in (grid.nodes, grid.midpoints):
            _, p, q = certify_samples(f, y0, xs)
            want_p, want_q = coefficient_samples(f, y0, xs)
            assert np.array_equal(p, want_p) and np.array_equal(q, want_q)


_seeds = st.integers(0, 2 ** 32 - 1).map(np.random.default_rng)
_random_integrands = _seeds.map(lambda rng: random_tree(rng, 4, rules=True))
# paths in x alone: constant ones often, since y and z become constants too
_random_paths = _seeds.map(lambda rng: substitute(random_tree(rng, 3, rules=True),
                                                  {"y": X, "z": X}))


@settings(max_examples=60, deadline=None)
@given(_random_integrands, _random_paths, st.sampled_from([16, 2 * CHUNK + 2]))
# the residual's f_xz = 1/(2 sqrt(x)) fails at x = 0; p and q do not need it
@example(parse("sqrt(x)*z+z^2-y^2"), parse("0.5*x^2"), 16)
@example(parse("sqrt(x)*z+z^2-y^2"), parse("0.5*x^2"), 2 * CHUNK + 2)
@example(parse("z^2+sin(x)*y^2+exp(0.5*x)*y*z"), parse("0"), 16)
# along a constant path the terms in y and z are floats: a power that leaves
# the float range is inf there, as it is with y and z bound to arrays
@example(parse("z^2+(y+1e160)^4"), parse("0"), 16)
@example(parse("z^2+exp(-(y+1e160)^2)"), parse("0"), 16)
@example(parse("z^2+(y+1e-200)^-2*x"), parse("0"), 16)
# every partial is finite, but q = f_yy - f_xyz overflows
@example(parse("z^2-0.5e308*y^2+1e308*x*y*z"), parse("0"), 16)
# y0'' overflows where y0 and y0' do not, and reaches r as f_zz y0'' and q
# as f_yzz y0'' = 0*inf
@example(parse("z^2+y^2"), parse("exp(700*x)"), 16)
# p overflows and q's ln fails: compare meets p first, certify r's ln
@example(parse("1e308*(1+x)*z^2+y^2*ln(x-0.5)"), parse("0"), 16)
def test_samplers_equal_the_path_then_partials_sequence(e, path, n):
    # where the sequence gives finite (r,) p and q, the samplers give their
    # bits; elsewhere they raise the error of walking y0, (r,) p and q
    f = Integrand(e)
    y0 = Extremal(path, 0.0, 1.0)
    grid = Grid(0.0, 1.0, n)
    for sampler, residual in ((coefficient_samples, False), (certify_samples, True)):
        for xs in (grid.nodes, grid.midpoints):
            try:
                want = path_then_partials(f, y0, xs, residual)
            except EvalDomainError:
                want = None
            if want is not None and np.isfinite(want).all():
                assert np.array_equal(bits(sampler(f, y0, xs)), bits(want))
                continue
            with pytest.raises(EvalDomainError) as expected:
                walk_along(f, y0, xs, residual)
            with pytest.raises(EvalDomainError) as err:
                sampler(f, y0, xs)
            assert str(err.value) == str(expected.value)


@settings(max_examples=60, deadline=None)
@given(_random_integrands, _random_paths, st.sampled_from([16, 2 * CHUNK + 2]))
# each integrand is recentred on the path beside it; with y - x composed to
# the constant 0.0, ln and a negative power must fail as over an array of zeros
@example(parse("z^2*ln(y)"), parse("x"), 16)
@example(parse("z^2+y^-1"), parse("x"), 2 * CHUNK + 2)
# a path that overflows fails before any partial runs
@example(parse("z^2+y^3"), parse("exp(800*x)"), 16)
# along a constant path, y - 1 is 1 - 1 and z is not recentred
@example(parse("z^2+y^3"), parse("1"), 16)
def test_samplers_equal_the_sequence_on_recentred_integrands(e, path, n):
    # y - y0(x) and z - y0'(x) compose to the constant 0.0 along y0
    recentred = substitute(e, {"y": Expr("sub", (Y, path)),
                               "z": Expr("sub", (Z, diff(path, "x")))})
    test_samplers_equal_the_path_then_partials_sequence.hypothesis.inner_test(recentred, path, n)


def test_recentred_differences_compose_to_zero():
    # g1's integrand is recentred on x*(1-x), so without the fold its
    # program computes y0 - y0 and y0' - y0' over the whole grid
    f, y0 = recentred_problem()
    sub = expr._KERNELS["sub"]
    code = variational._along(f, y0, True)._code
    assert not [step for step in code if step[0] is sub and step[2] == step[3]]


# sha256 of both samplers' outputs; the problems are polynomials, so no libm
# routine sets a bit
_PINNED_SAMPLES = {
    # every partial and the path are constants
    "oscillator": "ad502fdb575dbf84d3a6796a52a28e9fe722e38ff8b05b958d83bfb84c898a29",
    "zero-path": "76456d524f7ac77a7f641d2ea558f7067141762f5b112e1358d76c0013b79842",
    "recentred": "9e95f8e3285bea4d80483f0ac721a0e6fa137c34aff9f1580e34324828bc13b1",
}


def _pinned_problem(name):
    if name == "oscillator":
        return Integrand.from_text("z^2-y^2"), Extremal.zero(0.0, 2.0)
    if name == "zero-path":
        return Integrand.from_text("(1+x^2)*z^2-(2+x)*y^2+y^3*z"), Extremal.zero(0.0, 1.0)
    return recentred_problem()


@pytest.mark.parametrize("name", sorted(_PINNED_SAMPLES))
def test_sampler_bits_are_pinned(name):
    # nodes and midpoints both span two slices
    f, y0 = _pinned_problem(name)
    grid = Grid(y0.a, y0.b, 2 * CHUNK + 2)
    samples = [values for xs in (grid.nodes, grid.midpoints)
               for sampler in (certify_samples, coefficient_samples)
               for values in sampler(f, y0, xs)]
    assert digest(samples) == _PINNED_SAMPLES[name]


def test_constant_partials_stay_floats():
    # along the zero path the oscillator's partials and path values are all
    # constants: a run of its program forms r, p and q as floats by the
    # chain rule, and assembly fills each
    f, y0 = _pinned_problem("oscillator")
    n = 2 * CHUNK + 2
    nodes = Grid(y0.a, y0.b, n).nodes
    values = variational._along(f, y0, True)._run({"x": nodes[:CHUNK]})
    assert [type(value) for value in values] == [float] * 4
    for sampler, wants in ((certify_samples, (0.0, 2.0, -2.0)), (coefficient_samples, (2.0, -2.0))):
        for values, want in zip(sampler(f, y0, nodes), wants, strict=True):
            assert isinstance(values, np.ndarray) and values.shape == (n + 1,)
            assert np.array_equal(bits(values), bits(np.full(n + 1, want)))


def test_compare_samples_where_the_residual_fails():
    f = Integrand.from_text("sqrt(x)*z+z^2-y^2")
    y0 = Extremal.zero(0.0, 1.0)
    nodes = Grid(0.0, 1.0, 16).nodes
    with pytest.raises(EvalDomainError, match="^domain error in 'div': division by zero$"):
        certify_samples(f, y0, nodes)
    p, q = coefficient_samples(f, y0, nodes)
    assert np.array_equal(p, np.full_like(nodes, 2.0))
    assert np.array_equal(q, np.full_like(nodes, -2.0))


def test_a_reparsed_problem_composes_and_compiles_nothing(monkeypatch):
    # a re-parsed equal problem finds the program composed along the path
    # for the first in the path table
    f = Integrand.from_text("z^2+0.1357913*sin(x)*y^2+exp(0.5*x)*y*z")
    y0 = Extremal.from_text("0.2468642*x^2", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 64)
    walk, init = variational._postorder, Program.__init__
    calls = []
    monkeypatch.setattr(variational, "_postorder",
                        lambda *args: calls.append("compose") or walk(*args))
    monkeypatch.setattr(Program, "__init__",
                        lambda *args, **kwargs: calls.append("compile") or init(*args, **kwargs))
    first = certify(f, y0, grid)
    assert "compose" in calls and "compile" in calls
    calls.clear()
    again = certify(Integrand.from_text(unparse(f.f)),
                    Extremal.from_text(unparse(y0.y0), 0.0, 1.0), grid)
    assert calls == []
    assert again == first


def _programs_along_paths():
    return sum(len(programs) for paths in variational._ALONG.values()
               for programs in paths.values())


def test_programs_along_paths_are_held_weakly():
    # an entry lives while its integrand and its path do, so the table
    # holds no more programs than there are live problems
    grid = Grid(0.0, 1.0, 16)
    gc.collect()
    before = _programs_along_paths()
    f = Integrand.from_text("z^2+0.9753186*cos(x)*y^2")
    y0 = Extremal.from_text("0.8642097*x^2", 0.0, 1.0)
    certify_samples(f, y0, grid.nodes)
    coefficient_samples(f, y0, grid.nodes)
    assert _programs_along_paths() == before + 2
    path = weakref.ref(y0.y0)
    del y0
    gc.collect()
    assert _programs_along_paths() == before
    assert path() is None

    y0 = Extremal.from_text("0.8642097*x^2", 0.0, 1.0)
    certify_samples(f, y0, grid.nodes)
    assert _programs_along_paths() == before + 1
    integrand = weakref.ref(f.f)
    del f
    gc.collect()
    assert _programs_along_paths() == before
    assert integrand() is None

    for k in range(1000):
        coefficient_samples(Integrand.from_text(f"z^2+{k}.25*y^2+y*z"), y0, grid.nodes)
    gc.collect()
    assert _programs_along_paths() == before


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
