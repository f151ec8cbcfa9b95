"""Inverse-problem construction and the deterministic corpus."""

import math

import numpy as np
import pytest

from varcert import (
    AntiderivativeTable,
    Extremal,
    GeneratorError,
    GeneratorSpec,
    Grid,
    Integrand,
    LegendreError,
    antiderivative,
    build,
    certify,
    diff,
    evaluate,
    parse,
    sample_corpus,
    simplify,
    substitute,
    tabulate_antiderivative,
    unparse,
)
from varcert.certify import MINIMUM_KINDS
from varcert.expr import ZERO
from varcert.variational import certify_samples

from conftest import eval_at


# ---------------------------------------------------------------------------
# spec validation


def test_spec_scope_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(P=parse("z"))
    with pytest.raises(ValueError):
        GeneratorSpec(pfun=parse("1+y"))
    with pytest.raises(ValueError):
        GeneratorSpec(qfun=parse("z^2"))
    GeneratorSpec(rho=parse("y*z"))  # rho may use all three


def test_spec_interval_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(a=1.0, b=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(a=0.0, b=1.0, y0=Extremal.from_text("x", 0.0, 2.0))


# ---------------------------------------------------------------------------
# closed-form antiderivatives


def _check_antiderivative(rate_text, a=-1.0, b=2.0):
    rate = parse(rate_text)
    closed = antiderivative(rate)
    assert closed is not None, rate_text
    derivative = diff(closed, "x")
    xs = np.linspace(a, b, 257)
    want = evaluate(rate, {"x": xs}) * np.ones_like(xs)
    got = evaluate(derivative, {"x": xs}) * np.ones_like(xs)
    scale = 1.0 + float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) < 1e-10 * scale, rate_text
    return closed


@pytest.mark.parametrize("rate_text", [
    "3",
    "x^3-2*x",
    "(1+x)*(2-x)",
    "sin(3*x+1)",
    "cos(0.5*x)",
    "exp(-2*x)",
    "x*sin(x)",
    "x^2*exp(2*x)",
    "(x^2+1)*cos(3*x)",
    "(2*x+1)^3",
    "2*sin(x)-3*cos(2*x)",
    "sin(x)/4",
    "0.5*x^2*sin(0.7*x+0.2)",
])
def test_antiderivative_closed_forms(rate_text):
    _check_antiderivative(rate_text)


def test_antiderivative_by_parts_value():
    closed = _check_antiderivative("x*sin(x)")
    # definite integral from 0 to t is sin t - t cos t
    for t in (0.4, 1.7, 3.0):
        got = (evaluate(closed, {"x": t}) - evaluate(closed, {"x": 0.0}))
        assert got == pytest.approx(math.sin(t) - t * math.cos(t), abs=1e-12)


@pytest.mark.parametrize("rate_text", [
    "exp(x^2)",
    "sin(x)*cos(x)",
    "x^-1",
    "sin(x^2)",
    "exp(sin(x))",
])
def test_antiderivative_outside_capability(rate_text):
    assert antiderivative(parse(rate_text)) is None


def test_antiderivative_requires_x_only():
    assert antiderivative(parse("x*y")) is None


# ---------------------------------------------------------------------------
# tables


def test_tabulate_antiderivative_cosine():
    table = tabulate_antiderivative(np.cos, 0.0, 2.0, 512)
    assert table.values[0] == 0.0
    assert np.max(np.abs(table.values - np.sin(table.grid.nodes))) < 1e-10


def test_table_validation():
    grid = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        AntiderivativeTable(grid, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))  # nonzero start
    with pytest.raises(ValueError):
        AntiderivativeTable(grid, np.zeros(3))


# ---------------------------------------------------------------------------
# template assembly


def test_trivial_spec_collapses_to_dirichlet():
    assert build(GeneratorSpec())[0].f == parse("0.5*z^2")


def test_zero_path_is_always_stationary():
    cases = [
        GeneratorSpec(P=parse("x*y")),
        GeneratorSpec(P=parse("sin(x)*y"), pfun=parse("2+sin(x)")),
        GeneratorSpec(P=parse("x*y^3-y"), qfun=parse("x*y"), C=1.0),
        GeneratorSpec(P=parse("exp(x)*y^2"), rho=parse("y*z")),
    ]
    grid = Grid(0.0, 1.0, 128)
    zero = Extremal.zero(0.0, 1.0)
    for spec in cases:
        f, _ = build(spec)
        assert certify(f, zero, grid).verdict.el_residual_max < 1e-10


def test_linear_coefficient_structure():
    # P = sin(x) y gives A = 1 - cos(x); the slope coefficient at y = 0 is
    # C + A(x) and vanishes with C = 0 at x = 0
    f, _ = build(GeneratorSpec(P=parse("sin(x)*y")))
    linear = simplify(substitute(diff(f.f, "z"), {"y": ZERO, "z": ZERO}))
    for t in (0.0, 0.5, 1.0):
        assert evaluate(linear, {"x": t}) == pytest.approx(1.0 - math.cos(t), abs=1e-12)


def test_leading_coefficient_matches_pfun():
    spec = GeneratorSpec(P=parse("x*y"), pfun=parse("1+x^2"))
    f, _ = build(spec)
    xs = Grid(0.0, 1.0, 64).nodes
    _, p, _ = certify_samples(f, Extremal.zero(0.0, 1.0), xs)
    assert np.allclose(p, 1.0 + xs ** 2)


def test_pfun_positivity_enforced():
    with pytest.raises(LegendreError):
        build(GeneratorSpec(pfun=parse("sin(x)"), a=0.0, b=4.0))


def test_shifted_template_is_substitution():
    spec = GeneratorSpec(P=parse("x*y"), y0=Extremal.from_text("sin(x)", 0.0, 1.0))
    f, _ = build(spec)
    base, _ = build(GeneratorSpec(P=parse("x*y")))
    for t, u, w in ((0.3, 0.8, -0.2), (0.9, -1.0, 1.5)):
        want = eval_at(base.f, t, u - math.sin(t), w - math.cos(t))
        assert eval_at(f.f, t, u, w) == pytest.approx(want, rel=1e-12)


def test_shifted_path_is_stationary():
    spec = GeneratorSpec(P=parse("x*y^2"), qfun=parse("x*y"),
                         y0=Extremal.from_text("x*(1-x)", 0.0, 1.0))
    f, _ = build(spec)
    assert certify(f, spec.y0, Grid(0.0, 1.0, 128)).verdict.el_residual_max < 1e-10


def test_build_dispatch():
    # one entry point: a designated path recentres the zero-path template
    # and leaves the materialization of A(x) untouched
    spec = GeneratorSpec(P=parse("exp(x^2)*y"), a=0.0, b=0.6)
    shifted_spec = GeneratorSpec(P=parse("exp(x^2)*y"), a=0.0, b=0.6,
                                 y0=Extremal.from_text("sin(x)", 0.0, 0.6))
    f, info = build(spec)
    g, shifted_info = build(shifted_spec)
    assert isinstance(f, Integrand) and isinstance(g, Integrand)
    assert f.f != g.f
    assert shifted_info.a_path == info.a_path == "table"
    assert shifted_info.fit_degree == info.fit_degree
    assert np.array_equal(shifted_info.table.values, info.table.values)


def test_table_fallback_produces_certified_problem():
    spec = GeneratorSpec(P=parse("exp(x^2)*y"), a=0.0, b=0.6)
    f, info = build(spec)
    assert info.a_path == "table"
    assert info.fit_degree is not None
    assert info.fit_error is not None and info.fit_error < 1e-8 * 3.0
    assert info.table is not None and info.table.values[0] == 0.0
    grid = Grid(0.0, 0.6, 256)
    zero = Extremal.zero(0.0, 0.6)
    cert = certify(f, zero, grid)
    assert cert.verdict.el_residual_max < 1e-8
    assert cert.verdict.kind in MINIMUM_KINDS


def test_symbolic_path_reports_no_table():
    _, info = build(GeneratorSpec(P=parse("sin(x)*y")))
    assert info.a_path == "symbolic"
    assert info.table is None and info.fit_degree is None


# ---------------------------------------------------------------------------
# corpus


def test_corpus_requires_positive_count():
    with pytest.raises(ValueError):
        sample_corpus(0, 0, 0.0, 0.6)


def test_corpus_deterministic(corpus100):
    again = sample_corpus(0, 100, 0.0, 0.6)
    assert len(again) == len(corpus100) == 100
    for (s1, f1, y1), (s2, f2, y2) in zip(corpus100, again):
        assert f1.f == f2.f
        assert s1.C == s2.C
        assert unparse(y1.y0) == unparse(y2.y0)


def test_corpus_instances_certify_on_screen_grid(corpus100):
    grid = Grid(0.0, 0.6, 256)
    for spec, f, y0 in corpus100[:25]:
        cert = certify(f, y0, grid)
        assert cert.verdict.kind in MINIMUM_KINDS


def test_corpus_extremal_matches_spec(corpus100):
    for spec, f, y0 in corpus100:
        if spec.y0 is None:
            assert unparse(y0.y0) == unparse(ZERO)
        else:
            assert y0 is spec.y0


def test_corpus_prefix_property():
    # instance i depends only on (seed, i), so a shorter corpus is a prefix
    short = sample_corpus(0, 10, 0.0, 0.6)
    long = sample_corpus(0, 25, 0.0, 0.6)
    for (s1, f1, y1), (s2, f2, y2) in zip(short, long):
        assert f1.f == f2.f


def test_corpus_seed_changes_content():
    a = sample_corpus(0, 5, 0.0, 0.6)
    b = sample_corpus(1, 5, 0.0, 0.6)
    assert any(fa.f != fb.f for (_, fa, _), (_, fb, _) in zip(a, b))


def test_constant_slope_term_does_not_change_gaps():
    # the constant C multiplies z; on fixed-boundary comparisons its
    # contribution telescopes, so functional gaps are C-independent
    from varcert import functional_value
    from varcert.calculus import SampledPath

    grid = Grid(0.0, 1.0, 128)
    zero = Extremal.zero(0.0, 1.0)
    xs = grid.nodes
    eta_y = np.sin(math.pi * xs) * 0.01
    eta_yp = math.pi * np.cos(math.pi * xs) * 0.01
    eta_y[0] = eta_y[-1] = 0.0
    gaps = []
    for C in (-1.0, 0.0, 1.0):
        f, _ = build(GeneratorSpec(P=parse("x*y^2"), C=C))
        base = SampledPath(grid, np.zeros_like(xs), np.zeros_like(xs))
        bumped = SampledPath(grid, eta_y, eta_yp)
        gaps.append(functional_value(f, bumped) - functional_value(f, base))
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-12)
    assert gaps[2] == pytest.approx(gaps[1], abs=1e-12)
