"""Inverse-problem construction and the deterministic corpus."""

import math
import sys

import numpy as np
import pytest

from varcert import (
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
    unparse,
)
from varcert import generator
from varcert.certify import MINIMUM_KINDS, Certificate, Verdict, VerdictKind
from varcert.expr import ZERO, X, Expr, _postorder, const, free_vars
from varcert.variational import certify_samples

from conftest import eval_at, random_tree


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


@pytest.mark.parametrize("C", [math.inf, -math.inf, math.nan])
def test_spec_constant_must_be_finite(C):
    with pytest.raises(ValueError, match="^C must be a finite number$"):
        GeneratorSpec(P=parse("x*y"), C=C)


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


_CLOSED_FORMS = [
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
]


@pytest.mark.parametrize("rate_text", _CLOSED_FORMS)
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


# The recursive capability table that antiderivative replaces, kept as the
# reference; self-contained but for the expression core.

_REFERENCE_MAX_TERMS = 64
_REFERENCE_POLY_OPS = frozenset({"const", "var", "add", "sub", "mul", "neg", "pow"})


def _reference_is_polynomial(e):
    return free_vars(e) <= {"x"} and all(
        node.op in _REFERENCE_POLY_OPS and (node.op != "pow" or node.value >= 0)
        for node in _postorder(e))


def _reference_is_zero(e):
    return e.op == "const" and e.value == 0.0


def _reference_poly_coefficients(e):
    coefficients = []
    current = simplify(e)
    factorial = 1.0
    for k in range(_REFERENCE_MAX_TERMS):
        if _reference_is_zero(current):
            return coefficients
        coefficients.append(float(evaluate(current, {"x": 0.0})) / factorial)
        current = diff(current, "x")
        factorial *= k + 1.0
    return None


def _reference_horner(coefficients, variable):
    acc = const(float(coefficients[-1]))
    for c in reversed(coefficients[:-1]):
        acc = Expr("add", (const(float(c)), Expr("mul", (variable, acc))))
    return acc


def _reference_affine_slope(e):
    d = diff(e, "x")
    return d.value if d.op == "const" else None


def _reference_oscillator_slope(e):
    if e.op in ("sin", "cos", "exp"):
        slope = _reference_affine_slope(e.args[0])
        if slope is not None and slope != 0.0:
            return slope
    return None


def _reference_antiderivative(e):
    e = simplify(e)
    if free_vars(e) - {"x"}:
        return None
    return _reference_anti(e)


def _reference_anti(e):
    if not free_vars(e):
        return simplify(Expr("mul", (e, X)))
    if _reference_is_polynomial(e):
        coefficients = _reference_poly_coefficients(e)
        if coefficients is not None:
            shifted = [c / (k + 1.0) for k, c in enumerate(coefficients)]
            return simplify(Expr("mul", (X, _reference_horner(shifted, X))))
    op = e.op
    if op == "neg":
        inner = _reference_anti(e.args[0])
        return None if inner is None else Expr("neg", (inner,))
    if op in ("add", "sub"):
        left = _reference_anti(e.args[0])
        right = _reference_anti(e.args[1])
        if left is None or right is None:
            return None
        return Expr(op, (left, right))
    if op == "mul":
        left, right = e.args
        if not free_vars(left):
            inner = _reference_anti(right)
            return None if inner is None else Expr("mul", (left, inner))
        if not free_vars(right):
            inner = _reference_anti(left)
            return None if inner is None else Expr("mul", (right, inner))
        if _reference_is_polynomial(left) and _reference_oscillator_slope(right) is not None:
            return _reference_anti_product(left, right)
        if _reference_is_polynomial(right) and _reference_oscillator_slope(left) is not None:
            return _reference_anti_product(right, left)
        return None
    if op in ("sin", "cos", "exp"):
        slope = _reference_affine_slope(e.args[0])
        if slope is None or slope == 0.0:
            return None
        if op == "sin":
            return simplify(Expr("div", (Expr("neg", (Expr("cos", e.args),)), const(slope))))
        if op == "cos":
            return simplify(Expr("div", (Expr("sin", e.args), const(slope))))
        return simplify(Expr("div", (e, const(slope))))
    if op == "pow":
        base = e.args[0]
        n = e.value
        slope = _reference_affine_slope(base)
        if slope is None or slope == 0.0 or n == -1:
            return None
        return simplify(Expr("div", (Expr("pow", (base,), n + 1), const(slope * (n + 1)))))
    if op == "div":
        num, den = e.args
        if not free_vars(den):
            inner = _reference_anti(num)
            return None if inner is None else Expr("div", (inner, den))
    return None


def _reference_anti_product(poly, oscillator):
    result = None
    current = simplify(poly)
    chain = oscillator
    positive = True
    for _ in range(_REFERENCE_MAX_TERMS):
        chain = _reference_anti(chain)
        if chain is None:
            return None
        term = Expr("mul", (current, chain))
        result = term if result is None else Expr("add" if positive else "sub", (result, term))
        current = diff(current, "x")
        if _reference_is_zero(current):
            return simplify(result)
        positive = not positive
    return None


def _outcome(fn, e):
    try:
        return fn(e)
    except Exception as exc:  # the same error, raised at the same point
        return type(exc), str(exc)


_TABLE_CASES = _CLOSED_FORMS + [
    "exp(x^2)", "sin(x)*cos(x)", "x^-1", "sin(x^2)", "exp(sin(x))", "x*y",
    "x^70+x", "x^70*sin(x)", "-(x*exp(x))", "(x+1)*sin(x)*3", "sin(2*x)*x^3/5-4*cos(x)*x",
    "exp(x/3)*(x^2-1)", "-2*(x^2*cos(1-x))/3", "1/x", "tan(x)", "sin(x)/x", "ln(2)*sin(x)",
    "(3+ln(-1))*x", "sin(x)^2", "(1e200*x*1e200)*x", "x^70*(1e200*x*1e200)",
    "cos(x)*(1+x)^4", "x^65",
    "+".join(f"sin({k}*x)" for k in range(1, 200)),
]


@pytest.mark.parametrize("rate_text", _TABLE_CASES)
def test_antiderivative_matches_the_recursive_reference(rate_text):
    e = parse(rate_text)
    assert _outcome(antiderivative, e) == _outcome(_reference_antiderivative, e)


def test_antiderivative_matches_the_reference_on_corpus_and_random_rates(corpus100):
    rates = [substitute(diff(spec.P, "y"), {"y": ZERO}) for spec, _, _ in corpus100]
    rates += [substitute(random_tree(np.random.default_rng((11, seed)), 5, rules=True),
                         {"y": X, "z": X}) for seed in range(300)]
    closed = 0
    for e in rates:
        want = _outcome(_reference_antiderivative, e)
        assert _outcome(antiderivative, e) == want
        closed += isinstance(want, Expr)
    assert closed > 150


def test_a_2000_term_antiderivative_needs_no_recursion():
    terms = [parse(f"sin({k}*x)") for k in range(1, 2001)]
    rate = terms[0]
    for term in terms[1:]:
        rate = Expr("add", (rate, term))
    # the reference's sum rule, applied term by term
    want = _reference_antiderivative(terms[0])
    for term in terms[1:]:
        want = Expr("add", (want, _reference_antiderivative(term)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = antiderivative(rate)
    finally:
        sys.setrecursionlimit(limit)
    assert got is want


def test_polynomial_coefficients_are_computed_once_per_node(monkeypatch):
    # the root of x^70+x is past _MAX_POLY_TERMS and its sum rule waits for
    # its children, so the walk asks for its antiderivative twice
    expand = generator._poly_coefficients
    calls = []

    def counted(e):
        calls.append(e)
        return expand(e)

    monkeypatch.setattr(generator, "_poly_coefficients", counted)
    rate = parse("x^70+x")
    assert unparse(antiderivative(rate)) == "x^71/71.0+x*(x*0.5)"
    assert len(calls) == len(set(calls)) == 3


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
    linear = substitute(diff(f.f, "z"), {"y": ZERO, "z": ZERO})
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
    assert shifted_info.fit_error == info.fit_error


def test_table_fallback_produces_certified_problem():
    spec = GeneratorSpec(P=parse("exp(x^2)*y"), a=0.0, b=0.6)
    f, info = build(spec)
    assert info.a_path == "table"
    assert info.fit_degree is not None
    assert info.fit_error is not None and info.fit_error < 1e-8 * 3.0
    grid = Grid(0.0, 0.6, 256)
    zero = Extremal.zero(0.0, 0.6)
    cert = certify(f, zero, grid)
    assert cert.verdict.el_residual_max < 1e-8
    assert cert.verdict.kind in MINIMUM_KINDS


def test_stalled_fit_is_a_generator_error(monkeypatch):
    # a quartic cannot follow exp(3 x^2) on [0, 1] to the accepted residual
    monkeypatch.setattr(generator, "_FIT_DEGREES", (4,))
    message = (r"^no closed-form antiderivative and polynomial fitting stalled "
               r"\(best derivative residual 4\.076e-01\)$")
    with pytest.raises(GeneratorError, match=message):
        build(GeneratorSpec(P=parse("exp(3*x^2)*y"), a=0.0, b=1.0))


def test_symbolic_path_reports_no_table():
    _, info = build(GeneratorSpec(P=parse("sin(x)*y")))
    assert info.a_path == "symbolic"
    assert info.fit_degree is None and info.fit_error is None


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


def test_corpus_redraws_near_threshold_instances(monkeypatch):
    # with the safety margin at 1, an under-length instance must have a
    # length bound above twice the interval length, or it is redrawn
    plain = sample_corpus(0, 10, 0.0, 0.6)
    monkeypatch.setattr(generator, "_LENGTH_SAFETY", 1.0)
    strict = sample_corpus(0, 10, 0.0, 0.6)
    assert any(f1.f is not f2.f for (_, f1, _), (_, f2, _) in zip(plain, strict))
    grid = Grid(0.0, 0.6, generator._SCREEN_N)
    for _, f, y0 in strict:
        verdict = certify(f, y0, grid).verdict
        if verdict.kind is VerdictKind.MINIMUM_UNDER_LENGTH:
            assert verdict.length_bound - grid.length > grid.length


def test_corpus_raises_when_no_draw_passes(monkeypatch):
    silent = Certificate(Verdict(VerdictKind.INCONCLUSIVE, 0.0), 1.0, -1.0, None)
    monkeypatch.setattr(generator, "certify", lambda f, y0, grid: silent)
    with pytest.raises(GeneratorError, match="^no acceptable draw for corpus index 0$"):
        sample_corpus(0, 1, 0.0, 0.6)


@pytest.fixture(scope="module")
def drawn():
    """300 specs as sample_corpus draws them, 100 on each of three intervals,
    with the integrand each one builds and its designated path."""
    out = []
    for k, b in enumerate((0.6, 1.0, 2.0)):
        paths = (None, Extremal.from_text("sin(x)", 0.0, b),
                 Extremal.from_text(f"x*({b!r}-x)", 0.0, b))
        for i in range(100):
            spec = generator._draw(np.random.default_rng((k, i)), 0.0, b, paths)
            y0 = spec.y0 if spec.y0 is not None else Extremal.zero(0.0, b)
            out.append((spec, build(spec)[0], y0))
    return out


def test_early_screen_reads_p_and_q_off_the_construction(drawn):
    for spec, f, y0 in drawn:
        xs = Grid(spec.a, spec.b, generator._SCREEN_N).nodes
        p, q = generator._construction_p_and_q(spec, xs)
        _, p_built, q_built = certify_samples(f, y0, xs)
        tol = 1e-12 * (1.0 + np.max(np.abs(q_built)))
        assert np.max(np.abs(p - p_built)) <= tol
        assert np.max(np.abs(q - q_built)) <= tol


def _early_rejects_the_full_screen_accepts(drawn):
    # (early rejects, those among them that the full screen accepts)
    rejected = accepted = 0
    for spec, f, y0 in drawn:
        grid = Grid(spec.a, spec.b, generator._SCREEN_N)
        if not generator._fails_length_early(spec, grid):
            continue
        rejected += 1
        verdict = certify(f, y0, grid).verdict
        if verdict.kind is VerdictKind.MINIMUM_UNCONDITIONAL or (
                verdict.kind is VerdictKind.MINIMUM_UNDER_LENGTH
                and verdict.length_bound - grid.length > generator._LENGTH_SAFETY * grid.length):
            accepted += 1
    return rejected, accepted


def test_every_early_reject_is_a_full_reject(drawn, monkeypatch):
    rejected, accepted = _early_rejects_the_full_screen_accepts(drawn)
    assert rejected > 50 and accepted == 0
    # the check can fail: a screen that rejects at half the length bound
    # throws away draws the full screen keeps
    monkeypatch.setattr(generator, "_EARLY_MARGIN", -0.5)
    assert _early_rejects_the_full_screen_accepts(drawn)[1] > 0


def test_early_screen_leaves_a_failing_sample_to_the_full_screen():
    grid = Grid(0.0, 1.0, 256)
    # ln(x) fails at x = 0, so the early screen cannot read p there
    spec = GeneratorSpec(P=parse("-5*y^2"), pfun=parse("ln(x)"), a=0.0, b=1.0)
    assert generator._fails_length_early(spec, grid) is False
    spec = GeneratorSpec(P=parse("-5*y^2"), pfun=parse("1+x"), a=0.0, b=1.0)
    assert generator._fails_length_early(spec, grid) is True


def test_corpus_draws_parse_nothing(monkeypatch):
    parsed, paths = [], []
    real_parse, real_from_text = generator.parse, Extremal.from_text
    monkeypatch.setattr(generator, "parse", lambda text: parsed.append(text) or real_parse(text))
    monkeypatch.setattr(Extremal, "from_text", classmethod(
        lambda cls, text, a, b: paths.append(text) or real_from_text(text, a, b)))
    sample_corpus(0, 100, 0.0, 0.6)
    # the ingredients are parsed at import and the two designated paths
    # once per call; parsing them per draw would read 453 and 103
    assert (len(parsed), len(paths)) == (0, 2)


def test_corpus_seed_must_be_nonnegative():
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        sample_corpus(-1, 1, 0.0, 0.6)


def test_early_screen_skips_the_build_of_rejected_draws(monkeypatch):
    calls = []
    built = generator.build
    monkeypatch.setattr(generator, "build", lambda spec: calls.append(spec) or built(spec))
    for seed, count in ((0, 100), (7919, 30)):
        calls.clear()
        sample_corpus(seed, count, 0.0, 0.6)
        # the full screen alone builds 151 and 48
        assert len(calls) == count


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
