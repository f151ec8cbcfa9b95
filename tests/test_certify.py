"""Verdict logic, quadratic coefficients, empirical probing."""

import hashlib
import importlib
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from varcert import (
    Certificate,
    EvalDomainError,
    Extremal,
    Grid,
    Integrand,
    LegendreError,
    MINIMUM_KINDS,
    PerturbationFamily,
    RANDOM_SPLINE,
    SINE_BASIS,
    Verdict,
    VerdictKind,
    certify,
    classify,
    compare_criteria,
    empirical_verify,
    functional_value,
    h1_norm_sq,
    length_bound,
    quad_coefficient,
    sample_corpus,
)
from varcert import expr, variational
from varcert.calculus import SampledPath
from varcert.certify import _clamped_spline, _normalized, _snapped_knots
from varcert.cli import main
from varcert.expr import CHUNK, Expr, Program, X, Y, Z, const, parse, unparse
from varcert.variational import certify_samples

from conftest import bits, digest, path_then_partials, recentred_problem, walk_along

PI_SQ = math.pi * math.pi


# ---------------------------------------------------------------------------
# length bound and coefficient formulas


def test_length_bound_values():
    assert length_bound(2.0, -2.0) == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert length_bound(1.0, -4.0) == pytest.approx(math.pi / 8.0, rel=1e-15)
    assert length_bound(1.0, 0.0) is None
    assert length_bound(1.0, 3.0) is None
    with pytest.raises(LegendreError):
        length_bound(0.0, -1.0)


def test_quad_coefficient_positive_q():
    assert quad_coefficient(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_quad_coefficient_zero_q():
    want = PI_SQ * 2.0 / (2.0 * (PI_SQ + 16.0))
    assert quad_coefficient(2.0, 0.0, 0.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_quad_coefficient_negative_q():
    want = (2.0 * PI_SQ - 8.0) / (2.0 * PI_SQ + 8.0)
    assert quad_coefficient(2.0, -2.0, 0.0, 0.5) == pytest.approx(want, rel=1e-12)


def test_quad_coefficient_picks_larger_formula_for_small_q():
    # for tiny positive q the length-weighted formula dominates min(p,q)/2
    small = quad_coefficient(2.0, 1e-6, 0.0, 1.0)
    assert small == pytest.approx(PI_SQ * 2.0 / (2.0 * (PI_SQ + 16.0)), rel=1e-12)


def test_quad_coefficient_none_when_interval_too_long():
    assert quad_coefficient(2.0, -2.0, 0.0, 2.0) is None


def test_quad_coefficient_requires_positive_p():
    with pytest.raises(LegendreError):
        quad_coefficient(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(LegendreError):
        quad_coefficient(-1.0, 1.0, 0.0, 1.0)


@given(st.floats(0.01, 5.0), st.floats(-5.0, 5.0), st.floats(0.05, 4.0))
def test_quad_coefficient_positive_when_present(p, q, length):
    c = quad_coefficient(p, q, 0.0, length)
    if c is not None:
        assert c > 0.0
        assert c <= 0.5 * p + 1e-12  # never better than the pure-slope weight


# ---------------------------------------------------------------------------
# classification


def _minima(f_text, a, b, n=64, y0_text="0"):
    # p_min and q_min over the nodes, as certify takes them
    f = Integrand.from_text(f_text)
    y0 = Extremal.from_text(y0_text, a, b)
    _, p, q = certify_samples(f, y0, Grid(a, b, n).nodes)
    return float(p.min()), float(q.min())


def test_classify_unconditional():
    verdict = classify(*_minima("y^2+0.5*z^2", 0.0, 10.0), 0.0, 0.0, 10.0)
    assert verdict.kind is VerdictKind.MINIMUM_UNCONDITIONAL
    assert verdict.length_bound is None


def test_classify_under_length_carries_bound():
    verdict = classify(*_minima("z^2-y^2", 0.0, 0.5), 0.0, 0.0, 0.5)
    assert verdict.kind is VerdictKind.MINIMUM_UNDER_LENGTH
    assert verdict.length_bound == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_classify_inconclusive_beyond_bound():
    verdict = classify(*_minima("z^2-y^2", 0.0, 1.0), 0.0, 0.0, 1.0)
    assert verdict.kind is VerdictKind.INCONCLUSIVE
    assert verdict.length_bound is None


def test_classify_legendre_failure():
    verdict = classify(*_minima("-z^2", 0.0, 1.0), 0.0, 0.0, 1.0)
    assert verdict.kind is VerdictKind.LEGENDRE_FAILED


def test_classify_stationarity_failure_wins():
    # a large residual is reported even when the profile also fails
    verdict = classify(*_minima("-z^2", 0.0, 1.0), 1.0, 0.0, 1.0, el_tol=1e-8)
    assert verdict.kind is VerdictKind.EL_FAILED


def test_classify_nan_residual_fails_stationarity():
    # nan > el_tol is false, and a path whose residual is nan is no extremal
    verdict = classify(1.0, 1.0, math.nan, 0.0, 1.0)
    assert verdict.kind is VerdictKind.EL_FAILED
    assert math.isnan(verdict.el_residual_max)


@pytest.mark.parametrize("el_tol", [math.nan, math.inf, -math.inf, -1e-8])
def test_classify_rejects_a_tolerance_no_residual_exceeds(el_tol):
    # y = x is no extremal of z^2+y^2 (residual 2), yet 2 > nan is false
    message = "^el_tol must be a finite non-negative number$"
    with pytest.raises(ValueError, match=message):
        classify(*_minima("z^2+y^2", 0.0, 1.0), 2.0, 0.0, 1.0, el_tol)
    with pytest.raises(ValueError, match=message):
        certify(Integrand.from_text("z^2+y^2"), Extremal.from_text("x", 0.0, 1.0),
                Grid(0.0, 1.0, 64), el_tol=el_tol)


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(VerdictKind.INCONCLUSIVE, 0.0, length_bound=1.0)
    with pytest.raises(ValueError):
        Verdict(VerdictKind.MINIMUM_UNDER_LENGTH, 0.0, length_bound=None)


def test_certificate_invariant():
    verdict = Verdict(VerdictKind.INCONCLUSIVE, 0.0)
    with pytest.raises(ValueError):
        Certificate(verdict, 1.0, -1.0, quad_coefficient=0.3)


def test_certificate_coefficient_must_be_positive():
    verdict = Verdict(VerdictKind.MINIMUM_UNCONDITIONAL, 0.0)
    with pytest.raises(ValueError, match="^quad_coefficient must be positive$"):
        Certificate(verdict, 1.0, 1.0, quad_coefficient=0.0)
    # q_min = 0 on an interval so long that pi^2 p / (2 (pi^2 + 16 L^2))
    # underflows: the verdict is unconditional, but no positive c remains
    with pytest.raises(ValueError, match="^quad_coefficient must be positive$"):
        certify(Integrand.from_text("z^2"), Extremal.zero(0.0, 1e200),
                Grid(0.0, 1e200, 8))


def test_verdict_and_coefficient_agree_at_the_boundary():
    # the classification and the coefficient use the same predicate, so a
    # certified verdict always carries a positive coefficient even when the
    # interval length sits within one ulp of the threshold
    p, q = 2.0, -2.0
    bound = length_bound(p, q)
    for b in (bound * (1 - 1e-15), bound, np.nextafter(bound, 0.0),
              np.nextafter(bound, 2.0), bound * (1 + 1e-15)):
        within = classify(*_minima("z^2-y^2", 0.0, b), 0.0, 0.0, b).kind
        coefficient = quad_coefficient(p, q, 0.0, b)
        if within is VerdictKind.MINIMUM_UNDER_LENGTH:
            assert coefficient is not None and coefficient > 0.0
        else:
            assert coefficient is None
    # pi^2 p and 16 L^2 |q| both overflow: no bound, and no nan coefficient
    assert classify(1e308, -1e308, 0.0, 0.0, 1e10).kind is VerdictKind.INCONCLUSIVE
    assert quad_coefficient(1e308, -1e308, 0.0, 1e10) is None


# ---------------------------------------------------------------------------
# end-to-end certification


def test_certify_oscillator_short():
    cert = certify(Integrand.from_text("z^2-y^2"), Extremal.zero(0.0, 0.5),
                   Grid(0.0, 0.5, 128))
    assert cert.verdict.kind is VerdictKind.MINIMUM_UNDER_LENGTH
    assert cert.p_min == pytest.approx(2.0)
    assert cert.q_min == pytest.approx(-2.0)
    want = (2.0 * PI_SQ - 8.0) / (2.0 * PI_SQ + 8.0)
    assert cert.quad_coefficient == pytest.approx(want, rel=1e-12)


def test_certify_rejects_non_extremal():
    cert = certify(Integrand.from_text("z^2-y^2"), Extremal.from_text("x", 0.0, 1.0),
                   Grid(0.0, 1.0, 64))
    assert cert.verdict.kind is VerdictKind.EL_FAILED
    assert cert.quad_coefficient is None


def test_domain_error_is_the_whole_array_error_across_chunks():
    # ln(0.9-x) fails only in the last chunks, sqrt(x-0.01) only in the
    # first; a whole-array pass meets ln first, a chunk-by-chunk one sqrt
    f = Integrand.from_text("z^2+ln(0.9-x)*y^2+sqrt(x-0.01)*y^2")
    y0 = Extremal.zero(0.0, 1.0)
    grid = Grid(0.0, 1.0, 65536)
    with pytest.raises(EvalDomainError, match="sqrt"):
        certify(f, Extremal.zero(0.0, 0.0625), Grid(0.0, 0.0625, CHUNK // 2))
    with pytest.raises(EvalDomainError) as err:
        certify(f, y0, grid)
    assert str(err.value) == "domain error in 'ln': argument not positive"


def _slice_lengths(n):
    # the lengths of the slices chunked evaluates n points in: CHUNK each,
    # the last one also taking the remainder; one slice below 2 CHUNK
    if n < 2 * CHUNK:
        return [n]
    return [CHUNK] * (n // CHUNK - 1) + [CHUNK + n % CHUNK]


def test_certify_runs_one_program_per_chunk(monkeypatch):
    # the path and f's partials composed along it, in x alone, once per chunk
    f = Integrand.from_text("z^2+sin(x)*y^2+exp(0.5*x)*y*z")
    y0 = Extremal.from_text("0.25*x^2", 0.0, 1.0)
    grid = Grid(0.0, 1.0, 65536)
    run = Program._run
    runs = []
    sizes = []

    def counted(program, env):
        runs.append(program)
        sizes.append(len(env["x"]))
        return run(program, env)

    monkeypatch.setattr(Program, "_run", counted)
    certify(f, y0, grid)
    assert len(runs) >= 2
    assert runs == [variational._along(f, y0, True)] * len(runs)
    assert sizes == _slice_lengths(grid.n + 1)


@pytest.fixture(scope="module")
def fold_problems():
    # the corpus, the oscillator, and one problem per family choice of the
    # fine-grid benchmark's slots, built with the generator's build
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    fine = inputs.draw_corpus("fine-grid", 1)
    assert len(fine) == len(inputs.FINE_SLOTS)
    corpus = sample_corpus(0, 100, 0.0, 0.6)
    return ([(f, y0) for _, f, y0 in corpus + fine]
            + [(Integrand.from_text("z^2-y^2"), Extremal.zero(0.0, 4.0))])


# one pass below 2 CHUNK points, slices from 2 CHUNK on
@pytest.mark.parametrize("n", [512, 2 * CHUNK - 2, 2 * CHUNK, 4 * CHUNK])
def test_certify_folds_to_the_reductions_of_the_samples(fold_problems, n):
    mismatched = []
    for f, y0 in fold_problems:
        grid = Grid(y0.a, y0.b, n)
        cert = certify(f, y0, grid)
        r, p, q = certify_samples(f, y0, grid.nodes)
        got = (cert.verdict.el_residual_max.hex(), cert.p_min.hex(), cert.q_min.hex())
        want = (float(np.max(np.abs(r))).hex(), float(p.min()).hex(), float(q.min()).hex())
        if got != want:
            mismatched.append((unparse(f.f), got, want))
    assert mismatched == []


def test_a_zero_q_min_is_minus_zero_when_some_q_is(tmp_path, capsys):
    # the third q underflows to -0.0 left of 0.3 and to +0.0 right of it;
    # the sign of q_min moves neither the verdict nor the exit code
    grid = Grid(0.0, 1.0, 4 * CHUNK)
    y0 = Extremal.zero(0.0, 1.0)
    outcomes = []
    for text, signs, want in (("z^2+1e-200*(x+0.3)*1e-200*y^2", {False}, 0.0),
                              ("z^2-1e-200*(x+0.3)*1e-200*y^2", {True}, -0.0),
                              ("z^2+1e-200*(x-0.3)*1e-200*y^2", {False, True}, -0.0)):
        f = Integrand.from_text(text)
        _, _, q = certify_samples(f, y0, grid.nodes)
        assert not q.any() and set(np.signbit(q).tolist()) == signs
        cert = certify(f, y0, grid)
        assert cert.q_min.hex() == want.hex()
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"integrand": text, "interval": {"a": 0.0, "b": 1.0},
                                    "extremal": "0", "grid_n": grid.n}))
        code = main(["certify", str(path)])
        out = capsys.readouterr().out
        # the report writes a zero without its point, and -0.0 as -0
        assert f'"q_min": {"-0" if math.copysign(1.0, want) < 0 else "0"},' in out
        outcomes.append((cert.verdict, cert.quad_coefficient, code, json.loads(out)["verdict"]))
    assert outcomes == [outcomes[0]] * 3
    assert outcomes[0][2] == 0


@pytest.mark.parametrize("text, message", [
    # sqrt's argument turns negative past x = 0.9, in the last slice
    ("z^2+sqrt(0.9-x)*y^2", "domain error in 'sqrt': negative argument"),
    # exp(800 x) overflows past x = 0.887
    ("z^2+exp(800*x)*y^2", "domain error in 'sub': non-finite result"),
])
def test_certify_raises_the_samplers_error_from_late_slices(text, message):
    f = Integrand.from_text(text)
    y0 = Extremal.zero(0.0, 1.0)
    grid = Grid(0.0, 1.0, 4 * CHUNK)
    with pytest.raises(EvalDomainError) as expected:
        certify_samples(f, y0, grid.nodes)
    with pytest.raises(EvalDomainError) as err:
        certify(f, y0, grid)
    assert str(err.value) == str(expected.value) == message


def test_certify_of_a_constant_problem_allocates_no_profile():
    # r, p and q of the oscillator along 0 are floats in every slice, and
    # the fold never fills them
    f = Integrand.from_text("z^2-y^2")
    y0 = Extremal.zero(0.0, 4.0)
    grid = Grid(0.0, 4.0, 4 * CHUNK)
    want = certify(f, y0, grid)  # compiles the program and builds the nodes
    tracemalloc.start()
    try:
        got = certify(f, y0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * (grid.n + 1)


def _two_pass(f, y0, grid):
    # certify's numbers as the path's program, then the partials', make them
    # where r, p and q are finite; None elsewhere
    try:
        r, p, q = path_then_partials(f, y0, grid.nodes, True)
    except EvalDomainError:
        return None
    if not np.isfinite((r, p, q)).all():
        return None
    return float(np.max(np.abs(r))), float(p.min()), float(q.min())


def _fused_combine(children):
    binary = st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), children,
                       children).map(lambda t: Expr(t[0], (t[1], t[2])))
    unary = st.tuples(st.sampled_from(["neg", "sin", "exp", "ln", "sqrt", "cosh"]),
                      children).map(lambda t: Expr(t[0], (t[1],)))
    power = st.tuples(children, st.integers(-2, 3)).map(lambda t: Expr("pow", (t[0],), t[1]))
    return st.one_of(binary, unary, power)


_coefficients = st.floats(-2.0, 2.0).map(lambda v: const(round(v, 3)))
_integrands = st.recursive(st.one_of(_coefficients, st.sampled_from([X, Y, Z])),
                           _fused_combine, max_leaves=8)
_paths = st.recursive(st.one_of(_coefficients, st.just(X)), _fused_combine, max_leaves=4)


@settings(max_examples=60, deadline=None)
@given(_integrands, _paths, st.sampled_from([16, 3 * CHUNK]))
# only q fails: f_yy = 2e308 overflows, f_y = 2e308*y is 0
@example(parse("z^2+1e308*y^2"), parse("0"), 3 * CHUNK)
# r fails in the last chunk (x > 0.9), q in the first (x < 0.1): the
# whole-grid pass meets r's first
@example(parse("z^2+1e308*(1-x)*y^2+y*ln(0.9-x)"), parse("0"), 3 * CHUNK)
@example(parse("z^2+1e308*(1-x)*y^2+y*ln(0.9-x)"), parse("0"), 16)
def test_fused_certify_pass_equals_the_two_pass_sequence(e, path, n):
    f = Integrand(e)
    y0 = Extremal(path, 0.0, 1.0)
    grid = Grid(0.0, 1.0, n)
    with np.errstate(all="ignore"):
        want = _two_pass(f, y0, grid)
        if want is None:
            with pytest.raises(EvalDomainError) as expected:
                walk_along(f, y0, grid.nodes, True)
            with pytest.raises(EvalDomainError) as err:
                certify(f, y0, grid)
            assert str(err.value) == str(expected.value)
            return
        cert = certify(f, y0, grid)
    got = cert.verdict.el_residual_max, cert.p_min, cert.q_min
    assert np.array_equal(bits(got), bits(want))


# sha256 of each corpus instance's verdict, p_min, q_min and
# quad_coefficient at n=512, by repr, which round-trips every float; the
# integrands call sin, cos and exp, as the pinned corpus bytes do
@pytest.mark.parametrize("b, want", [
    (0.6, "3fce840a8c57a4c760e66d08649e5de96f4e750537bb9c9b30bf3b4ba99b9005"),
    (1.0, "6aca69ad6c3a176b687c3ab2b413510c9edb3fcbe7d8d3195c612120eb10222c"),
])
def test_corpus_certificates_are_pinned(b, want):
    h = hashlib.sha256()
    for _, f, y0 in sample_corpus(0, 100, 0.0, b):
        cert = certify(f, y0, Grid(y0.a, y0.b, 512))
        h.update(repr((cert.verdict.kind.value, cert.p_min, cert.q_min,
                       cert.quad_coefficient)).encode() + b"\n")
    assert h.hexdigest() == want


def test_functional_value_dirichlet():
    grid = Grid(0.0, 1.0, 64)
    xs = grid.nodes
    path = SampledPath(grid, xs * (1 - xs), 1 - 2 * xs)
    # integral of (1-2x)^2 over [0,1] is 1/3; Simpson is exact on quadratics
    value = functional_value(Integrand.from_text("z^2"), path)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# perturbation families


def test_family_validation():
    with pytest.raises(ValueError):
        PerturbationFamily("triangle")
    with pytest.raises(ValueError):
        PerturbationFamily(SINE_BASIS, count=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        PerturbationFamily(RANDOM_SPLINE, seed=-1)


def test_sine_modes_need_two_cells_per_half_wave():
    # mode k has k half-waves over the grid's n cells
    grid = Grid(0.0, 1.0, 64)
    labels = [label for label, _ in PerturbationFamily(SINE_BASIS, count=32).paths(grid)]
    assert labels[-1] == "sine-32"
    message = r"^count must be <= grid\.n // 2 = 32 for sine modes \(two cells per half-wave\), got "
    for count in (33, 10 ** 20):
        # raised by the call, before a direction is built
        with pytest.raises(ValueError, match=message + str(count) + "$"):
            PerturbationFamily(SINE_BASIS, count=count).paths(grid)
    # a spline's size does not depend on the count
    assert len(list(PerturbationFamily(RANDOM_SPLINE, count=33).paths(Grid(0.0, 1.0, 16)))) == 33


def test_family_paths_normalized_zero_boundary():
    grid = Grid(0.0, 2.0, 128)
    for fam in (PerturbationFamily(SINE_BASIS, count=5),
                PerturbationFamily(RANDOM_SPLINE, count=5, seed=3)):
        paths = list(fam.paths(grid))
        assert len(paths) == 5
        for label, path in paths:
            assert path.y[0] == 0.0 and path.y[-1] == 0.0
            size = max(np.max(np.abs(path.y)), np.max(np.abs(path.yp)))
            assert size == pytest.approx(1.0, rel=1e-12)


def test_zero_perturbation_is_rejected():
    # scaling a direction to unit C1 size needs something to scale
    grid = Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="^perturbation is identically zero$"):
        _normalized(grid, np.zeros(9), np.zeros(9))


def test_family_deterministic():
    grid = Grid(0.0, 1.0, 64)
    a = PerturbationFamily(RANDOM_SPLINE, count=3, seed=11).paths(grid)
    b = PerturbationFamily(RANDOM_SPLINE, count=3, seed=11).paths(grid)
    for (la, pa), (lb, pb) in zip(a, b):
        assert la == lb
        assert np.array_equal(pa.y, pb.y) and np.array_equal(pa.yp, pb.yp)


def test_spline_family_on_coarse_grid_does_not_crash():
    grid = Grid(0.0, 1.0, 8)
    paths = list(PerturbationFamily(RANDOM_SPLINE, count=2).paths(grid))
    assert len(paths) == 2


def _scipy_clamped_spline(knots, values, xs):
    interpolate = pytest.importorskip("scipy.interpolate")
    spline = interpolate.CubicSpline(knots, values, bc_type="clamped")
    return spline(xs), spline(xs, 1)


def _spline_data(n, b, knots, seed):
    grid = Grid(0.0, b, n)
    values = np.random.default_rng((seed, n, knots)).uniform(-1.0, 1.0, knots + 2)
    values[0] = values[-1] = 0.0
    return _snapped_knots(grid, knots), values, grid.nodes


@pytest.mark.parametrize("knots", (2, 8, 30))
@pytest.mark.parametrize("b", (0.6, 4.0, 40.0))
@pytest.mark.parametrize("n", (2, 4, 512, 65536))
def test_clamped_spline_equals_scipy_bitwise(n, b, knots):
    # knot spacings above 1 (b = 4 and 40) take dgtsv's row-swap branch
    abscissae, values, xs = _spline_data(n, b, knots, 0)
    want_y, want_yp = _scipy_clamped_spline(abscissae, values, xs)
    y, yp = _clamped_spline(abscissae, values, xs)
    # compared as bit patterns, so the signs of zeros must agree too
    assert np.array_equal(y.view(np.int64), want_y.view(np.int64))
    assert np.array_equal(yp.view(np.int64), want_yp.view(np.int64))


@pytest.mark.parametrize("knots", (2, 8, 30))
@pytest.mark.parametrize("n", (2, 7, 4096, 65536))
def test_clamped_spline_beyond_random_knots_equals_scipy_bitwise(n, knots):
    # the end pieces carry on past the end knots, as scipy's extrapolation does
    rng = np.random.default_rng((n, knots))
    abscissae = np.sort(rng.uniform(0.5, 3.5, knots + 2))
    values = rng.uniform(-1.0, 1.0, knots + 2)
    xs = np.linspace(0.0, 4.0, n + 1)
    want_y, want_yp = _scipy_clamped_spline(abscissae, values, xs)
    y, yp = _clamped_spline(abscissae, values, xs)
    assert np.array_equal(y.view(np.int64), want_y.view(np.int64))
    assert np.array_equal(yp.view(np.int64), want_yp.view(np.int64))


@pytest.mark.parametrize("knots", (2, 8, 30))
@pytest.mark.parametrize("b", (0.6, 4.0, 40.0))
def test_clamped_spline_interpolates_with_zero_end_slopes(b, knots):
    abscissae, values, _ = _spline_data(4096, b, knots, 1)
    y, yp = _clamped_spline(abscissae, values, abscissae)
    assert np.allclose(y, values, rtol=0.0, atol=1e-14)
    # zero up to the rounding of the slope solve and of the last piece
    scale = np.max(np.abs(np.diff(values) / np.diff(abscissae)))
    assert abs(yp[0]) <= 1e-14 * scale and abs(yp[-1]) <= 1e-14 * scale


@pytest.mark.parametrize("knots", (2, 8, 30))
@pytest.mark.parametrize("b", (0.6, 4.0, 40.0))
def test_clamped_spline_is_c1_at_interior_knots(b, knots):
    # each interior knot is the end of one Hermite piece and the start of
    # the next; both pieces must agree there in value and slope
    abscissae, values, _ = _spline_data(4096, b, knots, 2)
    inner = abscissae[1:-1]
    left = np.nextafter(inner, -np.inf)
    y_left, yp_left = _clamped_spline(abscissae, values, left)
    y_at, yp_at = _clamped_spline(abscissae, values, inner)
    scale = 1.0 + np.max(np.abs(yp_at))
    assert np.allclose(y_left, y_at, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(yp_left, yp_at, rtol=0.0, atol=1e-9 * scale)


def test_verify_on_the_corpus_prints_what_the_scipy_spline_prints(
        tmp_path, capsys, monkeypatch):
    pytest.importorskip("scipy.interpolate")
    assert main(["generate", "--corpus", "0", "100"]) == 0
    problems = json.loads(capsys.readouterr().out)["problems"]
    paths = []
    for problem in problems:
        path = tmp_path / f"problem-{problem['index']}.json"
        path.write_text(json.dumps({key: problem[key]
                                    for key in ("integrand", "interval", "extremal")}))
        paths.append(str(path))

    def outputs():
        printed = []
        for path in paths:
            code = main(["verify", path])
            printed.append((code, capsys.readouterr().out))
        return printed

    ours = outputs()
    module = importlib.import_module("varcert.certify")
    monkeypatch.setattr(module, "_clamped_spline", _scipy_clamped_spline)
    assert ours == outputs()


# ---------------------------------------------------------------------------
# empirical verification


def test_empirical_verify_dirichlet_passes_every_rung():
    f = Integrand.from_text("0.5*z^2")
    y0 = Extremal.zero(0.0, 1.0)
    grid = Grid(0.0, 1.0, 256)
    cert = certify(f, y0, grid)
    for kind, count in ((SINE_BASIS, 6), (RANDOM_SPLINE, 4)):
        family = PerturbationFamily(kind, count)
        report = empirical_verify(f, y0, cert, family, grid)
        assert report.passed
        for check in report.checks:
            assert check.threshold == family.ladder[0]
            assert all(margin > 0.0 for margin in check.margins)


# verify's margins. The integrand is a polynomial and the directions are
# cubic splines, so every margin comes from + - * / and integer powers, and
# no libm routine sets a bit
@pytest.mark.parametrize("n, want", [
    (512, "2d8c29ab7010c424eb2b18e13c51d916fb8c8103d8c498dff3e5568a583ad4d1"),
    (4096, "65564bc249ac9104bda7614f932bd95f6b431320c51e8f1878466cfc92992ea7"),
])
def test_empirical_verify_margins_are_pinned(n, want):
    f, y0 = recentred_problem()
    grid = Grid(y0.a, y0.b, n)
    cert = certify(f, y0, grid)
    report = empirical_verify(f, y0, cert, PerturbationFamily(RANDOM_SPLINE, count=4), grid)
    assert [check.threshold for check in report.checks] == [0.1] * 4
    assert digest(check.margins for check in report.checks) == want


def test_empirical_verify_requires_coefficient():
    f = Integrand.from_text("z^2-y^2")
    y0 = Extremal.zero(0.0, 4.0)
    grid = Grid(0.0, 4.0, 128)
    cert = certify(f, y0, grid)
    assert cert.quad_coefficient is None
    with pytest.raises(ValueError):
        empirical_verify(f, y0, cert, PerturbationFamily(SINE_BASIS), grid)


def test_empirical_verify_samples_no_second_derivative():
    # y0'' = -1e320*sin(1e160*x) overflows, but the probes need only y0, y0'
    f = Integrand.from_text("y^2")
    y0 = Extremal.from_text("sin(1e160*x)", 0.0, 1.0)
    cert = Certificate(Verdict(VerdictKind.MINIMUM_UNCONDITIONAL, 0.0), 1.0, 1.0, 0.5)
    family = PerturbationFamily(SINE_BASIS, count=2)
    report = empirical_verify(f, y0, cert, family, Grid(0.0, 1.0, 16))
    assert [check.label for check in report.checks] == ["sine-1", "sine-2"]


def test_empirical_margin_matches_definition():
    f = Integrand.from_text("y^2+0.5*z^2")
    y0 = Extremal.zero(0.0, 1.0)
    grid = Grid(0.0, 1.0, 128)
    cert = certify(f, y0, grid)
    fam = PerturbationFamily(SINE_BASIS, count=1)
    eps = fam.ladder[0]
    report = empirical_verify(f, y0, cert, fam, grid)
    label, eta = next(fam.paths(grid))
    base_y, base_yp, _ = Program((y0.y0, y0.y0p, y0.y0pp))({"x": grid.nodes})
    bumped = SampledPath(grid, base_y + eps * eta.y, base_yp + eps * eta.yp)
    gap = (functional_value(f, bumped)
           - functional_value(f, SampledPath(grid, base_y, base_yp)))
    want = gap - cert.quad_coefficient * eps * eps * h1_norm_sq(eta)
    assert report.checks[0].margins[0] == pytest.approx(want, rel=1e-12)


def test_verify_computes_x_parts_once_per_call(monkeypatch):
    # sin(x) is the same on every pass, so one pass's chunks compute it and
    # the base path and 2 x 5 rungs read it; each pass is still one call
    f = Integrand.from_text("z^2+sin(x)*y^2")
    y0 = Extremal.zero(0.0, 1.0)
    grid = Grid(0.0, 1.0, 65536)
    cert = certify(f, y0, grid)
    sin = expr._KERNELS["sin"]
    sines = []

    def counted_sin(u, v, payload):
        sines.append(len(u))
        return sin(u, v, payload)

    passes = []

    def counted_value(*args):
        passes.append(args)
        return functional_value(*args)

    monkeypatch.setitem(expr._KERNELS, "sin", counted_sin)
    monkeypatch.setattr(importlib.import_module("varcert.certify"), "functional_value",
                        counted_value)
    report = empirical_verify(f, y0, cert, PerturbationFamily(SINE_BASIS, count=2), grid)
    assert report.passed
    assert len(passes) == 11
    assert len(sines) >= 2
    assert sines == _slice_lengths(grid.n + 1)


# a corpus-style integrand and its extremal sin(x) on [0, 0.6] (instance 2 of
# the seed-0 corpus), and the oscillator past its conjugate point
_SLICED_PROBLEMS = [
    ("-1.7646266154553225+0.8218082242256473*x+1.8494618449580233*(y-sin(x))"
     "+(-1.2843507815519515*x^2)+0.6024841786708586*x*(y-sin(x))"
     "+1.6589024435640116*(y-sin(x))^2"
     "+(-1.0+x*(1.8494618449580233+x*0.3012420893354293))*(z-cos(x))"
     "+0.5*(1.0+x^2+(y-sin(x))*(z-cos(x)))*(z-cos(x))^2", "sin(x)", 0.6),
    ("z^2-y^2", "0", 4.0),
]


def test_the_slice_length_changes_no_bit(monkeypatch):
    # evaluation is point by point, so certify, compare's march and both
    # verify ladders come out the same in 8 slices, at CHUNK, and in one
    n = 1024

    def bits(a):
        return np.asarray(a, dtype=float).tobytes()

    def run(f, y0, grid):
        cert = certify(f, y0, grid)
        sol = compare_criteria(f, y0, grid)
        reports = ()
        if cert.quad_coefficient is not None:
            reports = tuple(empirical_verify(f, y0, cert, PerturbationFamily(kind), grid)
                            for kind in (SINE_BASIS, RANDOM_SPLINE))
        return (cert, sol.conjugate_point, reports,
                *(bits(a) for a in (sol.U, sol.V, sol.p_of_x, sol.q_of_x)))

    outcomes = []
    for text, path, b in _SLICED_PROBLEMS:
        f = Integrand.from_text(text)
        y0 = Extremal.from_text(path, 0.0, b)
        grid = Grid(0.0, b, n)
        runs = []
        for length in (n // 8, CHUNK, n + 2):
            monkeypatch.setattr(expr, "CHUNK", length)
            runs.append(run(f, y0, grid))
        assert runs[0] == runs[1] == runs[2]
        outcomes.append(runs[0])
    (cert, _, reports, *_), (_, conjugate, _, *_) = outcomes
    assert cert.verdict.kind is VerdictKind.MINIMUM_UNCONDITIONAL and len(reports) == 2
    assert conjugate == pytest.approx(math.pi, abs=1e-2)


def test_empirical_threshold_semantics():
    # thresholds record the largest rung from which all smaller rungs hold
    from varcert.certify import _validated_threshold
    ladder = (1e-1, 3e-2, 1e-2)
    assert _validated_threshold(ladder, [True, True, True]) == 1e-1
    assert _validated_threshold(ladder, [False, True, True]) == 3e-2
    assert _validated_threshold(ladder, [True, False, True]) == 1e-2
    assert _validated_threshold(ladder, [True, True, False]) is None
