"""Shared fixtures, references and random expression-tree machinery for the
test suite."""

import hashlib

import numpy as np
import pytest

from varcert import Expr, Extremal, GeneratorSpec, build, const, evaluate, parse, var, sample_corpus
from varcert.expr import Program, chunked

_VARIABLES = ("x", "y", "z")
_UNARY = ("sin", "cos", "exp", "ln", "sqrt", "tan", "sinh", "cosh")


def eval_at(e: Expr, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> float:
    """The value of e at one point (x, y, z), as a Python float."""
    return float(evaluate(e, {"x": x, "y": y, "z": z}))


def bits(value) -> np.ndarray:
    """The IEEE-754 bit patterns of a float, an array or a sequence of
    either, so that equal bits compare equal, nan and -0.0 included."""
    return np.asarray(value, dtype=float).view(np.int64)


def digest(arrays) -> str:
    """sha256 of the little-endian IEEE-754 bytes of a sequence of float
    arrays or sequences, one after another."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def recentred_problem():
    """An integrand built recentred on its extremal x(1-x) on [0, 0.5]: f
    reads y - y0(x) and z - y0'(x), and every term is a polynomial."""
    y0 = Extremal.from_text("x*(1-x)", 0.0, 0.5)
    f, _ = build(GeneratorSpec(P=parse("x*y+y^2"), qfun=parse("x*y"), pfun=parse("1+x^2"),
                               rho=parse("y*z"), a=0.0, b=0.5, y0=y0))
    return f, y0


def path_then_partials(f, y0, xs, residual: bool) -> tuple:
    """The reference for sequential sampling: (r,) p and q along y0 at xs as
    the path's program, then a program of the partials with y and z bound to
    the path's samples, make them, chunk by chunk."""
    path = Program((y0.y0, y0.y0p, y0.y0pp))
    partials = Program(((f.f_y, f.f_xz, f.f_yz) if residual else ())
                       + (f.f_zz, f.f_yy, f.f_xyz, f.f_yyz, f.f_yzz))

    def chunk(xs):
        yv, ypv, yppv = path({"x": xs})
        *r_parts, p, f_yy, f_xyz, f_yyz, f_yzz = partials({"x": xs, "y": yv, "z": ypv})
        with np.errstate(over="ignore", invalid="ignore"):
            q = f_yy - f_xyz - f_yyz * ypv - f_yzz * yppv
            if not residual:
                return p, q
            f_y, f_xz, f_yz = r_parts
            return f_y - f_xz - f_yz * ypv - p * yppv, p, q

    return chunked(chunk, xs)


def random_tree(rng: np.random.Generator, depth: int, rules: bool = False) -> Expr:
    """A random expression over x, y, z with bounded depth.

    Used by the derivative cross-check suite; domains are not constrained
    here, so callers must be prepared for evaluation-domain errors. With
    ``rules``, half the constants are exact 0.0, -0.0 or 1.0 and pow
    exponents run from -2 to 3, so the simplifier's identities fire often;
    without it, the draws are those of the default generator.
    """
    if depth == 0 or rng.random() < 0.28:
        if rng.random() < 0.45:
            if rules and rng.random() < 0.5:
                return const((0.0, -0.0, 1.0)[rng.integers(0, 3)])
            return const(float(rng.uniform(-2.0, 2.0)))
        return var(_VARIABLES[rng.integers(0, 3)])
    roll = rng.random()
    if roll < 0.55:
        op = ("add", "sub", "mul", "div")[rng.integers(0, 4)]
        return Expr(op, (random_tree(rng, depth - 1, rules), random_tree(rng, depth - 1, rules)))
    if roll < 0.65:
        return Expr("pow", (random_tree(rng, depth - 1, rules),),
                    int(rng.integers(-2 if rules else 2, 4)))
    if roll < 0.72:
        return Expr("neg", (random_tree(rng, depth - 1, rules),))
    return Expr(_UNARY[rng.integers(0, len(_UNARY))], (random_tree(rng, depth - 1, rules),))


@pytest.fixture(scope="session")
def corpus100():
    """The deterministic hundred-instance corpus on [0, 0.6], seed 0."""
    return sample_corpus(0, 100, 0.0, 0.6)
