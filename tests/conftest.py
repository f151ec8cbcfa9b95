"""Shared fixtures, references and random expression-tree machinery for the
test suite."""

import hashlib

import numpy as np
import pytest

from varcert import (EvalDomainError, Expr, Extremal, GeneratorSpec, build, const, evaluate, parse,
                     var, sample_corpus)
from varcert.expr import ZERO, Y, Z, Program, chunked

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


def walk_along(f, y0, xs, residual: bool) -> None:
    """The reference for the samplers' errors, which it raises: f's partials
    composed with y -> y0(x) and z -> y0'(x) node for node, with A - A the
    constant 0.0 when A is y0, y0' or y0''; then y0, (r,) p and q walked at
    xs in turn, r and q by the chain rule, each checked finite after its
    walk."""
    path = (y0.y0, y0.y0p, y0.y0pp)
    composed = {Y: y0.y0, Z: y0.y0p}

    def compose(e):
        if e not in composed:
            args = tuple(map(compose, e.args))
            folded = e.op == "sub" and args[0] is args[1] and args[0] in path
            composed[e] = ZERO if folded else Expr(e.op, args, e.value)
        return composed[e]

    def at(e):
        return walk(compose(e), {"x": xs})

    def less_derivative(g, h_x, h_y, h_z):
        # g - d/dx h, with d/dx = ∂x + y0'∂y + y0''∂z
        return at(g) - at(h_x) - at(h_y) * at(Z) - at(h_z) * at(y0.y0pp)

    def check(op, value):
        if not np.all(np.isfinite(value)):
            raise EvalDomainError(op, "non-finite result")

    with np.errstate(all="ignore"):
        check(y0.y0.op, at(y0.y0))
        if residual:
            check("sub", less_derivative(f.f_y, f.f_xz, f.f_yz, f.f_zz))
        check(compose(f.f_zz).op, at(f.f_zz))
        check("sub", less_derivative(f.f_yy, f.f_xyz, f.f_yyz, f.f_yzz))


def walk(e, env):
    """e on floats or numpy arrays by the recursive tree walk that compiled
    programs replace, with the kernels' domain guards; no root check."""
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        try:
            return env[e.value]
        except KeyError:
            raise EvalDomainError("var", f"unbound variable {e.value!r}") from None
    if op == "add":
        return walk(e.args[0], env) + walk(e.args[1], env)
    if op == "sub":
        return walk(e.args[0], env) - walk(e.args[1], env)
    if op == "mul":
        return walk(e.args[0], env) * walk(e.args[1], env)
    if op == "div":
        num = walk(e.args[0], env)
        den = walk(e.args[1], env)
        if np.any(den == 0.0):
            raise EvalDomainError("div", "division by zero")
        return num / den
    if op == "pow":
        base = walk(e.args[0], env)
        if e.value < 0 and np.any(base == 0.0):
            raise EvalDomainError("pow", "zero base with negative exponent")
        return _binary_power(base, e.value)
    u = walk(e.args[0], env)
    if op == "neg":
        return -u
    if op == "sin":
        return np.sin(u)
    if op == "cos":
        return np.cos(u)
    if op == "tan":
        return np.tan(u)
    if op == "exp":
        return np.exp(u)
    if op == "ln":
        if np.any(u <= 0.0):
            raise EvalDomainError("ln", "argument not positive")
        return np.log(u)
    if op == "sqrt":
        if np.any(u < 0.0):
            raise EvalDomainError("sqrt", "negative argument")
        return np.sqrt(u)
    if op == "sinh":
        return np.sinh(u)
    if op == "cosh":
        return np.cosh(u)
    raise AssertionError(op)


def _binary_power(base, n):
    # base^|n| from the bits of |n|, lowest first: squares for the bits,
    # multiplied in where a bit is set; reciprocal for negative n
    if n == 0:
        return base ** 0
    squares = [base]
    for _ in range(abs(n).bit_length() - 1):
        squares.append(squares[-1] * squares[-1])
    power = None
    for bit, square in enumerate(squares):
        if abs(n) >> bit & 1:
            power = square if power is None else power * square
    if n < 0:
        power = np.divide(1.0, power)  # ±inf for ±0.0, on a float as on an array
    return power


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
