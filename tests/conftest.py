"""Shared fixtures and random expression-tree machinery for the test suite."""

import numpy as np
import pytest

from varcert import Expr, const, evaluate, var, sample_corpus

_VARIABLES = ("x", "y", "z")
_UNARY = ("sin", "cos", "exp", "ln", "sqrt", "tan", "sinh", "cosh")


def eval_at(e: Expr, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> float:
    """The value of e at one point (x, y, z), as a Python float."""
    return float(evaluate(e, {"x": x, "y": y, "z": z}))


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
