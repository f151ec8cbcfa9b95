"""Expression trees over the variables x, y, z.

Immutable nodes, a small recursive-descent parser, exact symbolic
differentiation with per-node caching, simplification by constant folding
and 0/1 identities, and numeric evaluation on scalars or numpy arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

Number = Union[float, np.ndarray]

VARIABLES = ("x", "y", "z")

_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh")
_UNARY = ("neg",) + _FUNCTIONS
_BINARY = ("add", "sub", "mul", "div")

_ARITY = {"const": 0, "var": 0, "pow": 1}
_ARITY.update({op: 1 for op in _UNARY})
_ARITY.update({op: 2 for op in _BINARY})

# exp/sinh/cosh argument ceiling keeping float64 finite
_OVERFLOW_ARG = 700.0


class ParseError(ValueError):
    """Expression text rejected; carries the offset of the first bad character."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"expected {expected} at offset {offset}")


class EvalDomainError(ValueError):
    """Evaluation left the domain of some node (ln, sqrt, div, pow, overflow)."""

    def __init__(self, op: str, detail: str):
        self.op = op
        super().__init__(f"domain error in '{op}': {detail}")


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree: children in ``args``, payload in ``value``.

    Payloads: ``const`` stores a float, ``var`` one of the variable names,
    ``pow`` a literal integer exponent (the base is the single child).
    """

    op: str
    args: tuple["Expr", ...] = ()
    value: Union[float, str, int, None] = None

    def __post_init__(self):
        arity = _ARITY.get(self.op)
        if arity is None:
            raise ValueError(f"unknown operator {self.op!r}")
        if len(self.args) != arity:
            raise ValueError(f"{self.op!r} expects {arity} children, got {len(self.args)}")
        if any(not isinstance(c, Expr) for c in self.args):
            raise TypeError("children must be Expr nodes")
        if self.op == "const":
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
                raise TypeError("const payload must be a real number")
            object.__setattr__(self, "value", float(self.value))
        elif self.op == "var":
            if self.value not in VARIABLES:
                raise ValueError(f"unknown variable {self.value!r}")
        elif self.op == "pow":
            if isinstance(self.value, bool) or not isinstance(self.value, int):
                raise TypeError("pow exponent must be a literal integer")
        elif self.value is not None:
            raise ValueError(f"{self.op!r} carries no payload")

    def __add__(self, other):
        return Expr("add", (self, as_expr(other)))

    def __radd__(self, other):
        return Expr("add", (as_expr(other), self))

    def __sub__(self, other):
        return Expr("sub", (self, as_expr(other)))

    def __rsub__(self, other):
        return Expr("sub", (as_expr(other), self))

    def __mul__(self, other):
        return Expr("mul", (self, as_expr(other)))

    def __rmul__(self, other):
        return Expr("mul", (as_expr(other), self))

    def __truediv__(self, other):
        return Expr("div", (self, as_expr(other)))

    def __rtruediv__(self, other):
        return Expr("div", (as_expr(other), self))

    def __neg__(self):
        return Expr("neg", (self,))

    def __pow__(self, exponent):
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise TypeError("exponent must be a literal integer")
        return Expr("pow", (self,), exponent)

    def __str__(self):
        return unparse(self)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot coerce bool to Expr")
    if isinstance(value, (int, float)):
        return Expr("const", (), float(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to Expr")


def const(value: float) -> Expr:
    return Expr("const", (), value)


def var(name: str) -> Expr:
    return Expr("var", (), name)


X = var("x")
Y = var("y")
Z = var("z")
ZERO = const(0.0)
ONE = const(1.0)


def sin(e) -> Expr:
    return Expr("sin", (as_expr(e),))


def cos(e) -> Expr:
    return Expr("cos", (as_expr(e),))


def tan(e) -> Expr:
    return Expr("tan", (as_expr(e),))


def exp(e) -> Expr:
    return Expr("exp", (as_expr(e),))


def ln(e) -> Expr:
    return Expr("ln", (as_expr(e),))


def sqrt(e) -> Expr:
    return Expr("sqrt", (as_expr(e),))


def sinh(e) -> Expr:
    return Expr("sinh", (as_expr(e),))


def cosh(e) -> Expr:
    return Expr("cosh", (as_expr(e),))


@lru_cache(maxsize=None)
def free_vars(e: Expr) -> frozenset:
    if e.op == "var":
        return frozenset((e.value,))
    out = frozenset()
    for child in e.args:
        out |= free_vars(child)
    return out


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, env: Mapping[str, Number]) -> Number:
    """Evaluate on floats or numpy arrays; raises EvalDomainError off-domain."""
    with np.errstate(all="ignore"):
        out = _evaluate(e, env)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError(e.op, "non-finite result")
    return out


def eval_at(e: Expr, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> float:
    return float(evaluate(e, {"x": x, "y": y, "z": z}))


def _evaluate(e: Expr, env: Mapping[str, Number]) -> Number:
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        try:
            return env[e.value]
        except KeyError:
            raise EvalDomainError("var", f"unbound variable {e.value!r}") from None
    if op == "add":
        return _evaluate(e.args[0], env) + _evaluate(e.args[1], env)
    if op == "sub":
        return _evaluate(e.args[0], env) - _evaluate(e.args[1], env)
    if op == "mul":
        return _evaluate(e.args[0], env) * _evaluate(e.args[1], env)
    if op == "div":
        num = _evaluate(e.args[0], env)
        den = _evaluate(e.args[1], env)
        if np.any(den == 0.0):
            raise EvalDomainError("div", "division by zero")
        return num / den
    if op == "pow":
        base = _evaluate(e.args[0], env)
        if e.value < 0 and np.any(base == 0.0):
            raise EvalDomainError("pow", "zero base with negative exponent")
        try:
            return base ** e.value
        except OverflowError:
            raise EvalDomainError("pow", "overflow") from None
    u = _evaluate(e.args[0], env)
    if op == "neg":
        return -u
    if op == "sin":
        return np.sin(u)
    if op == "cos":
        return np.cos(u)
    if op == "tan":
        return np.tan(u)
    if op == "exp":
        if np.any(u > _OVERFLOW_ARG):
            raise EvalDomainError("exp", "overflow")
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
        if np.any(np.abs(u) > _OVERFLOW_ARG):
            raise EvalDomainError("sinh", "overflow")
        return np.sinh(u)
    if op == "cosh":
        if np.any(np.abs(u) > _OVERFLOW_ARG):
            raise EvalDomainError("cosh", "overflow")
        return np.cosh(u)
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# differentiation


@lru_cache(maxsize=None)
def diff(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to one of x, y, z."""
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}")
    return simplify(_diff(e, name))


def _diff(e: Expr, name: str) -> Expr:
    op = e.op
    if op == "const":
        return ZERO
    if op == "var":
        return ONE if e.value == name else ZERO
    if op == "add":
        return Expr("add", (diff(e.args[0], name), diff(e.args[1], name)))
    if op == "sub":
        return Expr("sub", (diff(e.args[0], name), diff(e.args[1], name)))
    if op == "mul":
        u, v = e.args
        return Expr("add", (
            Expr("mul", (diff(u, name), v)),
            Expr("mul", (u, diff(v, name))),
        ))
    if op == "div":
        u, v = e.args
        return Expr("div", (
            Expr("sub", (
                Expr("mul", (diff(u, name), v)),
                Expr("mul", (u, diff(v, name))),
            )),
            Expr("pow", (v,), 2),
        ))
    if op == "pow":
        base = e.args[0]
        n = e.value
        if n == 0:
            return ZERO
        return Expr("mul", (
            Expr("mul", (const(float(n)), Expr("pow", (base,), n - 1))),
            diff(base, name),
        ))
    u = e.args[0]
    du = diff(u, name)
    if op == "neg":
        return Expr("neg", (du,))
    if op == "sin":
        return Expr("mul", (Expr("cos", (u,)), du))
    if op == "cos":
        return Expr("neg", (Expr("mul", (Expr("sin", (u,)), du)),))
    if op == "tan":
        return Expr("div", (du, Expr("pow", (Expr("cos", (u,)),), 2)))
    if op == "exp":
        return Expr("mul", (e, du))
    if op == "ln":
        return Expr("div", (du, u))
    if op == "sqrt":
        return Expr("div", (du, Expr("mul", (const(2.0), e))))
    if op == "sinh":
        return Expr("mul", (Expr("cosh", (u,)), du))
    if op == "cosh":
        return Expr("mul", (Expr("sinh", (u,)), du))
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# simplification


@lru_cache(maxsize=None)
def simplify(e: Expr) -> Expr:
    """Constant folding plus 0/1 identities; value-preserving off singularities."""
    if e.op in ("const", "var"):
        return e
    node = Expr(e.op, tuple(simplify(c) for c in e.args), e.value)
    folded = _fold(node)
    if folded is not None:
        return folded
    return _identities(node)


def _is_const(e: Expr, value=None) -> bool:
    return e.op == "const" and (value is None or e.value == value)


def _fold(node: Expr):
    if not node.args or not all(c.op == "const" for c in node.args):
        return None
    try:
        out = float(evaluate(node, {}))
    except (EvalDomainError, OverflowError):
        return None
    return const(out)


def _identities(node: Expr) -> Expr:
    op = node.op
    if op == "add":
        left, right = node.args
        if _is_const(left, 0.0):
            return right
        if _is_const(right, 0.0):
            return left
    elif op == "sub":
        left, right = node.args
        if _is_const(right, 0.0):
            return left
        if _is_const(left, 0.0):
            return simplify(Expr("neg", (right,)))
    elif op == "mul":
        left, right = node.args
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return ZERO
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
    elif op == "div":
        left, right = node.args
        if _is_const(right, 1.0):
            return left
        if _is_const(left, 0.0) and not _is_const(right, 0.0):
            return ZERO
    elif op == "neg":
        child = node.args[0]
        if child.op == "neg":
            return child.args[0]
        if child.op == "const":
            return const(-child.value)
    elif op == "pow":
        if node.value == 0:
            return ONE
        if node.value == 1:
            return node.args[0]
    return node


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions; no simplification is applied."""
    if e.op == "var":
        return mapping.get(e.value, e)
    if e.op == "const":
        return e
    return Expr(e.op, tuple(substitute(c, mapping) for c in e.args), e.value)


# ---------------------------------------------------------------------------
# parsing and rendering

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with the failing offset.

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
    factor := atom ('^' signed-integer)?; atom := number | variable |
    fname '(' expr ')' | '(' expr ')' | '-' factor. Whitespace-insensitive.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    return _Parser(text).run()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.pos = 0

    def run(self) -> Expr:
        node = self._expr()
        self._skip()
        if self.pos != self.n:
            raise ParseError(self.pos, "end of input")
        return node

    def _skip(self):
        while self.pos < self.n and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def _expr(self) -> Expr:
        node = self._term()
        while True:
            self._skip()
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                node = Expr("add", (node, self._term()))
            elif ch == "-":
                self.pos += 1
                node = Expr("sub", (node, self._term()))
            else:
                return node

    def _term(self) -> Expr:
        node = self._factor()
        while True:
            self._skip()
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                node = Expr("mul", (node, self._factor()))
            elif ch == "/":
                self.pos += 1
                node = Expr("div", (node, self._factor()))
            else:
                return node

    def _factor(self) -> Expr:
        node = self._atom()
        self._skip()
        if self._peek() == "^":
            self.pos += 1
            node = Expr("pow", (node,), self._exponent())
        return node

    def _exponent(self) -> int:
        self._skip()
        start = self.pos
        if self._peek() in "+-":
            self.pos += 1
        first_digit = self.pos
        while self._peek().isdigit():
            self.pos += 1
        if self.pos == first_digit:
            self.pos = start
            raise ParseError(start, "integer exponent")
        if self._peek() == ".":
            self.pos = start
            raise ParseError(start, "integer exponent (no decimal point)")
        return int(self.text[start:self.pos])

    def _atom(self) -> Expr:
        self._skip()
        ch = self._peek()
        if ch == "":
            raise ParseError(self.pos, "an operand")
        if ch == "(":
            self.pos += 1
            node = self._expr()
            self._close_paren()
            return node
        if ch == "-":
            self.pos += 1
            nxt = self._peek()
            if nxt.isdigit() or nxt == ".":
                # fold a directly attached literal into a negative constant so
                # that rendered constants like -2.5 round-trip; an exponent
                # still binds tighter than the sign
                value = self._number()
                self._skip()
                if self._peek() == "^":
                    self.pos += 1
                    return Expr("neg", (Expr("pow", (const(value),), self._exponent()),))
                return const(-value)
            return Expr("neg", (self._factor(),))
        if ch.isdigit() or ch == ".":
            return const(self._number())
        if ch.isalpha() or ch == "_":
            start = self.pos
            match = _NAME.match(self.text, self.pos)
            name = match.group(0)
            self.pos = match.end()
            if name in VARIABLES:
                return var(name)
            if name in _FUNCTIONS:
                self._skip()
                if self._peek() != "(":
                    raise ParseError(self.pos, f"'(' after {name}")
                self.pos += 1
                inner = self._expr()
                self._close_paren()
                return Expr(name, (inner,))
            raise ParseError(start, "a known function or variable name")
        raise ParseError(self.pos, "an operand")

    def _close_paren(self):
        self._skip()
        if self._peek() != ")":
            raise ParseError(self.pos, "')'")
        self.pos += 1

    def _number(self) -> float:
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            raise ParseError(self.pos, "a number")
        self.pos = match.end()
        return float(match.group(0))


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _prec(e: Expr) -> int:
    return _PRECEDENCE.get(e.op, 5)


def unparse(e: Expr) -> str:
    """Render to text that parses back to an equal tree."""
    op = e.op
    if op == "const":
        return repr(e.value)
    if op == "var":
        return e.value
    if op == "neg":
        child = e.args[0]
        # constants are parenthesized so "-(2.5)" stays distinct from the
        # negative literal -2.5
        if child.op != "const" and _prec(child) > _PRECEDENCE["neg"]:
            return "-" + unparse(child)
        return "-(" + unparse(child) + ")"
    if op == "pow":
        base = e.args[0]
        inner = unparse(base)
        if _prec(base) < 5 or inner.startswith("-"):
            inner = "(" + inner + ")"
        return f"{inner}^{e.value}"
    if op in _BINARY_SYMBOL:
        prec = _PRECEDENCE[op]
        left, right = e.args
        left_text = unparse(left)
        if _prec(left) < prec:
            left_text = "(" + left_text + ")"
        right_text = unparse(right)
        # leading minus after an operator reads badly ("x--1"); parenthesize
        if _prec(right) <= prec or right_text.startswith("-"):
            right_text = "(" + right_text + ")"
        return left_text + _BINARY_SYMBOL[op] + right_text
    return f"{op}({unparse(e.args[0])})"
