"""Expression core: construction, interning, parsing, differentiation, simplification, evaluation."""

import copy
import gc
import math
import pickle
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, assume, settings
import hypothesis.strategies as st

from varcert import (
    EvalDomainError,
    Expr,
    Extremal,
    Grid,
    Integrand,
    ParseError,
    VerdictKind,
    certify,
    compare_criteria,
    const,
    diff,
    evaluate,
    free_vars,
    parse,
    sample_corpus,
    shift,
    simplify,
    substitute,
    unparse,
    var,
)
from varcert import expr
from varcert.certify import _x_part_values
from varcert.expr import (
    _BINARY_SYMBOL,
    _KERNELS,
    _PRECEDENCE,
    CHUNK,
    ONE,
    VARIABLES,
    _FUNCTIONS,
    Program,
    X,
    Y,
    Z,
    ZERO,
    _make,
    _postorder,
    _prec,
    chunked,
)

from conftest import bits, eval_at, random_tree


# ---------------------------------------------------------------------------
# reference evaluator: the recursive tree walk the compiled programs replace


def _reference_evaluate(e, env):
    with np.errstate(all="ignore"):
        out = _walk(e, env)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError(e.op, "non-finite result")
    return out


def _walk(e, env):
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        try:
            return env[e.value]
        except KeyError:
            raise EvalDomainError("var", f"unbound variable {e.value!r}") from None
    if op == "add":
        return _walk(e.args[0], env) + _walk(e.args[1], env)
    if op == "sub":
        return _walk(e.args[0], env) - _walk(e.args[1], env)
    if op == "mul":
        return _walk(e.args[0], env) * _walk(e.args[1], env)
    if op == "div":
        num = _walk(e.args[0], env)
        den = _walk(e.args[1], env)
        if np.any(den == 0.0):
            raise EvalDomainError("div", "division by zero")
        return num / den
    if op == "pow":
        base = _walk(e.args[0], env)
        if e.value < 0 and np.any(base == 0.0):
            raise EvalDomainError("pow", "zero base with negative exponent")
        return _binary_power(base, e.value)
    u = _walk(e.args[0], env)
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


# ---------------------------------------------------------------------------
# reference passes: the recursive tree walks the iterative passes replace.
# ``memo`` maps a node to its simplified form and (node, name) to the
# derivative, as the memos on the nodes did.


def _reference_diff(e, name, memo):
    if (e, name) not in memo:
        memo[e, name] = _reference_simplify(_reference_diff_rule(e, name, memo), memo)
    return memo[e, name]


def _reference_diff_rule(e, name, memo):
    op = e.op
    if op == "const":
        return ZERO
    if op == "var":
        return ONE if e.value == name else ZERO
    if op == "add":
        return Expr("add", (_reference_diff(e.args[0], name, memo),
                            _reference_diff(e.args[1], name, memo)))
    if op == "sub":
        return Expr("sub", (_reference_diff(e.args[0], name, memo),
                            _reference_diff(e.args[1], name, memo)))
    if op == "mul":
        u, v = e.args
        return Expr("add", (
            Expr("mul", (_reference_diff(u, name, memo), v)),
            Expr("mul", (u, _reference_diff(v, name, memo))),
        ))
    if op == "div":
        u, v = e.args
        return Expr("div", (
            Expr("sub", (
                Expr("mul", (_reference_diff(u, name, memo), v)),
                Expr("mul", (u, _reference_diff(v, name, memo))),
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
            _reference_diff(base, name, memo),
        ))
    u = e.args[0]
    du = _reference_diff(u, name, memo)
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


def _reference_simplify(e, memo):
    if e not in memo:
        if e.op in ("const", "var"):
            memo[e] = e
        else:
            node = Expr(e.op, tuple(_reference_simplify(c, memo) for c in e.args), e.value)
            out = _reference_fold(node)
            memo[e] = _reference_identities(node, memo) if out is None else out
    return memo[e]


def _reference_fold(node):
    if not node.args or not all(c.op == "const" for c in node.args):
        return None
    first, second = node.args[0].value, node.args[-1].value
    try:
        with np.errstate(all="ignore"):
            out = _KERNELS[node.op](first, second, node.value)
    except EvalDomainError:
        return None
    if not np.isfinite(out):
        return None
    return const(float(out))


def _is_const(e, value):
    return e.op == "const" and e.value == value


def _reference_identities(node, memo):
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
            return _reference_simplify(Expr("neg", (right,)), memo)
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


def _reference_substitute(e, mapping):
    if e.op == "var":
        return mapping.get(e.value, e)
    if e.op == "const":
        return e
    return Expr(e.op, tuple(_reference_substitute(c, mapping) for c in e.args), e.value)


def _reference_unparse(e):
    op = e.op
    if op == "const":
        return repr(e.value)
    if op == "var":
        return e.value
    if op == "neg":
        child = e.args[0]
        if child.op != "const" and _prec(child) > _PRECEDENCE["neg"]:
            return "-" + _reference_unparse(child)
        return "-(" + _reference_unparse(child) + ")"
    if op == "pow":
        base = e.args[0]
        inner = _reference_unparse(base)
        if _prec(base) < 5 or inner.startswith("-"):
            inner = "(" + inner + ")"
        return f"{inner}^{e.value}"
    if op in _BINARY_SYMBOL:
        prec = _PRECEDENCE[op]
        left, right = e.args
        left_text = _reference_unparse(left)
        if _prec(left) < prec:
            left_text = "(" + left_text + ")"
        right_text = _reference_unparse(right)
        if _prec(right) <= prec or right_text.startswith("-"):
            right_text = "(" + right_text + ")"
        return left_text + _BINARY_SYMBOL[op] + right_text
    return f"{op}({_reference_unparse(e.args[0])})"


def _reference_postorder(e, done, leaf, order):
    if not leaf(e):
        for child in e.args:
            if child not in order and not done(child):
                _reference_postorder(child, done, leaf, order)
    order[e] = None
    return list(order)


def _reference_x_parts(f):
    # pre-order, so each part is listed when it is first met
    parts = []
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in seen or not node.args:
            continue
        seen.add(node)
        if free_vars(node) == {"x"}:
            parts.append(node)
        else:
            stack.extend(reversed(node.args))
    return tuple(parts)


class _ReferenceParser:
    """The recursive-descent parser that parse replaces."""

    _NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
    _NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

    def __init__(self, text):
        self.text = text
        self.n = len(text)
        self.pos = 0

    def run(self):
        node = self._expr()
        self._skip()
        if self.pos != self.n:
            raise ParseError(self.pos, "end of input")
        return node

    def _skip(self):
        while self.pos < self.n and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        return self.text[self.pos] if self.pos < self.n else ""

    def _expr(self):
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

    def _term(self):
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

    def _factor(self):
        node = self._atom()
        self._skip()
        if self._peek() == "^":
            self.pos += 1
            node = Expr("pow", (node,), self._exponent())
        return node

    def _exponent(self):
        self._skip()
        start = self.pos
        if self._peek() in "+-":
            self.pos += 1
        first_digit = self.pos
        while self._peek().isdecimal():
            self.pos += 1
        if self.pos == first_digit:
            self.pos = start
            raise ParseError(start, "integer exponent")
        if self._peek() == ".":
            self.pos = start
            raise ParseError(start, "integer exponent (no decimal point)")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            self.pos = start
            raise ParseError(start, "integer exponent")

    def _atom(self):
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
            match = self._NAME.match(self.text, self.pos)
            if match is None:
                raise ParseError(start, "a known function or variable name")
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

    def _number(self):
        match = self._NUMBER.match(self.text, self.pos)
        if match is None:
            raise ParseError(self.pos, "a number")
        value = float(match.group(0))
        if math.isinf(value):
            raise ParseError(self.pos, "a finite number")
        self.pos = match.end()
        return value


# ---------------------------------------------------------------------------
# construction and validation


def test_const_coerces_to_float():
    e = const(2)
    assert isinstance(e.value, float) and e.value == 2.0


def test_var_rejects_unknown_names():
    with pytest.raises(ValueError):
        var("t")


def test_pow_requires_integer_exponent():
    with pytest.raises(TypeError):
        Expr("pow", (X,), 2.5)


def test_arity_validation():
    with pytest.raises(ValueError):
        Expr("add", (X,))
    with pytest.raises(ValueError):
        Expr("sin", (X, Y))


@pytest.mark.parametrize("op, args, value, error, message", [
    ("foo", (X,), None, ValueError, "unknown operator 'foo'"),
    ("add", (X,), None, ValueError, "'add' expects 2 children, got 1"),
    ("const", (X,), 1.0, ValueError, "'const' expects 0 children, got 1"),
    ("add", (X, 1.0), None, TypeError, "children must be Expr nodes"),
    ("const", (), "2", TypeError, "const payload must be a real number"),
    ("const", (), True, TypeError, "const payload must be a real number"),
    ("var", (), "t", ValueError, "unknown variable 't'"),
    ("var", (), ["x"], ValueError, "unknown variable ['x']"),
    ("pow", (X,), 2.0, TypeError, "pow exponent must be a literal integer"),
    ("pow", (X,), True, TypeError, "pow exponent must be a literal integer"),
    ("add", (X, Y), 3, ValueError, "'add' carries no payload"),
])
def test_malformed_nodes_raise(op, args, value, error, message):
    # live nodes that 2.0 or True must not be taken for
    pinned = (Expr("pow", (X,), 2), Expr("pow", (X,), 1))
    with pytest.raises(error) as err:
        Expr(op, args, value)
    assert str(err.value) == message
    del pinned


# ---------------------------------------------------------------------------
# interning


def test_equal_nodes_are_one_node():
    text = "sin(x)*y^2+0.5*z^2"
    assert parse(text) is parse(text)
    assert Expr("const", (), 2) is const(2.0)
    assert Expr("add", [X, Y]) is parse("x+y")


def test_signed_zero_constants_stay_distinct():
    assert const(0.0) is not const(-0.0)
    assert const(-0.0) is const(-0.0)
    assert unparse(parse("-0.0")) == "-0.0"
    assert unparse(Expr("neg", (const(0.0),))) == "-(0.0)"


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        X.value = "y"


def test_copies_and_pickles_are_the_interned_node():
    e = parse("sin(x)*y^-2+0.25")
    assert copy.deepcopy(e) is e
    assert copy.copy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_repr_spells_out_the_tree():
    assert repr(parse("-sin(x)*2^-1")) == (
        "Expr(op='mul', args=(Expr(op='neg', args=(Expr(op='sin', args=("
        "Expr(op='var', args=(), value='x'),), value=None),), value=None), "
        "Expr(op='pow', args=(Expr(op='const', args=(), value=2.0),), value=-1)), "
        "value=None)")


def test_dropped_integrand_is_collected_with_its_memos():
    from varcert import Extremal, Grid, Integrand, certify

    f = Integrand.from_text("z^2+0.123456789*sin(x)*y^2+exp(0.5*x)*y*z")
    y0 = Extremal.from_text("0.2468*x^2", 0.0, 0.5)
    certify(f, y0, Grid(0.0, 0.5, 2 * CHUNK))
    refs = [weakref.ref(node) for node in (f.f, f.f_yy, y0.y0, y0.y0p, y0.y0pp)]
    del f, y0
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_free_vars():
    assert free_vars(parse("sin(x)*y^2")) == frozenset({"x", "y"})
    assert free_vars(const(3.0)) == frozenset()


# ---------------------------------------------------------------------------
# the passes against their recursive references


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
@example(0, 1, False)
def test_passes_match_the_recursive_references(seed, depth, rules):
    e = random_tree(np.random.default_rng(seed), depth, rules)
    assert _postorder(e) == _reference_postorder(e, lambda n: False, lambda n: False, {})
    done, leaf = (lambda n: n.op == "const"), (lambda n: n.op in ("mul", "sin"))
    assert _postorder(e, done, leaf) == _reference_postorder(e, done, leaf, {})
    memo = {}
    assert simplify(e) is _reference_simplify(e, memo)
    derivatives = [e]
    for name in VARIABLES:
        d = diff(e, name)
        assert d is _reference_diff(e, name, memo)
        assert diff(d, "z") is _reference_diff(d, "z", memo)
        derivatives.append(d)
    mapping = {"y": Expr("add", (Y, parse("sin(x)"))), "z": Expr("sub", (Z, const(0.0)))}
    for d in derivatives:
        assert substitute(d, mapping) is simplify(_reference_substitute(d, mapping))
        assert unparse(d) == _reference_unparse(d)
        assert Integrand(d).x_parts == _reference_x_parts(d)


def test_a_5000_term_integrand_needs_no_recursion():
    # each sum nests one level deeper than the last; at the recursion limit
    # of a fresh interpreter, any pass that recursed on the tree would fail
    text = "z^2+" + "+".join(f"{k}e-8*y^2" for k in range(1, 5001))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        f = Integrand.from_text(text)
        y0 = Extremal.zero(0.0, 0.5)
        grid = Grid(0.0, 0.5, 64)
        cert = certify(f, y0, grid)
        comparison = compare_criteria(f, y0, grid)
        shifted = shift(f, y0)
        round_trip = parse(unparse(f.f))
        renamed = substitute(f.f, {"y": Y})
        names = free_vars(f.f)
    finally:
        sys.setrecursionlimit(limit)
    # q = f_yy = 2e-8 * (1 + 2 + ... + 5000) = 0.25005
    assert cert.verdict.kind is VerdictKind.MINIMUM_UNCONDITIONAL
    assert (cert.p_min, cert.q_min) == (2.0, pytest.approx(0.25005))
    assert comparison.conjugate_point is None
    assert shifted.f is f.f and round_trip is f.f and renamed is f.f
    assert names == frozenset({"y", "z"})


def test_a_5000_term_tree_copies_pickles_and_prints_without_recursion():
    text = "z^2+" + "+".join(f"{k}e-8*y^2" for k in range(1, 5001))
    f = parse(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        copied = copy.deepcopy(f)
        pickled = pickle.loads(pickle.dumps(f))
        printed = repr(f)
    finally:
        sys.setrecursionlimit(limit)
    assert copied is f and pickled is f
    # z^2 is 2 nodes, each term adds an add, a mul, a const and y^2 (2 nodes)
    assert printed.count("Expr(") == 2 + 5 * 5000
    assert printed.startswith("Expr(op='add', args=(Expr(op='add', ")


def test_diff_and_simplify_intern_only_simplified_nodes(monkeypatch):
    # every node the passes intern is its own simplified form: no textbook
    # derivative or unsimplified copy is built and thrown away. A new node is
    # recorded when a diff or simplify call is on the stack.
    import varcert.expr as expr_module

    passes = {diff.__code__, simplify.__code__}
    made = []
    check = expr_module._check_node

    def recording(op, args, value):
        check(op, args, value)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in passes:
            frame = frame.f_back
        if frame is not None:
            made.append((op, args, value))

    monkeypatch.setattr(expr_module, "_check_node", recording)
    trees = [random_tree(np.random.default_rng((5, seed)), 5, rules=True) for seed in range(300)]
    results = [simplify(e) for e in trees]
    results += [diff(diff(e, name), "z") for e in trees for name in VARIABLES]
    from_trees = len(made)
    # a corpus no other test draws, so its nodes are new; drawing it
    # screens every instance, which takes every partial the test needs
    sample_corpus(2, 100, 0.0, 0.6)
    assert from_trees > 1000 and len(made) - from_trees > 1000
    for op, args, value in made:
        assert _make(op, args, value) is Expr(op, args, value)


# ---------------------------------------------------------------------------
# parsing


def test_parse_precedence_and_power():
    e = parse("2*x+y^2*z")
    assert eval_at(e, 3.0, 2.0, 5.0) == pytest.approx(6.0 + 4.0 * 5.0)


def test_parse_unary_functions():
    e = parse("sin(x)+cos(y)*exp(z)")
    assert eval_at(e, 0.5, 0.25, 0.1) == pytest.approx(
        math.sin(0.5) + math.cos(0.25) * math.exp(0.1))


def test_negative_literal_binds_tighter_than_power():
    # -2.0^3 reads as -(2.0^3), matching written convention
    assert eval_at(parse("-2.0^3"), 0, 0, 0) == pytest.approx(-8.0)
    assert eval_at(parse("(-2.0)^3"), 0, 0, 0) == pytest.approx(-8.0)
    assert eval_at(parse("-2.0^2"), 0, 0, 0) == pytest.approx(-4.0)
    assert eval_at(parse("(-2.0)^2"), 0, 0, 0) == pytest.approx(4.0)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("z^^2")
    assert "offset 2" in str(err.value)
    with pytest.raises(ParseError):
        parse("2*")
    with pytest.raises(ParseError):
        parse("(1+2")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("x^2.5")


@pytest.mark.parametrize("text, offset, expected", [
    ("1e999*x", 0, "a finite number"),
    ("x*-" + "9" * 400, 3, "a finite number"),
    ("z^2+x^" + "9" * 5000, 6, "integer exponent"),
], ids=["overflowing-number", "overflowing-signed-number", "exponent-of-5000-digits"])
def test_literals_no_float_or_int_holds_are_parse_errors(text, offset, expected):
    # an infinite constant would unparse to "inf", which does not parse back;
    # int() refuses more than 4300 digits with a bare ValueError
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected) == (offset, expected)


def test_whitespace_is_insignificant():
    assert parse(" 1 + 2 * x ") == parse("1+2*x")


def _reference_parse(text):
    return _ReferenceParser(text).run()


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return exc.offset, exc.expected


# the pieces texts are made of, with characters on which str methods and
# the regexes disagree: a superscript digit, a non-ASCII digit and letter,
# and a separator that is whitespace
_TOKENS = ["x", "y", "z", "q", "_a", "sin", "cos(", "exp(", "sqrt", "(", ")", "+", "-", "*",
           "/", "^", "2", "0.5", "1e3", "1e", "3.", ".", "e", " ", "\t", "\x1c", "\u00b2",
           "\u0663", "\u00e9"]
_space = st.sampled_from(["", "", "", " ", "\t", "\x1c"])
_operands = st.sampled_from(["x", "y", "z", "2", "0.5", ".5", "3.", "1e-3", "2.5E+2", "\u0663"])


def _grammar(inner):
    return st.one_of(
        st.tuples(inner, _space, st.sampled_from("+-*/"), _space, inner).map("".join),
        st.tuples(st.sampled_from(["("] + [f"{name}(" for name in _FUNCTIONS]), _space, inner,
                  _space, st.just(")")).map("".join),
        st.tuples(st.just("-"), _space, inner).map("".join),
        st.tuples(inner, _space, st.just("^"), _space,
                  st.sampled_from(["2", "-1", "+3", "0", "12"])).map("".join),
    )


_valid_texts = st.recursive(_operands, _grammar, max_leaves=12)
_malformed_texts = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
    st.tuples(_valid_texts, st.integers(0, 60), st.sampled_from(_TOKENS), st.integers(0, 2))
    .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + t[3]:]),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_valid_texts, _malformed_texts))
@example("-2.5")
@example("-2^2")
@example("x^2^3")
@example("-x^2^3")
@example("--2 ^3^4*- 2")
@example("sin (x) ^ -2")
@example("x^ - 2")
@example("1e999*x")
@example("z^2+x^" + "9" * 5000)
def test_parse_matches_the_recursive_reference(text):
    # the same node, or the same (offset, expected)
    assert _parse_outcome(parse, text) == _parse_outcome(_reference_parse, text)


def test_deep_texts_parse_without_recursion():
    n = 10000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        long_sum = parse("+".join(["x"] * 100000))
        parentheses = parse("(" * n + "x" + ")" * n)
        sines = parse("sin(" * n + "x" + ")" * n)
        minuses = parse("-" * n + "x")
    finally:
        sys.setrecursionlimit(limit)
    want = X
    for _ in range(100000 - 1):
        want = Expr("add", (want, X))
    assert long_sum is want
    assert parentheses is X
    for op, got in (("sin", sines), ("neg", minuses)):
        want = X
        for _ in range(n):
            want = Expr(op, (want,))
        assert got is want


# ---------------------------------------------------------------------------
# round trips


_ROUND_TRIP_TEXTS = [
    "0.5*z^2",
    "y^2+0.5*z^2",
    "z^2-y^2",
    "sin(x)*y^2",
    "x*(0.6-x)",
    "-2.0^3",
    "((x+y)*z)^3",
    "1/(1+x^2)",
    "-(x)",
    "exp(-(x^2))",
]


@pytest.mark.parametrize("text", _ROUND_TRIP_TEXTS)
def test_unparse_round_trip_fixed(text):
    e = parse(text)
    assert parse(unparse(e)) == e


_constants = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                       allow_infinity=False).map(lambda v: const(round(v, 6)))
_leaves = st.one_of(_constants, st.sampled_from([X, Y, Z]))


def _combine(children):
    binary = st.tuples(st.sampled_from(["add", "sub", "mul", "div"]),
                       children, children).map(lambda t: Expr(t[0], (t[1], t[2])))
    unary = st.tuples(st.sampled_from(["sin", "cos", "exp", "neg"]),
                      children).map(lambda t: Expr(t[0], (t[1],)))
    power = st.tuples(children, st.integers(min_value=2, max_value=4)).map(
        lambda t: Expr("pow", (t[0],), t[1]))
    return st.one_of(binary, unary, power)


_trees = st.recursive(_leaves, _combine, max_leaves=20)


@given(_trees)
def test_unparse_round_trip_random(e):
    assert parse(unparse(e)) == e


@given(_trees,
       st.floats(-2.0, 2.0, allow_nan=False),
       st.floats(-2.0, 2.0, allow_nan=False),
       st.floats(-2.0, 2.0, allow_nan=False))
def test_simplify_preserves_values(e, x, y, z):
    try:
        before = eval_at(e, x, y, z)
    except EvalDomainError:
        assume(False)
    after = eval_at(simplify(e), x, y, z)
    assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


def test_simplify_identities():
    assert simplify(parse("x+0")) == X
    assert simplify(parse("1*y")) == Y
    assert simplify(parse("0*sin(x)")) == ZERO
    assert simplify(parse("z^0")) == ONE
    assert simplify(parse("z^1")) == Z
    assert simplify(parse("0/(1+x)")) == ZERO
    assert simplify(parse("2+3*4")) == const(14.0)
    assert simplify(Expr("neg", (Expr("neg", (X,)),))) == X
    # 0 - u becomes -u, and the neg rules then apply to it
    assert simplify(parse("0-(-x)")) == X
    assert simplify(parse("0-y")) == Expr("neg", (Y,))


def test_folds_raise_no_warning():
    # Python floats overflow to inf quietly, so only the folds of numpy's
    # functions, which warn on an overflow or an infinity, need numpy's
    # warnings silenced
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in ("sin", "cos", "tan"):
            assert _make(op, (const(math.inf),)) is Expr(op, (const(math.inf),))
        for op, u in (("exp", 1000.0), ("sinh", -1000.0), ("cosh", 1000.0)):
            assert _make(op, (const(u),)) is Expr(op, (const(u),))
        for op, left, right in (("add", 1e308, 1e308), ("sub", math.inf, math.inf),
                                ("mul", 1e308, 10.0), ("div", 1e308, 1e-308)):
            node = Expr(op, (const(left), const(right)))
            assert _make(op, node.args) is node
        # a power out of the float range is ±inf, so it is left unfolded too
        for base, n in ((1e200, 3), (1e-200, -2), (-1e-200, -3)):
            node = Expr("pow", (const(base),), n)
            assert _make("pow", node.args, n) is node


def test_simplify_leaves_domain_errors_unfolded():
    # constant folding must not raise on expressions that cannot evaluate
    e = parse("1/(2-2)")
    s = simplify(e)
    with pytest.raises(EvalDomainError):
        evaluate(s, {})


# ---------------------------------------------------------------------------
# differentiation


def test_diff_polynomial():
    e = parse("x^3+2*x")
    d = diff(e, "x")
    for t in (-1.5, 0.0, 0.7, 2.0):
        assert eval_at(d, t, 0, 0) == pytest.approx(3 * t * t + 2)


def test_diff_product_and_chain():
    e = parse("sin(x^2)*y")
    dx = diff(e, "x")
    dy = diff(e, "y")
    t, u = 0.8, 1.7
    assert eval_at(dx, t, u, 0) == pytest.approx(2 * t * math.cos(t * t) * u)
    assert eval_at(dy, t, u, 0) == pytest.approx(math.sin(t * t))


def test_diff_quotient():
    e = parse("x/(1+y^2)")
    dy = diff(e, "y")
    t, u = 2.0, 0.5
    assert eval_at(dy, t, u, 0) == pytest.approx(-t * 2 * u / (1 + u * u) ** 2)


def test_diff_special_functions():
    checks = [
        ("tan(x)", lambda t: 1.0 / math.cos(t) ** 2),
        ("ln(x)", lambda t: 1.0 / t),
        ("sqrt(x)", lambda t: 0.5 / math.sqrt(t)),
        ("sinh(x)", math.cosh),
        ("cosh(x)", math.sinh),
        ("exp(2*x)", lambda t: 2.0 * math.exp(2 * t)),
    ]
    for text, want in checks:
        d = diff(parse(text), "x")
        for t in (0.3, 1.1):
            assert eval_at(d, t, 0, 0) == pytest.approx(want(t), rel=1e-12), text


def test_diff_wrt_absent_variable_is_zero():
    assert diff(parse("sin(x)"), "z") == ZERO


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_vectorized():
    xs = np.linspace(0.0, 1.0, 11)
    out = evaluate(parse("x^2+1"), {"x": xs})
    assert np.allclose(out, xs ** 2 + 1)


def test_scalar_roots_are_filled_to_the_first_array():
    xs = np.linspace(0.0, 1.0, 5)
    two, scaled = Program((const(2.0), parse("3*y")))({"x": xs, "y": 0.5})
    assert np.array_equal(two, np.full(5, 2.0))
    assert np.array_equal(scaled, np.full(5, 1.5))
    got = evaluate(const(2.0), {"x": 0.25})
    assert isinstance(got, float) and got == 2.0


def test_evaluate_domain_errors():
    cases = [
        ("1/x", {"x": 0.0}),
        ("ln(x)", {"x": -1.0}),
        ("ln(x)", {"x": 0.0}),
        ("sqrt(x)", {"x": -4.0}),
        ("exp(x)", {"x": 800.0}),
        ("x^-1", {"x": 0.0}),
        ("cosh(x)", {"x": 1e4}),
    ]
    for text, env in cases:
        with pytest.raises(EvalDomainError):
            evaluate(parse(text), env)


_GUARD_DETAIL = {"ln": "argument not positive", "sqrt": "negative argument"}
_NUMPY = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh}
_NAN = math.nan


# a nan passes the guard and is left to the finiteness check; Python floats
# are what constant folding hands the kernels. exp, sinh and cosh have no
# guard: out of the float range they give ±inf, which the root check judges.
@pytest.mark.parametrize("op, u, raises", [
    ("exp", np.array([_NAN]), False),
    ("exp", np.array([_NAN, 711.0]), False),
    ("exp", np.array([]), False),
    ("exp", 711.0, False),
    ("exp", _NAN, False),
    ("exp", np.array([-math.inf, 0.5]), False),
    ("exp", np.array([math.inf]), False),
    ("ln", np.array([_NAN]), False),
    ("ln", np.array([_NAN, -1.0]), True),
    ("ln", np.array([-0.0]), True),
    ("ln", np.array([0.0, 2.0]), True),
    ("ln", np.array([]), False),
    ("ln", 2.0, False),
    ("ln", -1.0, True),
    ("ln", np.array([1e-300, _NAN]), False),
    ("sqrt", np.array([_NAN, -1.0]), True),
    ("sqrt", np.array([-0.0]), False),
    ("sqrt", np.array([]), False),
    ("sqrt", -1e-300, True),
    ("sqrt", _NAN, False),
    ("sinh", np.array([_NAN, -711.0]), False),
    ("sinh", np.array([-math.inf]), False),
    ("sinh", np.array([700.0, -700.0]), False),
    ("cosh", np.array([_NAN, 711.0]), False),
    ("cosh", np.array([]), False),
    ("cosh", _NAN, False),
])
def test_guarded_kernel_truth_table(op, u, raises):
    kernel = _KERNELS[op]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        if not raises:
            assert np.array_equal(bits(kernel(u, None, None)), bits(_NUMPY[op](u)))
            return
        with pytest.raises(EvalDomainError) as err:
            kernel(u, None, None)
    assert str(err.value) == f"domain error in {op!r}: {_GUARD_DETAIL[op]}"


_eval_leaves = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: const(round(v, 3))),
    st.sampled_from([X, Y, Z]),
)


def _eval_combine(children):
    binary = st.tuples(st.sampled_from(["add", "sub", "mul", "div"]),
                       children, children).map(lambda t: Expr(t[0], (t[1], t[2])))
    unary = st.tuples(st.sampled_from(["neg", "sin", "cos", "tan", "exp", "ln", "sqrt",
                                       "sinh", "cosh"]),
                      children).map(lambda t: Expr(t[0], (t[1],)))
    power = st.tuples(children, st.integers(min_value=-3, max_value=4)).map(
        lambda t: Expr("pow", (t[0],), t[1]))
    return st.one_of(binary, unary, power)


_eval_trees = st.recursive(_eval_leaves, _eval_combine, max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(_eval_trees, st.integers(0, 2 ** 32 - 1))
@example(parse("sqrt(y)+ln(x)"), 0)
@example(parse("exp(z)*y^-1+x"), 1)
def test_compiled_evaluator_matches_reference_bitwise(e, seed):
    rng = np.random.default_rng(seed)
    for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 3 * CHUNK + 1):
        # x rises through zero and y falls through it, so domain failures
        # begin in early chunks for one and in late chunks for the other
        env = {"x": np.linspace(-1.0, 3.0, n), "y": np.linspace(3.0, -1.0, n),
               "z": rng.normal(0.0, 30.0, n)}
        try:
            want = _reference_evaluate(e, env)
        except EvalDomainError as expected:
            with pytest.raises(EvalDomainError) as err:
                evaluate(e, env)
            assert str(err.value) == str(expected)
            continue
        # over arrays a scalar root, such as a constant, is filled out
        got = evaluate(e, env)
        assert isinstance(got, np.ndarray) and got.shape == (n,)
        assert np.array_equal(bits(got), bits(np.broadcast_to(want, (n,))))


# the slice rule is the same at every slice length; this one is fixed, so the
# cases stay put when CHUNK is retuned
_SLICE = 4096


@pytest.mark.parametrize("n, sizes", [
    (_SLICE + 1, [_SLICE + 1]),
    (2 * _SLICE - 1, [2 * _SLICE - 1]),
    (2 * _SLICE, [_SLICE, _SLICE]),
    (2 * _SLICE + 1, [_SLICE, _SLICE + 1]),
    (16 * _SLICE + 1, [_SLICE] * 15 + [_SLICE + 1]),
])
def test_chunked_folds_the_remainder_into_the_last_slice(monkeypatch, n, sizes):
    monkeypatch.setattr(expr, "CHUNK", _SLICE)
    seen = []

    def fn(a):
        seen.append(len(a))
        return [2.0 * a]

    xs = np.arange(n, dtype=float)
    (doubled,) = chunked(fn, xs)
    assert seen == sizes
    assert np.array_equal(doubled, 2.0 * xs)


@settings(max_examples=50, deadline=None)
@given(st.lists(_eval_trees, min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
def test_program_matches_reference_root_by_root(roots, seed):
    # shared subexpressions, reused registers and repeated roots must not
    # change any root's value, nor which root's error is raised first
    rng = np.random.default_rng(seed)
    roots = roots + [roots[0], *roots[0].args]
    for n in (7, 2 * CHUNK + 3):
        env = {"x": np.linspace(-1.0, 3.0, n), "y": np.linspace(3.0, -1.0, n),
               "z": rng.normal(0.0, 30.0, n)}
        try:
            want = [_reference_evaluate(root, env) for root in roots]
        except EvalDomainError as expected:
            with pytest.raises(EvalDomainError) as err:
                Program(roots)(env)
            assert str(err.value) == str(expected)
            continue
        got = Program(roots)(env)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.shape == (n,)
            assert np.array_equal(bits(g), bits(np.broadcast_to(w, (n,))))


@settings(max_examples=100, deadline=None)
@given(_eval_trees, st.integers(0, 2 ** 32 - 1))
@example(parse("sqrt(y)+ln(x-0.3)"), 0)
@example(parse("ln(x-0.3)+y"), 0)
@example(parse("sin(x)*y^2+sqrt(y)*exp(x)"), 0)
def test_precomputed_x_parts_match_the_plain_program(e, seed):
    # a pass that reads f's x-only parts gives the plain pass's bits, or its
    # error; when the parts fail (x crosses 0.3 above), passes are plain, so
    # an earlier error in y still wins
    f = Integrand(e)
    rng = np.random.default_rng(seed)
    for n in (7, 2 * CHUNK + 3):
        xs = np.linspace(-1.0, 3.0, n)
        env = {"x": xs, "y": np.linspace(3.0, -1.0, n), "z": rng.normal(0.0, 30.0, n)}
        x_values = _x_part_values(f, xs)
        given = {} if x_values is None else dict(zip(f.x_parts, x_values))
        program = f.x_parts_program if given else f.value_program
        env_given = {**env, **given}
        try:
            (want,) = f.value_program(env)
        except EvalDomainError as expected:
            with pytest.raises(EvalDomainError) as err:
                program(env_given)
            assert str(err.value) == str(expected)
            continue
        (got,) = program(env_given)
        assert np.array_equal(bits(got), bits(want))


def test_given_nodes_are_read_not_computed():
    part = parse("sin(x)")
    program = Program((parse("sin(x)*y"),), given=(part,))
    (out,) = program({"y": np.array([2.0, 3.0]), part: np.array([10.0, 100.0])})
    assert np.array_equal(out, [20.0, 300.0])


def test_evaluate_unbound_variable():
    with pytest.raises(EvalDomainError):
        evaluate(parse("x+y"), {"x": 1.0})


def test_negative_integer_power():
    assert eval_at(parse("x^-2"), 2.0, 0, 0) == pytest.approx(0.25)


def _ulps(got, want):
    # both carry the sign of base^n exactly, so their bit patterns are
    # ordered alike and the difference counts representable steps
    return np.abs(bits(got) - bits(want))


@pytest.mark.parametrize("n", range(-7, 12))
def test_integer_power_within_n_ulp_of_pow(n):
    base = np.random.default_rng(n + 100).uniform(-3.0, 3.0, 4096)
    got = evaluate(Expr("pow", (X,), n), {"x": base})
    with np.errstate(all="ignore"):
        want = base ** n
    assert np.all(_ulps(got, want) <= abs(n))


@pytest.mark.parametrize("n", [-1, 1, 2])
def test_integer_power_keeps_the_bits_of_pow(n):
    base = np.random.default_rng(n + 200).uniform(-3.0, 3.0, 4096)
    got = evaluate(Expr("pow", (X,), n), {"x": base})
    assert np.array_equal(bits(got), bits(base ** n))
    assert eval_at(Expr("pow", (X,), n), -1.7) == (-1.7) ** n


@pytest.mark.parametrize("text, x", [("x^3", 1e200), ("x^-3", 1e-110), ("x^4", -1e100),
                                     ("exp(x)", 800.0), ("2*exp(x)", 800.0),
                                     ("sinh(x)", -800.0), ("cosh(x)", 1e4)])
def test_power_overflows_alike_on_a_float_and_an_array(text, x):
    # a power, exp, sinh or cosh out of the float range is ±inf either way,
    # as a power's products are, and only the finiteness check at the root
    # decides, so the error names the root's op
    e = parse(text)
    for env in ({"x": x}, {"x": np.array([x])}):
        with pytest.raises(EvalDomainError, match=f"^domain error in '{e.op}': non-finite result$"):
            evaluate(e, env)


def test_exp_sinh_and_cosh_have_no_argument_cut_off():
    # 705 is within float64's range for exp, and a reciprocal of an overflow
    # is a signed zero
    assert bits(eval_at(parse("exp(x)"), 705.0)) == bits(np.exp(705.0))
    for text, x, want in (("1/exp(x)", 800.0, 0.0), ("1/sinh(x)", -800.0, -0.0)):
        for env in ({"x": x}, {"x": np.array([x])}):
            got = evaluate(parse(text), env)
            assert np.array_equal(bits(got), bits(np.full(np.shape(env["x"]), want)))
    assert simplify(parse("exp(705)")) == const(float(np.exp(705.0)))
    assert simplify(parse("exp(800)")) == parse("exp(800)")


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.0])
def test_zeroth_power_is_one(x):
    assert eval_at(parse("x^0"), x) == 1.0
    assert np.array_equal(evaluate(parse("x^0"), {"x": np.array([x, 2.0])}), [1.0, 1.0])


def test_zero_base_with_negative_exponent_keeps_its_message():
    for env in ({"x": 0.0}, {"x": np.array([1.0, 0.0])}):
        with pytest.raises(EvalDomainError) as err:
            evaluate(parse("x^-3"), env)
        assert str(err.value) == "domain error in 'pow': zero base with negative exponent"


# ---------------------------------------------------------------------------
# substitution


def test_substitute_shifts_variables():
    e = parse("y^2+z")
    shifted = substitute(e, {"y": parse("y-sin(x)"), "z": parse("z-cos(x)")})
    t, u, w = 0.4, 1.2, -0.3
    want = (u - math.sin(t)) ** 2 + (w - math.cos(t))
    assert eval_at(shifted, t, u, w) == pytest.approx(want)


def test_substitute_simplifies():
    assert substitute(parse("y+0"), {"y": X}) is X


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.booleans())
def test_substitute_is_simplify_of_the_plain_substitution(seed, depth, rules):
    # mixed mappings: each variable is kept, mapped to a constant, or mapped
    # to an unsimplified random tree, which may itself hold mapped names
    rng = np.random.default_rng(seed)
    e = random_tree(rng, depth, rules)
    mapping = {}
    for name in VARIABLES:
        roll = rng.integers(0, 3)
        if roll == 1:
            mapping[name] = const((0.0, 1.0, -2.5)[rng.integers(0, 3)])
        elif roll == 2:
            mapping[name] = random_tree(rng, 3, rules=True)
    assert substitute(e, mapping) is simplify(_reference_substitute(e, mapping))
