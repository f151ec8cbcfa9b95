"""Expressions over the variables x, y, z.

Immutable interned nodes, a parser on an explicit stack, exact symbolic
differentiation, simplification by constant folding and 0/1 identities, and
numeric evaluation on scalars or numpy arrays by programs compiled from one
or more expressions. One rule constructor, ``_make``, builds every node of a
derivative, a substitution or a simplified form already simplified, so no
pass interns a node it throws away. Every pass over a tree (differentiation,
simplification, substitution, rendering, copying, compiling) walks it by
``_postorder``, on an explicit stack, and the parser keeps a stack of its
own, so depth is bounded by memory.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from collections import Counter
from contextlib import nullcontext
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


class ParseError(ValueError):
    """Expression text rejected; carries the offset of the first bad character."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"expected {expected} at offset {offset}")


class EvalDomainError(ValueError):
    """A point outside the domain of div, pow, ln, sqrt or var, or a non-finite root."""

    def __init__(self, op: str, detail: str):
        self.op = op
        super().__init__(f"domain error in '{op}': {detail}")


# Nodes are hash-consed: building a node equal to a live one returns the live
# one, so equality and hashing are by identity. The table holds nodes weakly
# and keys them on their children's ids (a node keeps its children alive), so
# the table itself keeps no node alive; constants are keyed on their bits, so
# 0.0 and -0.0 stay distinct nodes. Each entry drops itself when its node dies,
# as in weakref's weak-value mapping, whose Python-level methods slowed interning.
_NODES = {}
_DOUBLE = struct.Struct("<d")
_set = object.__setattr__


class _Entry(weakref.ref):
    __slots__ = ("key",)

    def forget(self) -> None:  # called back when the node dies
        if _NODES.get(self.key) is self:  # no new node has taken the key since
            del _NODES[self.key]


def _check_node(op, args, value) -> None:
    arity = _ARITY.get(op)
    if arity is None:
        raise ValueError(f"unknown operator {op!r}")
    if len(args) != arity:
        raise ValueError(f"{op!r} expects {arity} children, got {len(args)}")
    for child in args:
        if not isinstance(child, Expr):
            raise TypeError("children must be Expr nodes")
    if op == "const":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("const payload must be a real number")
    elif op == "var":
        if value not in VARIABLES:
            raise ValueError(f"unknown variable {value!r}")
    elif op == "pow":
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError("pow exponent must be a literal integer")
    elif value is not None:
        raise ValueError(f"{op!r} carries no payload")


class Expr:
    """One node of an expression DAG: children in ``args``, payload in ``value``.

    Payloads: ``const`` stores a float, ``var`` one of the variable names,
    ``pow`` a literal integer exponent (the base is the single child).
    Nodes are immutable and interned; each memoises its own derivatives,
    simplified form and free variables.
    """

    __slots__ = ("op", "args", "value", "_diff", "_simplified", "_free", "__weakref__")

    def __new__(cls, op: str, args: tuple = (), value: Union[float, str, int, None] = None):
        try:
            if op == "const" and isinstance(value, (int, float)) and not isinstance(value, bool):
                value = float(value)
                key = (op, _DOUBLE.pack(value), *map(id, args))
            else:
                key = (op, type(value), value, *map(id, args))
            entry = _NODES.get(key)
            node = entry and entry()
        except TypeError:  # children not iterable or payload unhashable
            _check_node(op, args, value)
            raise
        if node is None:
            _check_node(op, args, value)
            node = object.__new__(cls)
            _set(node, "op", op)
            _set(node, "args", tuple(args))
            _set(node, "value", value)
            _set(node, "_diff", None)
            _set(node, "_simplified", None)
            _set(node, "_free", None)
            _NODES[key] = entry = _Entry(node, _Entry.forget)
            entry.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("Expr nodes are immutable")

    def __reduce__(self):
        # a flat post-order list, children named by index, so that pickling
        # and copying a deep tree do not recurse; rebuilding interns again
        order = _postorder(self)
        index = {node: i for i, node in enumerate(order)}
        return (_rebuild, (tuple((n.op, tuple(map(index.get, n.args)), n.value)
                                 for n in order),))

    def __repr__(self):
        return _render(self, lambda node, text: "Expr(op={!r}, args=({}{}), value={!r})".format(
            node.op, ", ".join(map(text.get, node.args)), "," * (len(node.args) == 1),
            node.value))


def const(value: float) -> Expr:
    return Expr("const", (), value)


def var(name: str) -> Expr:
    return Expr("var", (), name)


X = var("x")
Y = var("y")
Z = var("z")
ZERO = const(0.0)
ONE = const(1.0)
# constants are interned by their bits, so these are all the constants equal
# to 0.0, and ONE is the only one equal to 1.0
_ZEROS = (ZERO, const(-0.0))


def _postorder(root: Expr, done=None, leaf=None) -> list:
    """The nodes under root, each once, in the order a left-to-right recursive
    walk finishes them: the root always, but not a child for which ``done``
    holds, nor the children of a node for which ``leaf`` holds.
    """
    order = {}  # ordered set; in a DAG, a child met again is already in it
    stack = [(root, iter(() if leaf and leaf(root) else root.args))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in order and not (done and done(child)):
                if child.args and not (leaf and leaf(child)):
                    stack.append((child, iter(child.args)))
                    break
                order[child] = None  # nothing to enter, so finished at once
        else:
            stack.pop()
            order[node] = None
    return list(order)


def _rebuild(flat: tuple) -> Expr:
    nodes = []
    for op, args, value in flat:
        nodes.append(Expr(op, tuple(map(nodes.__getitem__, args)), value))
    return nodes[-1]


def _render(e: Expr, rendered) -> str:
    """The text of e, from ``rendered(node, text)``, which reads the texts of
    the node's children in ``text``; a text is dropped after its last use,
    so a deep tree holds few at once.
    """
    order = _postorder(e)
    uses = Counter(child for node in order for child in node.args)
    text = {}
    for node in order:
        text[node] = rendered(node, text)
        for child in node.args:
            uses[child] -= 1
            if not uses[child]:
                del text[child]
    return text[e]


def free_vars(e: Expr) -> frozenset:
    if e._free is None:
        for node in _postorder(e, lambda n: n._free is not None):
            _set(node, "_free", frozenset((node.value,)) if node.op == "var"
                 else frozenset().union(*(c._free for c in node.args)))
    return e._free


# ---------------------------------------------------------------------------
# evaluation

# Arrays longer than this are evaluated in slices of this many points. Every
# kernel call is dispatched from Python once per slice, so longer slices mean
# fewer dispatches per pass; 16384 was the fastest of 4096 to 32768 at
# n = 65536, and at 32768 each 256 KB temporary page-faulted on every pass.
CHUNK = 16384


def _load(env, _, name):
    try:
        return env[name]
    except KeyError:
        raise EvalDomainError("var", f"unbound variable {name!r}") from None


def _has_zero(u) -> bool:
    # the truth of any(u == 0.0) for float arrays and scalars, without its
    # temporary boolean array: a float is falsy exactly when it is 0.0 or
    # -0.0, and nan is truthy
    return not (u.all() if isinstance(u, np.ndarray) else u)


def _div(num, den, _):
    if _has_zero(den):
        raise EvalDomainError("div", "division by zero")
    return num / den


def _pow(base, _, n):
    """base^n for a literal integer n, by repeated multiplication.

    base^|n| is a binary power: the running square is squared only while
    exponent bits remain, and each set bit multiplies it into the product;
    a negative n then takes the reciprocal. So n in {-1, 1, 2} gives the
    bits of numpy's ``**``, other n stay within |n| ulp of it, and every
    IEEE-754 host gives the same bits, which the vector ``pow`` routines
    behind ``**`` do not. n = 0 gives 1 for every base. A power that leaves
    the float range is ±inf, on a float as on an array, as the products it
    is built from are; the finiteness check at each root then decides.
    """
    if n < 0 and _has_zero(base):
        raise EvalDomainError("pow", "zero base with negative exponent")
    if n == 0:
        return base ** 0
    k = abs(n)
    square = base
    power = None
    while True:
        if k & 1:
            power = square if power is None else power * square
        k >>= 1
        if not k:
            break
        square = square * square
    if n < 0:
        if isinstance(power, np.ndarray) or power:
            power = 1.0 / power
        else:  # an underflowed float power, whose reciprocal Python refuses
            power = math.copysign(math.inf, power)
    return power


def _unary(fn):
    return lambda u, _, __: fn(u)


def _guarded(op, fn, outside, detail):
    def kernel(u, _, __):
        if outside(u):
            raise EvalDomainError(op, detail)
        return fn(u)
    return kernel


# The least of u, skipping nan, so a guard on it raises for the same u as
# np.any over an elementwise comparison: a nan fails every comparison and is
# left to the finiteness check. It also takes a Python float, and an empty
# array, which passes every guard.
def _lowest(u):
    return np.fmin.reduce(u, initial=math.inf)


def _root(value, env, root):
    # a root's value, which must be finite; over an env that holds arrays, a
    # scalar (a constant, or a root in variables bound to floats) is filled
    # to the shape of the first array in env
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise EvalDomainError(root.op, "non-finite result")
    if isinstance(value, np.ndarray):
        return value
    for like in env.values():
        if isinstance(like, np.ndarray):
            out = np.empty_like(like)  # np.full_like(like, value), without its overhead
            out.fill(value)
            return out
    return value


# kernel(first operand, second operand, payload) per op; a unary kernel
# ignores its second operand, "var" reads its first operand, the env, and
# "root", which no op uses, is the rule for a root's value
_KERNELS = {
    "var": _load,
    "add": lambda u, v, _: u + v,
    "sub": lambda u, v, _: u - v,
    "mul": lambda u, v, _: u * v,
    "div": _div,
    "pow": _pow,
    "neg": lambda u, _, __: -u,
    "sin": _unary(np.sin),
    "cos": _unary(np.cos),
    "tan": _unary(np.tan),
    "exp": _unary(np.exp),
    "ln": _guarded("ln", np.log, lambda u: _lowest(u) <= 0.0, "argument not positive"),
    "sqrt": _guarded("sqrt", np.sqrt, lambda u: _lowest(u) < 0.0, "negative argument"),
    "sinh": _unary(np.sinh),
    "cosh": _unary(np.cosh),
    "root": _root,
}


class Program:
    """Straight-line evaluation of several expressions sharing subexpressions.

    Compiling walks the roots post-order, in root order, into one flat list
    of instructions: each distinct node once, and after each root's nodes a
    root instruction, ``_KERNELS["root"]``, which raises unless the root's
    value is finite, then fills a scalar over an env that holds arrays and
    writes the value to the root's own output register, never reused. Any
    other register is reused once its value has had its last use. So a run
    raises the error that evaluating the roots one after another over the
    whole arrays raises.

    The nodes in ``given`` are not computed: like a variable, each is read
    from the environment, keyed by the node itself. A program keeps its
    roots alive, as the payloads of their root instructions.
    """

    __slots__ = ("_template", "_code", "_outputs")

    def __init__(self, roots, given=()):
        roots = tuple(roots)
        given = frozenset(given)
        # the run order: each root's nodes not yet met, post-order, then
        # (its output register, the root); a given node's children are not
        # needed, since it is read
        steps = []
        last = {}
        met = set()
        for out, root in enumerate(roots, 1):
            if root not in met:
                for node in _postorder(root, met.__contains__, given.__contains__):
                    met.add(node)
                    if node not in given:
                        for child in node.args:
                            last[child] = len(steps)
                    steps.append(node)
            last[root] = len(steps)
            steps.append((out, root))
        dying = {}
        for node, t in last.items():
            if node.op != "const":
                dying.setdefault(t, []).append(node)
        # register 0 holds the environment, the next ones the roots' values;
        # constants keep their registers
        template = [None] * (1 + len(roots))
        register = {}
        free = []
        code = []
        for t, step in enumerate(steps):
            if isinstance(step, tuple):
                out, root = step
                code.append((_KERNELS["root"], out, register[root], 0, root))
            elif step.op == "const":
                register[step] = len(template)
                template.append(step.value)
            else:
                dest = free.pop() if free else len(template)
                if dest == len(template):
                    template.append(None)
                if step in given:
                    code.append((_load, dest, 0, 0, step))
                else:
                    args = step.args
                    # a leaf (var) reads register 0, the environment
                    a = register[args[0]] if args else 0
                    b = register[args[-1]] if args else 0
                    code.append((_KERNELS[step.op], dest, a, b, step.value))
                register[step] = dest
            for dead in dying.get(t, ()):
                free.append(register[dead])
        self._template = template
        self._code = tuple(code)
        self._outputs = slice(1, 1 + len(roots))

    def _run(self, env) -> list:
        regs = self._template.copy()
        regs[0] = env
        with np.errstate(all="ignore"):
            for kernel, dest, a, b, payload in self._code:
                regs[dest] = kernel(regs[a], regs[b], payload)
        return regs[self._outputs]

    def __call__(self, env: Mapping[str, Number]) -> tuple:
        """Each root's value on floats or numpy arrays; raises EvalDomainError."""
        names = tuple(env)
        return chunked(lambda *values: self._run(dict(zip(names, values))), *env.values())


def chunked(fn, *args) -> tuple:
    """fn(*args) for a fn that acts point by point, CHUNK points at a time.

    When the array arguments are all 1-D of one length of at least 2 CHUNK,
    fn runs on aligned slices of them (other arguments pass unchanged) and
    its results, arrays, are assembled from the slices. The last slice also
    takes the remainder of fewer than CHUNK points, so no slice is shorter
    than CHUNK. If a slice raises EvalDomainError, fn runs once over the
    whole arrays, so the error raised is the one a single pass raises.
    """
    shapes = {a.shape for a in args if isinstance(a, np.ndarray)}
    if len(shapes) != 1:
        return tuple(fn(*args))
    (shape,) = shapes
    if len(shape) != 1 or shape[0] < 2 * CHUNK:
        return tuple(fn(*args))
    n = shape[0]
    out = None
    try:
        for start in range(0, n - CHUNK + 1, CHUNK):
            stop = start + CHUNK if n - start >= 2 * CHUNK else n
            values = fn(*(a[start:stop] if isinstance(a, np.ndarray) else a for a in args))
            if out is None:
                out = [np.empty(n, v.dtype) for v in values]
            for whole, value in zip(out, values):
                whole[start:stop] = value
    except EvalDomainError:
        return tuple(fn(*args))
    return tuple(out)


def evaluate(e: Expr, env: Mapping[str, Number]) -> Number:
    """e on floats or numpy arrays, as a one-root Program; raises EvalDomainError."""
    return Program((e,))(env)[0]


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to one of x, y, z, simplified."""
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}")
    if e._diff is None or name not in e._diff:
        for node in _postorder(e, lambda n: n._diff is not None and name in n._diff):
            if node._diff is None:
                _set(node, "_diff", {})
            node._diff[name] = _diff(node, name)
    return e._diff[name]


def _diff(e: Expr, name: str) -> Expr:
    # simplify(the textbook derivative), built bottom-up by _make: the
    # derivatives of e's children are in their memos already, simplified,
    # and e and its children enter through their simplified forms
    op = e.op
    if op == "const":
        return ZERO
    if op == "var":
        return ONE if e.value == name else ZERO
    if op in ("add", "sub"):
        return _make(op, (e.args[0]._diff[name], e.args[1]._diff[name]))
    if op in ("mul", "div"):
        u, v = e.args
        su, sv, du, dv = simplify(u), simplify(v), u._diff[name], v._diff[name]
        if op == "mul":
            return _make("add", (_make("mul", (du, sv)), _make("mul", (su, dv))))
        return _make("div", (_make("sub", (_make("mul", (du, sv)), _make("mul", (su, dv)))),
                             _make("pow", (sv,), 2)))
    if op == "pow":
        base = e.args[0]
        n = e.value
        if n == 0:
            return ZERO
        power = _make("pow", (simplify(base),), n - 1)
        return _make("mul", (_make("mul", (const(float(n)), power)), base._diff[name]))
    u = e.args[0]
    su, du = simplify(u), u._diff[name]
    if op == "neg":
        return _make("neg", (du,))
    if op == "sin":
        return _make("mul", (_make("cos", (su,)), du))
    if op == "cos":
        return _make("neg", (_make("mul", (_make("sin", (su,)), du)),))
    if op == "tan":
        return _make("div", (du, _make("pow", (_make("cos", (su,)),), 2)))
    if op == "exp":
        return _make("mul", (simplify(e), du))
    if op == "ln":
        return _make("div", (du, su))
    if op == "sqrt":
        return _make("div", (du, _make("mul", (const(2.0), simplify(e)))))
    if op == "sinh":
        return _make("mul", (_make("cosh", (su,)), du))
    if op == "cosh":
        return _make("mul", (_make("sinh", (su,)), du))
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# simplification


def simplify(e: Expr) -> Expr:
    """Constant folding plus 0/1 identities; value-preserving off singularities."""
    out = e._simplified
    if out is None:
        for node in _postorder(e, lambda n: n._simplified is not None):
            out = _make(node.op, tuple([c if (s := c._simplified) is True else s
                                        for c in node.args]), node.value)
            # True marks a node that is its own simplified form: a memo
            # pointing at its own node would leave it to the cycle collector
            _set(node, "_simplified", True if out is node else out)
        out = e._simplified
    return e if out is True else out


def _make(op: str, args: tuple = (), value=None) -> Expr:
    """The simplified form of the node (op, args, value) whose children are
    simplified: constant folding, then the 0/1 identities. Only the node
    returned is interned, and it is marked as its own simplified form.
    """
    if args and args[0].op == "const" and args[-1].op == "const":
        try:
            # Python floats overflow to inf quietly; numpy's exp, sinh and
            # cosh warn when they overflow, and sin, cos and tan of an infinity
            with np.errstate(all="ignore") if op in _FUNCTIONS else nullcontext():
                out = _KERNELS[op](args[0].value, args[-1].value, value)
        except EvalDomainError:
            pass  # left unfolded, as a non-finite result is
        else:
            if np.isfinite(out):
                return const(float(out))
    if op in _BINARY:
        left, right = args
        if op == "add" and (left in _ZEROS or right in _ZEROS):
            return right if left in _ZEROS else left
        if op == "sub" and right in _ZEROS:
            return left
        if op == "mul" and (left in _ZEROS or right in _ZEROS):
            return ZERO
        if op == "mul" and (left is ONE or right is ONE):
            return right if left is ONE else left
        if op == "div" and right is ONE:
            return left
        if op == "div" and left in _ZEROS and right not in _ZEROS:
            return ZERO
        if op == "sub" and left in _ZEROS:
            op, args = "neg", (right,)  # then the neg rules below
    elif op == "pow" and value in (0, 1):
        return args[0] if value else ONE
    if op == "neg":
        child = args[0]
        if child.op == "neg":
            return child.args[0]
        if child.op == "const":
            return const(-child.value)
    node = Expr(op, args, value)
    _set(node, "_simplified", True)
    return node


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions; the result is already simplified."""
    out = {}
    for node in _postorder(e):
        if node.op == "var":
            out[node] = simplify(mapping.get(node.value, node))
        else:
            out[node] = _make(node.op, tuple(out[c] for c in node.args), node.value)
    return out[e]


# ---------------------------------------------------------------------------
# parsing and rendering

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# \s matches exactly the characters for which str.isspace holds
_SPACE = re.compile(r"\s*")
_CARET = re.compile(r"\s*\^")


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with the failing offset.

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
    factor := atom ('^' signed-integer)?; atom := number | variable |
    fname '(' expr ')' | '(' expr ')' | '-' factor. Whitespace-insensitive.
    A '-' written directly before a number folds into a negative constant,
    which an exponent still binds tighter than: -2^2 is -(2^2).

    One loop reads the text left to right, with a stack frame per open '('
    or function call, so nesting depth is bounded by memory.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    stack = []
    # the open group: the function applied when it closes (None for a bare
    # '(' and for the whole text), its partial sum and partial product, each
    # with the operator that joins the next operand to it (None before the
    # first operand), and the prefix minuses still waiting for their factor
    group, total, add, product, mul, minuses = None, None, None, None, None, 0
    pos = 0
    while True:
        # read on to an atom, opening groups on the way
        ch = text[pos:pos + 1]
        if ch.isspace():
            pos = _SPACE.match(text, pos).end()
            ch = text[pos:pos + 1]
        if ch == "-":
            pos += 1
            minuses += 1
            continue
        if ch.isdigit() or ch == ".":
            match = _NUMBER.match(text, pos)
            if match is None:
                raise ParseError(pos, "a number")
            value = float(match.group(0))
            if math.isinf(value):
                raise ParseError(pos, "a finite number")
            if minuses and text[pos - 1] == "-" and not _CARET.match(text, match.end()):
                # a number directly after a prefix minus takes it as its
                # sign, so that rendered constants like -2.5 round-trip; an
                # exponent still binds tighter than the sign
                value, minuses = -value, minuses - 1
            node, pos = const(value), match.end()
        elif ch == "(" or ch.isalpha() or ch == "_":
            name = None
            if ch != "(":
                # str.isalpha admits letters that the ASCII _NAME does not
                match = _NAME.match(text, pos)
                name = match and match.group(0)
                if name in VARIABLES:
                    node, pos = var(name), match.end()
                elif name not in _FUNCTIONS:
                    raise ParseError(pos, "a known function or variable name")
                else:
                    pos = _SPACE.match(text, match.end()).end()
                    if text[pos:pos + 1] != "(":
                        raise ParseError(pos, f"'(' after {name}")
            if name not in VARIABLES:  # a '(', bare or after a function name
                stack.append((group, total, add, product, mul, minuses))
                group, total, add, product, mul, minuses = name, None, None, None, None, 0
                pos += 1
                continue
        else:
            raise ParseError(pos, "an operand")
        # the atom ends a factor, and perhaps a term, the group and more groups
        while True:
            # an exponent, then each minus, innermost first, and its exponent
            powered = False
            while True:
                ch = text[pos:pos + 1]
                if ch.isspace():
                    pos = _SPACE.match(text, pos).end()
                    ch = text[pos:pos + 1]
                if ch == "^" and not powered:
                    node, pos = _power(text, pos + 1, node)
                    powered = True
                elif minuses:
                    node, minuses, powered = Expr("neg", (node,)), minuses - 1, False
                else:
                    break
            product = node if mul is None else Expr(mul, (product, node))
            if ch == "*" or ch == "/":
                mul = "mul" if ch == "*" else "div"
                pos += 1
                break
            total = product if add is None else Expr(add, (total, product))
            if ch == "+" or ch == "-":
                add, mul = ("add" if ch == "+" else "sub"), None
                pos += 1
                break
            if not stack:
                if pos != len(text):
                    raise ParseError(pos, "end of input")
                return total
            if ch != ")":
                raise ParseError(pos, "')'")
            pos += 1
            node = total if group is None else Expr(group, (total,))
            group, total, add, product, mul, minuses = stack.pop()


def _power(text: str, pos: int, base: Expr) -> tuple:
    """base^k for the signed integer k at pos, just past a '^', and the
    offset after it."""
    start = pos = _SPACE.match(text, pos).end()
    if text.startswith(("+", "-"), pos):
        pos += 1
    first_digit = pos
    # the digits int() and _NUMBER's \d read; isdigit also takes superscripts
    while text[pos:pos + 1].isdecimal():
        pos += 1
    if pos == first_digit:
        raise ParseError(start, "integer exponent")
    if text[pos:pos + 1] == ".":
        raise ParseError(start, "integer exponent (no decimal point)")
    try:
        k = int(text[start:pos])
    except ValueError:  # more digits than int() converts
        raise ParseError(start, "integer exponent")
    return Expr("pow", (base,), k), pos


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _prec(e: Expr) -> int:
    return _PRECEDENCE.get(e.op, 5)


def unparse(e: Expr) -> str:
    """Render to text that parses back to an equal tree."""
    return _render(e, _rendered)


def _rendered(e: Expr, text: dict) -> str:
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
            return "-" + text[child]
        return "-(" + text[child] + ")"
    if op == "pow":
        base = e.args[0]
        inner = text[base]
        if _prec(base) < 5 or inner.startswith("-"):
            inner = "(" + inner + ")"
        return f"{inner}^{e.value}"
    if op in _BINARY_SYMBOL:
        prec = _PRECEDENCE[op]
        left, right = e.args
        left_text = text[left]
        if _prec(left) < prec:
            left_text = "(" + left_text + ")"
        right_text = text[right]
        # leading minus after an operator reads badly ("x--1"); parenthesize
        if _prec(right) <= prec or right_text.startswith("-"):
            right_text = "(" + right_text + ")"
        return left_text + _BINARY_SYMBOL[op] + right_text
    return f"{op}({text[e.args[0]]})"
