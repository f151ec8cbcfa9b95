"""Package surface: no unused imports, exports match imports, no stale names,
and third-party imports match the declared dependencies."""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varcert

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varcert"

REMOVED = (
    "AntiderivativeTable",
    "CriteriaComparison",
    "LegendreProfile",
    "QuadraticDecomposition",
    "accessory_value",
    "build_shifted",
    "build_shifted_with_info",
    "build_with_info",
    "build_zero",
    "build_zero_with_info",
    "coefficient_samples",
    "cumulative_integral",
    "decompose",
    "el_residual",
    "el_residual_fd",
    "el_residual_max",
    "eval_at",
    "legendre_profile",
    "main",
    "sample_expr",
    "tabulate_antiderivative",
)

# deleted where they were defined, not only dropped from the package surface;
# each is a dotted path below varcert
DELETED = (
    "certify.PerturbationFamily._directions",
    "cli.CliInputError",
    "cli._SOBOLEV_NOTE",
    "cli._reported_length_bound",
    "expr.Expr.__add__",
    "expr.Expr.__mul__",
    "expr.Expr.__neg__",
    "expr.Expr.__pow__",
    "expr.Expr.__radd__",
    "expr.Expr.__rmul__",
    "expr.Expr.__rsub__",
    "expr.Expr.__rtruediv__",
    "expr.Expr.__sub__",
    "expr.Expr.__truediv__",
    "expr.Program._compile",
    "expr.Program._nodes",
    "expr.Program._sections",
    "expr.Program.sample",
    "expr._OVERFLOW_ARG",
    "expr._PROGRAMS",
    "expr._beyond_overflow",
    "expr._filled",
    "expr._highest",
    "expr.as_expr",
    "expr.cos",
    "expr.cosh",
    "expr.eval_at",
    "expr.exp",
    "expr.ln",
    "expr.sin",
    "expr.sinh",
    "expr.sqrt",
    "expr.tan",
    "generator._TABLE_N",
    "generator._fit_from_table",
    "generator._is_zero",
    "generator._y0_choices",
    "jacobi.CriteriaComparison",
    "variational.Extremal.boundary_values",
    "variational.Extremal.grid",
    "variational.Extremal.program",
    "variational.Extremal.sample",
    "variational.Integrand.certify_program",
    "variational.Integrand.profile_program",
    "variational.LegendreProfile",
    "variational._certify_chunk",
    "variational._coefficients",
    "variational._combined",
    "variational._less_derivative",
    "variational._p_and_q",
    "variational.el_residual",
    "variational.el_residual_at",
    "variational.el_residual_max",
    "variational.legendre_profile",
    "variational.sample_expr",
)

# WRAPS targets in perfbench/tracer.py that name what the package no longer
# has; the tracer skips them, so their spans stay empty until ROADMAP item 1
# replaces them
STALE_WRAPS = {
    ("varcert.cli", "build_with_info"),
    ("varcert.certify", "el_residual_max"),
    ("varcert.certify", "legendre_profile"),
    ("varcert.jacobi", "legendre_profile"),
}

# exports the package itself never calls: acceptance claim 8 is the caller
# of shift, claim 7 the caller of friedrichs_margin
CALLED_BY_ACCEPTANCE_ONLY = {"friedrichs_margin", "shift"}


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unbounded_caches(path):
    # memoisation lives on objects that own it, never in process-global caches
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            used.add(node.attr)
    assert sorted(used & {"cache", "lru_cache"}) == []


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "expr.py"))
def test_only_expr_reads_a_programs_private_attributes(path):
    # Program(roots)(env) is the one way to run compiled expressions, so the
    # root rule judges every value a caller gets
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    private = {"_run", "_code", "_template", "_outputs"}
    assert sorted(f"{node.attr} at line {node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private) == []


def test_init_imports_match_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert _imported_names(tree) == set(varcert.__all__) - {"__version__"}
    assert len(varcert.__all__) == len(set(varcert.__all__))
    for name in varcert.__all__:
        assert hasattr(varcert, name), name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in varcert.__all__, name
        assert not hasattr(varcert, name), name
    for path in DELETED:
        module, *owners, name = path.split(".")
        owner = importlib.import_module(f"varcert.{module}")
        for part in owners:
            owner = getattr(owner, part)
        assert not hasattr(owner, name), path


def _benchmark_reads() -> tuple:
    """What perfbench/*.py reads of the package, from its source, not by
    importing it: the (module, name) pairs it imports from a varcert
    module, in its own code or in code it runs from a string, and its
    WRAPS targets."""
    imports = set()
    wraps = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trees = [tree]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    trees.append(ast.parse(node.value))
                except SyntaxError:
                    pass
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"]):
                wraps |= {(entry.elts[0].value, entry.elts[1].value)
                          for entry in node.value.elts}
        for node in (node for tree in trees for node in ast.walk(tree)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "varcert":
                imports |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                imports |= {tuple(alias.name.rsplit(".", 1)) for alias in node.names
                            if alias.name.startswith("varcert.")}
    return imports, wraps


def test_what_the_benchmark_reads_of_the_package_exists():
    # perfbench is checked out beside the package and imports it by name;
    # a renamed function would break it, or silently empty a traced span
    imports, wraps = _benchmark_reads()
    assert ("varcert.cli", "cli_main") in imports and len(wraps) == 17

    def resolves(module, name):
        # as `from module import name` does: an attribute, else a submodule
        if hasattr(importlib.import_module(module), name):
            return True
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return False
        return True

    def missing(pairs):
        return {pair for pair in pairs if not resolves(*pair)}

    assert missing(imports) == set()
    assert missing(wraps) == STALE_WRAPS


def test_every_export_has_a_caller_in_the_package():
    # public code that only the tests call is not part of the package
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called |= _imported_names(tree)
        called |= {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(varcert.__all__) - called) == sorted(CALLED_BY_ACCEPTANCE_ONLY)


def test_result_records_hold_only_what_their_pass_computed():
    # a caller that holds the grid, the family or the certificate reports
    # those itself; a copy of them on a record is a second home for one fact
    shapes = {
        varcert.Certificate: ["verdict", "p_min", "q_min", "quad_coefficient"],
        varcert.EmpiricalReport: ["abs_tol", "base_value", "checks", "passed"],
        varcert.AccessorySolution: ["U", "V", "p_of_x", "q_of_x", "conjugate_point",
                                    "p_min", "q_min", "length_new", "length_jacobi", "ratio"],
    }
    for record, names in shapes.items():
        assert [field.name for field in dataclasses.fields(record)] == names, record.__name__


@pytest.mark.parametrize("build, error, expected", [
    (lambda: varcert.Integrand("z^2"), TypeError, "integrand must wrap an Expr"),
    (lambda: varcert.Extremal("x", 0, 1), TypeError, "candidate path must be an Expr"),
    (lambda: varcert.GeneratorSpec(P="x*y"), TypeError, "P must be an Expr"),
    (lambda: varcert.GeneratorSpec(y0="x"), TypeError, "y0 must be an Extremal"),
    (lambda: varcert.parse(3), TypeError, "expression text must be a string"),
    (lambda: varcert.diff(varcert.parse("x"), "w"), ValueError, "unknown variable 'w'"),
    (lambda: delattr(varcert.parse("x"), "op"), AttributeError, "Expr nodes are immutable"),
    (lambda: varcert.PerturbationFamily(varcert.SINE_BASIS, count=2.5), TypeError,
     "count must be an integer"),
    (lambda: varcert.PerturbationFamily(varcert.SINE_BASIS, count=True), TypeError,
     "count must be an integer"),
    (lambda: varcert.PerturbationFamily(varcert.SINE_BASIS, seed=1.5), TypeError,
     "seed must be an integer"),
    (lambda: varcert.PerturbationFamily(varcert.RANDOM_SPLINE, seed=1.5), TypeError,
     "seed must be an integer"),
    (lambda: varcert.PerturbationFamily(varcert.RANDOM_SPLINE, seed=False), TypeError,
     "seed must be an integer"),
    # a numpy integer is an integer: taken, and kept as a Python int
    (lambda: varcert.PerturbationFamily(varcert.SINE_BASIS, count=np.int64(3)).count, None, 3),
    (lambda: varcert.PerturbationFamily(varcert.SINE_BASIS, seed=np.int64(5)).seed, None, 5),
    (lambda: varcert.sample_corpus(0, True, 0.0, 0.6), TypeError, "count must be an integer"),
    (lambda: varcert.sample_corpus(0, 2.0, 0.0, 0.6), TypeError, "count must be an integer"),
    (lambda: varcert.sample_corpus(True, 1, 0.0, 0.6), TypeError, "seed must be an integer"),
    (lambda: varcert.sample_corpus(0.5, 1, 0.0, 0.6), TypeError, "seed must be an integer"),
    (lambda: len(varcert.sample_corpus(np.int64(0), np.int64(1), 0.0, 0.6)), None, 1),
    (lambda: varcert.Grid(0.0, 1.0, True), ValueError, "grid size must be an even integer >= 2"),
    (lambda: varcert.Grid(0.0, 1.0, 16.0), ValueError, "grid size must be an even integer >= 2"),
    (lambda: varcert.Grid(0.0, 1.0, np.int64(16)).n, None, 16),
], ids=["Integrand", "Extremal", "GeneratorSpec.P", "GeneratorSpec.y0", "parse", "diff",
        "Expr.__delattr__", "PerturbationFamily.count-float", "PerturbationFamily.count-bool",
        "PerturbationFamily.seed-float-sine", "PerturbationFamily.seed-float-spline",
        "PerturbationFamily.seed-bool", "PerturbationFamily.count-int64",
        "PerturbationFamily.seed-int64", "sample_corpus.count-bool", "sample_corpus.count-float",
        "sample_corpus.seed-bool", "sample_corpus.seed-float", "sample_corpus.int64",
        "Grid.n-bool", "Grid.n-float", "Grid.n-int64"])
def test_library_input_checks(build, error, expected):
    # expected is the error message, or with no error the value build returns
    if error is None:
        got = build()
        assert (type(got), got) == (int, expected)
        return
    with pytest.raises(error, match=f"^{re.escape(expected)}$"):
        build()


def _own_nodes(scope: ast.AST):
    """The nodes in scope, down to nested functions and classes but not into
    them; a lambda is part of the scope."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def _scopes() -> tuple:
    """Every module, class and function body in the package, by its dotted
    name below the package (a module by its own name), with (its node, the
    scopes its names resolve in, its class); and each module's relative
    imports, by the name they bind."""
    scopes = {}
    imported = {}
    for path in PACKAGE.glob("*.py"):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported[module] = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                            for node in tree.body
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            for alias in node.names}
        scopes[module] = (tree, (module,), None)
        pending = [module]
        while pending:
            name = pending.pop()
            scope, names, owner = scopes[name]
            for node in _own_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    # a class body is not a scope its methods' names resolve in
                    dotted = f"{name}.{node.name}"
                    scopes[dotted] = (node, names, dotted)
                    pending.append(dotted)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    dotted = f"{name}.{node.name}"
                    scopes[dotted] = (node, (dotted,) + names, owner)
                    pending.append(dotted)
    return scopes, imported


def _references(scope: tuple, imported: dict, targets) -> set:
    """The targets a scope's own code refers to: by a name, as Python
    resolves it, or, in a method, through self.<name>. A reference that is
    not a call (map(f, ...)) counts too."""
    node, names, owner = scope
    module = names[-1]
    refers = set()
    for child in _own_nodes(node):
        if isinstance(child, ast.Name):
            for target in [f"{name}.{child.id}" for name in names] + [
                    imported[module].get(child.id)]:
                if target in targets:
                    refers.add(target)
                    break
        elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
              and child.value.id == "self" and f"{owner}.{child.attr}" in targets):
            refers.add(f"{owner}.{child.attr}")
    return refers


def _call_graph() -> dict:
    """Every function and method in the package, by its dotted name below
    the package, with the functions and methods it refers to."""
    scopes, imported = _scopes()
    functions = {name for name, (node, _, _) in scopes.items()
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {name: _references(scopes[name], imported, functions) for name in functions}


def _self_reaching(graph: dict) -> set:
    reaching = set()
    for start in graph:
        reached = set()
        pending = list(graph[start])
        while pending:
            name = pending.pop()
            if name not in reached:
                reached.add(name)
                pending.extend(graph[name])
        if start in reached:
            reaching.add(start)
    return reaching


def test_no_function_or_method_recurses():
    # every pass over an expression walks it on an explicit stack and the
    # parser keeps its own, so depth is bounded by memory, not by the
    # recursion limit. The one exemption, cli._render, recurses over the
    # nesting of a report the CLI builds, whose shape is fixed by the code
    # and never follows the input.
    assert _self_reaching(_call_graph()) == {"cli._render"}


# dunders that Python, pickle or copy call, or that the package calls by
# syntax (Program(...)(env))
CALLED_DUNDERS = {"__init__", "__new__", "__post_init__", "__setattr__", "__delattr__",
                  "__reduce__", "__repr__", "__call__"}


def test_every_function_and_method_has_a_caller_in_the_package():
    # a function or class is named somewhere outside its own body (a table
    # entry and an import into a sibling module count, a re-export from
    # __init__ does not); a method is named as an attribute somewhere
    scopes, imported = _scopes()
    defined = {name for name, (node, _, _) in scopes.items() if not isinstance(node, ast.Module)}
    named = set()
    attributes = set()
    for name, scope in scopes.items():
        if name.split(".")[0] == "__init__":
            continue
        named |= {(target, name) for target in _references(scope, imported, defined)}
        if isinstance(scope[0], ast.Module):
            named |= {(target, name) for target in imported[name].values()}
            attributes |= {node.attr for node in ast.walk(scope[0])
                           if isinstance(node, ast.Attribute)}
    uncalled = []
    for name in defined:
        parent, own = name.rsplit(".", 1)
        if parent == scopes[name][2]:  # a method
            called = own in CALLED_DUNDERS if own.startswith("__") else own in attributes
        else:
            called = (any(target == name and not (user == name or user.startswith(name + "."))
                          for target, user in named)
                      or "." not in parent and own in CALLED_BY_ACCEPTANCE_ONLY)
        if not called:
            uncalled.append(name)
    assert sorted(uncalled) == []


def test_derivatives_and_simplification_build_nodes_through_make():
    # _make interns only the simplified node it keeps; an Expr(...) built
    # directly in _diff or simplify would intern a node thrown away at once
    tree = ast.parse((PACKAGE / "expr.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_diff", "simplify"):
        built = [node.lineno for node in ast.walk(functions[name])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "Expr"]
        assert built == [], f"{name} calls Expr directly at lines {built}"


def _declared_dependencies() -> set:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", item).group(0).lower()
            for item in re.findall(r'"([^"]+)"', block)}


def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "varcert"}
    assert third_party == _declared_dependencies()


def test_cli_commands_do_not_import_scipy(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"integrand": "z^2-y^2",
                                   "interval": {"a": 0.0, "b": 0.5}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"P": "exp(x^2)*y", "pfun": "2+sin(x)"}))
    commands = [["certify", str(problem)], ["compare", str(problem)],
                ["verify", str(problem)], ["generate", str(spec)],
                ["generate", "--corpus", "0", "3"]]
    code = ("import sys\n"
            "from varcert.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "print(codes, file=sys.stderr)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
            " file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"]


def test_readme_python_blocks_hold_the_values_their_comments_state():
    # each ```python block of README runs as written; on a line
    # "expression  # value: words" the comment up to its first ": " is a
    # Python expression for the value the expression has
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    stated = 0
    for block in blocks:
        namespace = {}
        exec(block, namespace)
        for line in block.splitlines():
            code, commented, comment = line.partition("#")
            if not (commented and code.strip()):
                continue
            got = eval(code, namespace)
            want = eval(comment.split(": ", 1)[0], {**vars(varcert), **namespace})
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), line
            else:
                assert got == pytest.approx(want, rel=1e-9), line
            stated += 1
    assert (len(blocks), stated) == (2, 4)
