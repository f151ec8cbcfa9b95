"""Package surface: no unused imports, exports match imports, no stale names."""

import ast
from pathlib import Path

import pytest

import varcert

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "varcert"

REMOVED = (
    "QuadraticDecomposition",
    "accessory_value",
    "build_shifted",
    "build_shifted_with_info",
    "build_with_info",
    "build_zero",
    "build_zero_with_info",
    "coefficient_samples",
    "decompose",
    "el_residual_fd",
    "main",
    "sample_expr",
)


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
