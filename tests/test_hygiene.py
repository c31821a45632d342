"""Static checks on the package source."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qpcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "QQ"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(inner) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set(_referenced_names(tree))
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} but never uses them"


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sympy_stays_behind_realize(path):
    # the package has no runtime dependency: sympy is the tests' oracle only
    tree = ast.parse(path.read_text(), filename=str(path))
    for name in _imported_modules(tree):
        assert name.split(".")[0] != "sympy", f"{path.name} imports {name}"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "field.py"],
                         ids=lambda p: p.name)
def test_one_scalar_type(path):
    # scalars come from qpcalc.field alone; a second rational type would be
    # a second arithmetic path
    tree = ast.parse(path.read_text(), filename=str(path))
    for name in _imported_modules(tree):
        assert name.split(".")[0] != "fractions", f"{path.name} imports {name}"


def _bench_traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attribute", [t[:2] for t in _bench_traced()],
                         ids=lambda v: v)
def test_bench_traced_names_resolve(module, attribute):
    # the benchmark's tracer patches these by name; a rename would break
    # only the benchmark, which tier-1 does not run
    obj = importlib.import_module(f"qpcalc.{module}")
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
