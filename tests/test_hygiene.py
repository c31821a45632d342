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


def _imports(tree: ast.Module):
    """(imported module names, innermost enclosing function or None) per import.

    Relative imports are resolved against the package; ``from a import b``
    names both ``a`` and ``a.b``, since b may be a submodule.
    """
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield [alias.name for alias in child.names], scope
            elif isinstance(child, ast.ImportFrom):
                base = ".".join(filter(None, ["qpcalc" if child.level else None, child.module]))
                yield [base] + [f"{base}.{alias.name}" for alias in child.names], scope
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from visit(child, inner)

    yield from visit(tree, None)


def _is_module(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sympy_stays_behind_realize(path):
    # sympy costs most of a process's start-up, and only realizations need it
    tree = ast.parse(path.read_text(), filename=str(path))
    for names, scope in _imports(tree):
        if path.name != "realize.py":
            assert not any(_is_module(n, "sympy") for n in names), \
                f"{path.name} imports sympy; only realize.py may"
        if any(_is_module(n, "qpcalc.realize") for n in names):
            allowed = scope == "__getattr__" if path.name == "__init__.py" else scope is not None
            assert allowed, f"{path.name} imports qpcalc.realize outside a function"


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
