"""Static checks on the package source."""

import ast
import re
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_scalar_type(path):
    # scalars are qpcalc.field.Rational alone; a second rational type would be
    # a second arithmetic path (and gmpy2's mpq mixes with floats)
    tree = ast.parse(path.read_text(), filename=str(path))
    for name in _imported_modules(tree):
        assert name.split(".")[0] not in ("fractions", "gmpy2"), f"{path.name} imports {name}"


def _bench_traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attribute", [t[:2] for t in _bench_traced()],
                         ids=lambda v: v)
def test_bench_traced_names_resolve(module, attribute):
    # the benchmark's tracer patches these by name; a rename would break
    # only the benchmark, which tier-1 does not run. It reads a method from
    # its class's own __dict__, so an inherited method does not count.
    obj = importlib.import_module(f"qpcalc.{module}")
    if "." in attribute:
        cls_name, meth = attribute.split(".")
        owner = getattr(obj, cls_name)
        assert meth in vars(owner), f"{attribute} is not defined on {cls_name} itself"
        obj = vars(owner)[meth]
    else:
        obj = getattr(obj, attribute)
    assert callable(obj)


# the functions allowed to delete a dict key: the one sparse sum, the one
# entry for a potential's canonical terms, and the rule set and lead trie
# retiring their entries. Every other sum goes through linalg.
KEY_DELETERS = {"linalg.accumulate", "cycles.Potential.add_cycle",
                "rewrite.ReductionSystem.add_relation", "rewrite._trie_remove"}


def _scopes_where(tree: ast.Module, prefix: str, matches):
    """Qualified names of the functions holding a node for which ``matches`` is true."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            if matches(child):
                yield scope
            yield from visit(child, scope)

    yield from visit(tree, prefix)


def _is_key_deletion(node) -> bool:
    """``del d[k]`` or ``d.pop(k, default)``."""
    if isinstance(node, ast.Delete):
        return any(isinstance(t, ast.Subscript) for t in node.targets)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop" and len(node.args) == 2)


def test_key_deletions_stay_in_their_homes():
    found = set()
    for path in MODULES:
        found.update(_scopes_where(ast.parse(path.read_text(), filename=str(path)), path.stem,
                                   _is_key_deletion))
    assert found <= KEY_DELETERS, f"hand-written key deletions in {sorted(found - KEY_DELETERS)}"


# the normalization drivers bound every loop by MAX_PASSES, so a step that
# fails to shrink its junk ends in an AssertionError instead of hanging
BOUNDED_LOOP_MODULES = ("monomial.py", "a3.py")


def _while_true_lines(tree: ast.Module):
    for node in ast.walk(tree):
        if (isinstance(node, ast.While) and isinstance(node.test, ast.Constant)
                and node.test.value is True):
            yield node.lineno


@pytest.mark.parametrize("name", BOUNDED_LOOP_MODULES)
def test_normalization_loops_are_bounded(name):
    path = SRC / name
    lines = list(_while_true_lines(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, f"{name} has while True loops at lines {lines}"


def _function_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield f"{node.name}:{inner.lineno}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    # an import inside a function hides a dependency and repeats a lookup per call
    found = sorted(set(_function_imports(ast.parse(path.read_text(), filename=str(path)))))
    assert not found, f"{path.name} imports inside functions at {found}"


# helpers with one caller each: term_shape classifies a potential's terms
# for read_terms alone, _advance steps the lead trie for the one walker
# over irreducible words, the one removal rule serves the one junk-removal
# loop, and the skip and higher rules, kept in the monomial tests as the
# removal rule's oracle, serve the one check that compares them with it
ONE_CALLER = {"term_shape": "monomial.read_terms",
              "_advance": "rewrite.ReductionSystem.irreducible_table",
              "_removal": "monomial._funnel",
              "_map": "appendix.exactness_check",
              "_skip_substitution": "test_monomial.test_removal_matches_the_skip_and_higher_rules.checked",
              "_higher_substitution": "test_monomial.test_removal_matches_the_skip_and_higher_rules.checked"}

# a test-local helper is looked for in its own test module as well
TEST_MODULES = {"test_monomial": ROOT / "tests" / "test_monomial.py"}


def _calls(callee: str):
    def matches(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee
    return matches


@pytest.mark.parametrize("callee", sorted(ONE_CALLER))
def test_helpers_keep_their_one_caller(callee):
    found = set()
    home = ONE_CALLER[callee].split(".", 1)[0]
    for path in MODULES + ([TEST_MODULES[home]] if home in TEST_MODULES else []):
        found.update(_scopes_where(ast.parse(path.read_text(), filename=str(path)), path.stem,
                                   _calls(callee)))
    assert found == {ONE_CALLER[callee]}, f"{callee} is called from {sorted(found)}"


# public names kept for the tests alone, as independent checks of the rest
DECLARED_ORACLES = {"apq_relations"}


def _used_names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_user():
    # a name earns its export by a user outside its own module: another
    # module of the package, a demo, or the README
    import qpcalc

    used_in = {path.stem: set(_used_names(path)) for path in MODULES}
    in_demos = {name for path in (ROOT / "demos").glob("*.py") for name in _used_names(path)}
    readme = (ROOT / "README.md").read_text()
    unused = []
    for name in qpcalc.__all__:
        home = getattr(qpcalc, name).__module__.rsplit(".", 1)[-1]
        if (name in DECLARED_ORACLES or name in in_demos
                or any(name in names for stem, names in used_in.items() if stem != home)
                or re.search(rf"\b{re.escape(name)}\b", readme)):
            continue
        unused.append(name)
    assert not unused, f"public names with no user outside their module and the tests: {unused}"
