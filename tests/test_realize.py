import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from qpcalc import QQ
from qpcalc.field import PreconditionError
from qpcalc.monomial import potential_from_kappa
from qpcalc.serialize import element_to_json
from qpcalc.realize import (
    X,
    Y,
    Poly,
    a3_kappa_table,
    a3_realize,
    contraction_relations,
    emit_presentation,
    h_row,
    monomial_strings,
    solve_g_system,
)

# -- the sympy oracle -----------------------------------------------------------------

SX, SY = sp.symbols("x y")


def to_sympy(c):
    return sp.Rational(int(c.numerator), int(c.denominator))


def to_expr(g: Poly) -> sp.Expr:
    """g as an expanded sympy expression, built from its terms, not its string."""
    return sp.Add(*(to_sympy(c) * SX**a * SY**b for (a, b), c in g.terms.items()))


def linear_part(g: sp.Expr):
    """Coefficients of x and y in the expression g."""
    p = sp.Poly(g, SX, SY)
    return (p.coeff_monomial(SX), p.coeff_monomial(SY))


def pair_rank(g1: sp.Expr, g2: sp.Expr) -> int:
    """Rank of the linear parts of the expressions g1, g2."""
    return sp.Matrix([linear_part(g1), linear_part(g2)]).rank()


def sympy_terms(e: sp.Expr):
    """Each printed term of e, keyed by its monomial (deg_x, deg_y)."""
    return {sp.Poly(t, SX, SY).monoms()[0]: str(t) for t in sp.Add.make_args(e)}


coefficients = st.builds(QQ, st.integers(-20, 20).filter(bool), st.integers(1, 12))
monomials = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any)


@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(monomials, coefficients, min_size=1, max_size=8))
def test_printer_matches_sympy(terms):
    g = Poly(terms)
    e = sp.expand(to_expr(g))
    assert str(g) == str(e)
    assert dict(zip(sorted(g.terms, reverse=True), g.term_strings())) == sympy_terms(e)
    assert monomial_strings(g) == sorted(sympy_terms(e).values(), key=lambda t: (len(t), t))


def test_zero_table_alternates():
    gs = solve_g_system(2, {})
    assert gs == [Y, X, -Y, -X, Y]


def test_anchor_override_propagates_both_ways():
    gs = solve_g_system(2, {}, anchor_index=2, anchor_values=(X, X + Y))
    # downward: g_1 = -g_3, g_0 = -g_2; upward: g_4 = -g_2
    assert gs == [-X, -X - Y, X, X + Y, -X]


def test_a3_solution_closed_form():
    k1, k3, k2 = QQ(2), QQ(7), QQ(5)
    p, s, q = 3, 4, 2
    table = a3_kappa_table(k1, p, k2, q, k3, s)
    gs = solve_g_system(3, table, anchor_index=2, anchor_values=(X, X + Y))
    expected = [
        -6 * X**2 - 28 * X**3 - Y,
        X - 6 * X**2 - 28 * X**3 - Y,
        X,
        X + Y,
        Y,
        -X - 9 * Y,
        -X - 10 * Y,
    ]
    assert gs == expected


def a3_h_strings(k1, p, k2, q, k3=QQ(0), s=0):
    return a3_realize(k1, p, k2, q, k3, s)["h"]


def test_h_rows_for_all_families():
    lam = QQ(3, 5)
    cases = [
        (a3_h_strings(QQ(1), 2, lam, 2), h_row(1, lam)),
        (a3_h_strings(QQ(1), 2, QQ(1, 4), 2, QQ(1), 5), h_row(2, 5)),
        (a3_h_strings(QQ(1), 3, QQ(1), 4), h_row(3, 3, 4)),
        (a3_h_strings(QQ(1), 2, QQ(1, 4), 2), h_row(4)),
        (a3_h_strings(QQ(1), 3, QQ(0), 0), h_row(5, 3)),
        (a3_h_strings(QQ(0), 0, QQ(1), 4), h_row(6, 4)),
        (a3_h_strings(QQ(0), 0, QQ(0), 0), h_row(7)),
    ]
    for got, want in cases:
        assert got == [str(to_expr(h)) for h in want]


def test_skip_rank_detects_square_coefficient():
    rng = random.Random(20240823)
    for n in (2, 3):
        m = 2 * n - 1
        for _ in range(10):
            kappa = {}
            for i in range(1, m + 1):
                if rng.random() < 0.6:
                    c = QQ(rng.randint(-4, 4))
                    if c != 0:
                        kappa[(i, 2)] = c
                if rng.random() < 0.3:
                    kappa[(i, rng.randint(3, 5))] = QQ(rng.randint(1, 3))
            gs = [to_expr(g) for g in solve_g_system(n, kappa)]
            for s in range(1, m + 1):
                expect_full = kappa.get((s, 2), QQ(0)) != 0
                assert (pair_rank(gs[s - 1], gs[s + 1]) == 2) == expect_full


def test_contraction_relations_match_derivatives():
    D = 10
    n = 2
    kappa = {
        (1, 2): QQ(-1, 2),
        (2, 2): QQ(-1),
        (2, 3): QQ(2),
        (3, 2): QQ(-1, 2),
    }
    rels = dict(contraction_relations(n, kappa, D))
    q = rels["a1"].quiver
    f = potential_from_kappa(q, D, kappa)
    for arrow in q.arrows:
        assert f.cyclic_derivative(arrow.name) == rels[arrow.name]

    def terms(*words):
        return [{"coeff": c, "arrows": w.split("*")} for c, w in words]

    literal = [
        # x_2^3 has weight 6 = D: its derivative, of weight D - 1, must survive
        (2, {(2, 3): QQ(1)}, 6, [
            ("a1", terms(("1", "a2*b2"))),
            ("a2", terms(("1", "b2*a1"), ("1", "a3*b2"), ("3", "b2*a2*b2*a2*b2"))),
            ("b2", terms(("1", "a1*a2"), ("1", "a2*a3"), ("3", "a2*b2*a2*b2*a2"))),
            ("a3", terms(("1", "b2*a2"))),
        ]),
        # one loop, no powers: still one (zero) relation per arrow
        (1, {}, 5, [("a1", [])]),
    ]
    for n, kappa, D, expected in literal:
        rels = contraction_relations(n, kappa, D)
        assert [(label, element_to_json(el)) for label, el in rels] == expected
        assert all(el.truncation == D for _label, el in rels)


def test_presentation_flags_missing_square():
    gs = solve_g_system(2, {(3, 2): QQ(1)})
    assert [str(g) for g in gs] == ["y", "x", "-y", "-x", "2*x + y"]
    data = emit_presentation(gs)
    assert data["curves"][0] == {"index": 1, "type": "(-2,0)", "loop": "x"}
    assert data["curves"][1] == {"index": 2, "type": "(-1,-1)"}
    assert data["vertex0"]["type"] == "(-1,-1)"
    assert data["modules"] == [["u", "y"], ["u", "-y**2"]]


# -- the ring pipeline against the expression pipeline it replaced -----------------


def expression_chain(n, kappa, anchor):
    """The three-term recursion on sympy expressions, expanded at every step."""
    gs = [None] * (2 * n + 1)
    gs[anchor], gs[anchor + 1] = SY, SX

    def step(i):
        acc = sp.Integer(0)
        for (slot, j), c in kappa.items():
            if slot == i:
                acc += j * to_sympy(c) * gs[i] ** (j - 1)
        return acc

    for i in range(anchor + 1, 2 * n):
        gs[i + 1] = sp.expand(-gs[i - 1] - step(i))
    for i in range(anchor, 0, -1):
        gs[i - 1] = sp.expand(-gs[i + 1] - step(i))
    return gs


def expression_curve(g1, g2):
    if pair_rank(g1, g2) == 2:
        return {"type": "(-1,-1)"}
    c1, c2 = linear_part(g1), linear_part(g2)
    if c1[0] == 0 and c2[0] == 0:
        return {"type": "(-2,0)", "loop": "x"}
    if c1[1] == 0 and c2[1] == 0:
        return {"type": "(-2,0)", "loop": "y"}
    return {"type": "(-2,0)", "loop": "x+y"}


@st.composite
def tables_and_anchors(draw):
    n = draw(st.integers(2, 4))
    coeff = st.builds(QQ, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    kappa = {(i, 2): c for i, c in draw(
        st.dictionaries(st.integers(1, 2 * n - 1), coeff, max_size=2 * n - 1)).items()}
    # few higher powers: the degree of the chain multiplies by j - 1 at each one
    kappa.update(draw(st.dictionaries(
        st.tuples(st.integers(1, 2 * n - 1), st.integers(3, 5)), coeff, max_size=2)))
    return n, kappa, draw(st.integers(0, 2 * n - 1))


@settings(max_examples=50, deadline=None, database=None)
@given(tables_and_anchors())
def test_ring_pipeline_matches_expression_pipeline(case):
    n, kappa, anchor = case
    gs = solve_g_system(n, kappa, anchor)
    es = expression_chain(n, kappa, anchor)
    assert [to_expr(g) for g in gs] == es
    assert [str(g) for g in gs] == [str(e) for e in es]
    assert [monomial_strings(g) for g in gs] == [
        sorted(sympy_terms(e).values(), key=lambda t: (len(t), t)) for e in es]

    factors = es[0::2]
    data = emit_presentation(gs)
    assert data["hypersurface"] == f"u*v = {sp.expand(sp.prod(factors))}"
    assert data["modules"] == [
        ["u", str(sp.expand(sp.prod(factors[: i + 1])))] for i in range(n)]
    assert data["curves"] == [
        {"index": i, **expression_curve(factors[i - 1], factors[i])} for i in range(1, n + 1)]
    assert data["vertex0"] == expression_curve(factors[0], factors[n])


def test_g_system_preconditions():
    with pytest.raises(PreconditionError, match="anchor 4 outside 0..3"):
        solve_g_system(2, {}, anchor_index=4)
    with pytest.raises(PreconditionError, match="dependent linear parts"):
        solve_g_system(2, {}, anchor_values=(X + X**2, 2 * X))
    with pytest.raises(PreconditionError, match="constant term"):
        solve_g_system(2, {}, anchor_values=(X + Poly({(0, 0): QQ(1)}), Y))
    with pytest.raises(PreconditionError, match="kappa has a power below 2"):
        solve_g_system(2, {(2, 1): QQ(1)})
    with pytest.raises(PreconditionError, match="power p=1 below 2"):
        a3_realize(QQ(1), 1, QQ(0), 0)
    with pytest.raises(PreconditionError, match="power q=0 below 2"):
        a3_kappa_table(QQ(0), 0, QQ(1), 0)


def test_g_system_preconditions_survive_optimize():
    """Under python -O the anchor checks still raise, and qp realize still exits 1."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    script = (
        "import io, json, os, sys, tempfile\n"
        "from qpcalc.cli import main\n"
        "from qpcalc import QQ\n"
        "from qpcalc.field import ONE, PreconditionError\n"
        "from qpcalc.realize import X, Y, Poly, a3_realize, solve_g_system\n"
        "calls = [\n"
        "    lambda: solve_g_system(2, {}, anchor_index=9),\n"
        "    lambda: solve_g_system(2, {}, anchor_values=(X, -X)),\n"
        "    lambda: solve_g_system(2, {}, anchor_values=(X + Poly({(0, 0): ONE}), Y)),\n"
        "    lambda: solve_g_system(2, {(2, 1): ONE}),\n"
        "    lambda: a3_realize(QQ(1), 1, QQ(0), 0),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except PreconditionError as exc:\n"
        "        print('raised', exc)\n"
        "path = os.path.join(tempfile.mkdtemp(), 'k.json')\n"
        "with open(path, 'w') as fh:\n"
        "    json.dump({'n': 2, 'kappa': []}, fh)\n"
        "sys.stderr = io.StringIO()\n"
        "code = main(['realize', '--input', path, '--anchor', '4'])\n"
        "print('exit', code, sys.stderr.getvalue().strip())\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [
        "raised anchor 9 outside 0..3",
        "raised anchor pair has dependent linear parts",
        "raised anchor value has a constant term",
        "raised kappa has a power below 2",
        "raised power p=1 below 2",
        "exit 1 qp: precondition failed: anchor 4 outside 0..3",
    ]
