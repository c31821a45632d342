import random

import sympy as sp

from qpcalc import QQ, double_an
from qpcalc.monomial import potential_from_kappa
from qpcalc.realize import (
    X,
    Y,
    a3_kappa_table,
    a3_realize,
    contraction_relations,
    emit_presentation,
    h_row,
    pair_rank,
    solve_g_system,
)


def test_zero_table_alternates():
    gs = solve_g_system(2, {})
    assert gs == [Y, X, -Y, -X, Y]


def test_anchor_override_propagates_both_ways():
    gs = solve_g_system(2, {}, anchor_index=2, anchor_values=(X, X + Y))
    # downward: g_1 = -g_3, g_0 = -g_2; upward: g_4 = -g_2
    assert gs == [-X, sp.expand(-X - Y), X, X + Y, -X]


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
    assert [sp.expand(g - e) for g, e in zip(gs, expected)] == [0] * 7


def a3_h_exprs(k1, p, k2, q, k3=QQ(0), s=0):
    data = a3_realize(k1, p, k2, q, k3, s)
    return tuple(sp.sympify(h, locals={"x": X, "y": Y}) for h in data["h"])


def test_h_rows_for_all_families():
    lam = QQ(3, 5)
    cases = [
        (a3_h_exprs(QQ(1), 2, lam, 2), h_row(1, lam)),
        (a3_h_exprs(QQ(1), 2, QQ(1, 4), 2, QQ(1), 5), h_row(2, 5)),
        (a3_h_exprs(QQ(1), 3, QQ(1), 4), h_row(3, 3, 4)),
        (a3_h_exprs(QQ(1), 2, QQ(1, 4), 2), h_row(4)),
        (a3_h_exprs(QQ(1), 3, QQ(0), 0), h_row(5, 3)),
        (a3_h_exprs(QQ(0), 0, QQ(1), 4), h_row(6, 4)),
        (a3_h_exprs(QQ(0), 0, QQ(0), 0), h_row(7)),
    ]
    for got, want in cases:
        assert all(sp.expand(g - w) == 0 for g, w in zip(got, want))


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
            gs = solve_g_system(n, kappa)
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
    q = double_an(n)
    f = potential_from_kappa(q, D, kappa)
    rels = dict(contraction_relations(n, kappa, D, quiver=q))
    for arrow in q.arrows:
        assert f.cyclic_derivative(arrow.name) == rels[arrow.name]


def test_presentation_flags_missing_square():
    data = emit_presentation(solve_g_system(2, {(3, 2): QQ(1)}))
    assert data["g"] == ["y", "x", "-y", "-x", "2*x + y"]
    assert data["curves"][0] == {"index": 1, "type": "(-2,0)", "loop": "x"}
    assert data["curves"][1] == {"index": 2, "type": "(-1,-1)"}
    assert data["vertex0"]["type"] == "(-1,-1)"
    assert data["modules"] == [["u", "y"], ["u", "-y**2"]]
