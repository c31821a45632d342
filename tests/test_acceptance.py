"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its headline numbers; pytest -v
shows the per-criterion verdict. Exact rational arithmetic throughout, so
every comparison is equality, never approximate.
"""

import random
import time

import sympy as sp

from qpcalc.a3 import (
    A3Class,
    class_potential,
    derived_orbit,
    flop,
    lambda_orbit,
    mu_orbit,
    xy_potential,
)
from qpcalc.cycles import Potential, x_monomial
from qpcalc.field import QQ, ZERO
from qpcalc.appendix import appendix_checks, exactness_check
from qpcalc.jacobi import (
    EXACT,
    LOWER_BOUND,
    fingerprint,
    jacobi_relations,
    jdim,
    jdim_oracle,
    same_ideal_below,
    vertex_commutativity,
)
from qpcalc.monomial import (
    add_loop,
    eliminate_loop,
    extract_monomial,
    monomialize,
    potential_from_kappa,
)
from qpcalc.quiver import double_an
from qpcalc.realize import (
    a3_realize,
    contraction_relations,
    h_row,
    solve_g_system,
)
from test_realize import pair_rank, to_expr


def build(quiver, truncation, terms):
    f = Potential(quiver, truncation)
    for spec, c in terms:
        f = f + x_monomial(quiver, truncation, spec, QQ(*c) if isinstance(c, tuple) else QQ(c))
    return f


def test_criterion_1_dimension_table():
    cases = []
    for lam in (QQ(1), QQ(2), QQ(-1), QQ(1, 3)):
        cases.append((f"lam={lam}", {(2, 0): QQ(1), (1, 1): QQ(1), (0, 2): lam}, 20, {6, 6}))
    for s in (3, 4, 5):
        cases.append((f"s={s}", {(2, 0): QQ(1), (1, 1): QQ(1), (0, 2): QQ(1, 4), (s, 0): QQ(1)},
                      9 * s + 2, None))
    for p, q in ((2, 3), (3, 3), (3, 4), (2, 5)):
        cases.append((f"pq={p}{q}", {(p, 0): QQ(1), (1, 1): QQ(1), (0, q): QQ(1)},
                      4 * p + 4 * q + 4, {4 * q - 2, 4 * p - 2}))
    for D in (12, 13, 14):
        for name, coeffs, want, want_ends in cases:
            started = time.time()
            f = xy_potential(D, coeffs)
            report = jdim(f)
            assert report.value == want, (D, name, report)
            if name in ("s=5", "pq=25") and D == 12:
                # a fifth power has path weight 10, too close to 12 for the
                # emptiness certificate; the total is still the exact one
                assert report.certificate == LOWER_BOUND
            else:
                assert report.certificate == EXACT, (D, name)
            if want_ends is not None:
                ends = {jdim(f, quotient_vertices=(1,)).value,
                        jdim(f, quotient_vertices=(3,)).value}
                assert ends == want_ends, (D, name, ends)
            oracle = jdim_oracle(f.quiver, jacobi_relations(f), D)
            assert oracle == report.value, (D, name, oracle)
            assert time.time() - started < 60
    print(f"PASS criterion 1: {len(cases)} table rows at D=12,13,14, oracle agrees on all")


def test_criterion_2_unbounded_families_stay_lower_bounds():
    families = {
        "x2+xy+y2/4": {(2, 0): QQ(1), (1, 1): QQ(1), (0, 2): QQ(1, 4)},
        "x2+xy": {(2, 0): QQ(1), (1, 1): QQ(1)},
        "x3+xy": {(3, 0): QQ(1), (1, 1): QQ(1)},
        "xy": {(1, 1): QQ(1)},
    }
    for name, coeffs in families.items():
        values = []
        for D in (8, 10, 12):
            report = jdim(xy_potential(D, coeffs))
            assert report.certificate == LOWER_BOUND, (name, D)
            values.append(report.value)
        assert values[0] < values[1] < values[2], (name, values)
    print(f"PASS criterion 2: {len(families)} families keep growing over D=8,10,12, "
          "all reported LowerBound")


def _closure(seed, generators):
    done, todo = set(), [sp.cancel(seed)]
    while todo:
        e = todo.pop()
        if e in done:
            continue
        done.add(e)
        todo.extend(sp.cancel(g(e)) for g in generators)
    return done


def test_criterion_3_parameter_orbits():
    started = time.time()
    lam = sp.symbols("lam")
    lam_gens = (lambda e: sp.Rational(1, 4) - e, lambda e: 1 / (16 * e))
    symbolic = _closure(lam, lam_gens)
    listed = {sp.cancel(e) for e in (
        lam, (1 - 4 * lam) / 4, 1 / (4 * (1 - 4 * lam)),
        lam / (4 * lam - 1), (4 * lam - 1) / (16 * lam), 1 / (16 * lam))}
    assert symbolic == listed and len(symbolic) == 6

    mu = sp.symbols("mu")
    mu_gens = (lambda e: 1 - e, lambda e: 1 / e)
    symbolic_mu = _closure(mu, mu_gens)
    listed_mu = {sp.cancel(e) for e in (
        mu, 1 - mu, 1 / (1 - mu), mu / (mu - 1), (mu - 1) / mu, 1 / mu)}
    assert symbolic_mu == listed_mu and len(symbolic_mu) == 6

    rng = random.Random(20260825)
    samples = 0
    while samples < 20:
        value = QQ(rng.randint(-30, 30), rng.randint(1, 12))
        if value in (QQ(0), QQ(1, 4)):
            continue
        samples += 1
        orbit = lambda_orbit(value)
        evaluated = {sp.Rational(str(e.subs(lam, sp.Rational(str(value))))) for e in listed
                     if e.subs(lam, sp.Rational(str(value))) is not sp.zoo}
        assert {sp.Rational(str(v)) for v in orbit} == evaluated
        assert all(QQ(1, 4) - v in orbit and 1 / (16 * v) in orbit
                   for v in orbit if v != 0)
        if value not in (QQ(0), QQ(1)):
            mu_vals = mu_orbit(value)
            assert all(1 - v in mu_vals and (v == 0 or 1 / v in mu_vals) for v in mu_vals)
    elapsed = time.time() - started
    assert elapsed < 1.0, elapsed
    print(f"PASS criterion 3: symbolic orbits are the six listed maps, 20 random "
          f"rational seeds agree ({elapsed:.2f}s)")


def test_criterion_4_flop_formulas_and_orbit_fingerprints():
    samples = [
        A3Class(1, (QQ(1),)), A3Class(1, (QQ(2),)), A3Class(1, (QQ(-1),)),
        A3Class(1, (QQ(1, 3),)), A3Class(2, (3,)), A3Class(2, (5,)),
        A3Class(3, (2, 3)), A3Class(3, (3, 4)), A3Class(4, ()),
        A3Class(5, (2,)), A3Class(5, (3,)), A3Class(6, (2,)), A3Class(7, ()),
    ]
    for cls in samples:
        for curve in (1, 2, 3):
            out = flop(cls, curve)
            if isinstance(out, A3Class):
                back = flop(out, curve)
                assert isinstance(back, A3Class) and back.key() == cls.key(), (cls, curve)
    for s in (3, 4, 5):
        assert flop(A3Class(2, (s,)), 1).key() == (3, (2, s))
        assert flop(A3Class(2, (s,)), 3).key() == (3, (s, 2))
    checked = 0
    for seed in (A3Class(1, (QQ(1),)), A3Class(2, (3,)), A3Class(3, (3, 4))):
        members, _off = derived_orbit(seed)
        for member in members:
            fp = fingerprint(class_potential(member, 12))
            family, params = member.key()
            if family == 1:
                assert fp.total == (20, EXACT) and fp.ends == ((6, EXACT), (6, EXACT))
            elif family == 2:
                (s,) = params
                assert fp.total == (9 * s + 2, EXACT)
            else:
                p, q = params
                assert fp.total == (4 * p + 4 * q + 4, EXACT)
                assert tuple(e[0] for e in fp.ends) == tuple(sorted((4 * q - 2, 4 * p - 2)))
            checked += 1
    print(f"PASS criterion 4: involution on {len(samples)} classes, family-2 flop "
          f"targets, {checked} orbit fingerprints match the table")


def _monomialization_cases():
    q2, q3 = double_an(2), double_an(3)
    m2 = [([(1, False), (2, False)], 1), ([(2, True), (3, False)], 1)]
    m3 = m2 + [([(3, False), (4, False)], 1), ([(4, True), (5, False)], 1)]
    x = False  # plain letter; True marks the reversed pair
    return [
        (q2, m2 + [([(1, x)] * 3, 1), ([(1, x), (1, x), (2, x)], 1)]),
        (q2, m2 + [([(3, x)] * 3, 1), ([(2, True), (3, x), (3, x)], (1, 2))]),
        (q2, m2 + [([(1, x)] * 3, 1), ([(3, x)] * 3, 1), ([(1, x), (1, x), (2, x)], 1)]),
        (q2, m2 + [([(1, x)] * 3, 1), ([(3, x)] * 3, 1), ([(2, True), (3, x), (3, x)], (1, 2))]),
        (q2, m2 + [([(1, x)] * 4, 1), ([(3, x)] * 3, 1), ([(1, x), (2, x), (2, x)], 1)]),
        (q3, m3 + [([(2, True), (4, x)], 1)]),
        (q3, m3 + [([(2, True), (4, x)], 1), ([(3, x)] * 4, 1)]),
        (q3, m3 + [([(1, x)] * 3, 1), ([(3, x)] * 3, 1), ([(5, x)] * 3, 1),
                   ([(3, x), (4, x), (3, x), (4, x)], (1, 2))]),
        (q3, m3 + [([(1, x)] * 3, 1), ([(4, True), (5, x), (5, x)], 1)]),
        (q3, m3 + [([(2, True), (3, x), (4, x)], 1), ([(1, x)] * 5, 1)]),
        (q3, m3 + [([(1, x)] * 3, 1), ([(3, x)] * 3, 1), ([(5, x)] * 3, 1),
                   ([(2, True), (3, x), (3, x), (3, x), (4, x)], 1)]),
    ]


def test_criterion_5_monomialization():
    finite = 0
    cases = _monomialization_cases()
    for quiver, terms in cases:
        f = build(quiver, 12, terms)
        g, table, sub = monomialize(f)
        assert extract_monomial(g) == table
        assert not any(j == 2 and quiver.is_loop(i) for i, j in table)
        assert sub.apply_potential(f) == g, "witness does not reproduce the output"
        before, after = jdim(f), jdim(g)
        assert before.counts == after.counts and before.certificate == after.certificate
        if before.certificate == EXACT:
            assert fingerprint(f) == fingerprint(g)
            finite += 1
    assert finite >= 3, "expected several finite-dimensional cases"
    print(f"PASS criterion 5: {len(cases)} inputs monomial below 12 with sound "
          f"witnesses; fingerprints preserved on {finite} finite cases")


def test_criterion_6_loop_transfer():
    quiver = double_an(3, loopless=[1, 2, 3])
    f = build(quiver, 12, [([(1, True), (2, False)], 1),
                           ([(1, True)] * 2, 1), ([(2, False)] * 3, 1)])
    before = fingerprint(f)
    g = add_loop(f, 2)
    table = extract_monomial(g)
    assert sorted(g.quiver.loopless) == [1, 3]
    assert table[(2, 2)] == QQ(-1, 2), "new loop square must come in at -1/2"
    assert fingerprint(g) == before
    h = eliminate_loop(g, 2)
    assert sorted(h.quiver.loopless) == [1, 2, 3]
    assert fingerprint(h) == before
    print(f"PASS criterion 6: add/eliminate loop round trip keeps fingerprint "
          f"{before.total}, new loop coefficient -1/2")


def test_criterion_7_realization():
    rows = [
        (1, (QQ(1),), dict(kappa1=QQ(1), p=2, kappa2=QQ(1), q=2)),
        (1, (QQ(1, 3),), dict(kappa1=QQ(1), p=2, kappa2=QQ(1, 3), q=2)),
        (2, (3,), dict(kappa1=QQ(1), p=2, kappa2=QQ(1, 4), q=2, kappa3=QQ(1), s=3)),
        (2, (4,), dict(kappa1=QQ(1), p=2, kappa2=QQ(1, 4), q=2, kappa3=QQ(1), s=4)),
        (3, (2, 3), dict(kappa1=QQ(1), p=2, kappa2=QQ(1), q=3)),
        (3, (3, 3), dict(kappa1=QQ(1), p=3, kappa2=QQ(1), q=3)),
        (4, (), dict(kappa1=QQ(1), p=2, kappa2=QQ(1, 4), q=2)),
        (5, (2,), dict(kappa1=QQ(1), p=2, kappa2=ZERO, q=0)),
        (5, (3,), dict(kappa1=QQ(1), p=3, kappa2=ZERO, q=0)),
        (6, (3,), dict(kappa1=ZERO, p=0, kappa2=QQ(1), q=3)),
        (7, (), dict(kappa1=ZERO, p=0, kappa2=ZERO, q=0)),
    ]
    for family, params, kwargs in rows:
        data = a3_realize(**kwargs)
        want = [str(to_expr(h)) for h in h_row(family, *params)]
        assert data["h"] == want, (family, params, data["h"], want)

    rng = random.Random(20260825)
    n = 3
    for _trial in range(20):
        table = {}
        for s in range(1, 2 * n):
            if rng.random() < 0.5:
                c = rng.randint(-4, 4)
                if c:
                    table[(s, 2)] = QQ(c, rng.randint(1, 3))
            if rng.random() < 0.4:
                coeff = QQ(rng.randint(-3, 3))
                if coeff:
                    table[(s, rng.randint(3, 5))] = coeff
        gs = [to_expr(g) for g in solve_g_system(n, table, rng.randint(0, 2 * n - 1))]
        for s in range(1, 2 * n):
            assert pair_rank(gs[s], gs[s + 1]) == 2
            assert (pair_rank(gs[s - 1], gs[s + 1]) == 2) == (table.get((s, 2), ZERO) != 0)

    tables = [
        {(2, 3): QQ(1)},
        {(1, 3): QQ(1), (3, 3): QQ(1), (5, 3): QQ(1)},
        {(2, 2): QQ(-1), (4, 2): QQ(-1), (1, 4): QQ(1, 2)},
        {(1, 2): QQ(-1, 2), (2, 2): QQ(-1), (3, 2): QQ(-1, 2), (4, 2): QQ(-1), (5, 2): QQ(-1, 2)},
        {(4, 3): QQ(2), (2, 2): QQ(1, 3)},
    ]
    for table in tables:
        cons = [el for _label, el in contraction_relations(3, table, 12)]
        q3 = cons[0].quiver
        jac = jacobi_relations(potential_from_kappa(q3, 12, table))
        assert same_ideal_below(q3, cons, jac, 12)
    print(f"PASS criterion 7: {len(rows)} factor-table rows bit-exact, skip test on 20 "
          f"random tables, {len(tables)} relation sets generate the derivative ideal")


def test_criterion_8_vertex_commutativity():
    q2, q3 = double_an(2), double_an(3)
    m2 = [([(1, False), (2, False)], 1), ([(2, True), (3, False)], 1)]
    m3 = m2 + [([(3, False), (4, False)], 1), ([(4, True), (5, False)], 1)]
    monomial_inputs = [
        build(q2, 10, m2 + [([(1, False)] * 3, 1), ([(3, False)] * 3, 1)]),
        build(q2, 10, m2 + [([(2, False)] * 2, 1)]),
        build(q3, 10, m3 + [([(1, False)] * 3, 1), ([(3, False)] * 3, 1), ([(5, False)] * 3, 1)]),
        build(q3, 10, m3 + [([(2, False)] * 3, (1, 2)), ([(4, False)] * 2, 1)]),
        build(q3, 10, m3),
    ]
    for f in monomial_inputs:
        report = vertex_commutativity(f)
        assert report.commutes, (f.terms, report.vertex)

    quiver = double_an(3, loopless=[1, 2, 3])
    g = build(quiver, 5, [([(1, True)] * 2, 1), ([(2, False)] * 2, 1)])
    report = vertex_commutativity(g)
    assert not report.commutes and report.vertex == 2
    first, second = report.pair
    assert first == quiver.xprime_word(1) and second == quiver.x_word(2)
    commutator = {
        quiver.concat(first, second): QQ(1),
        quiver.concat(second, first): QQ(-1),
    }
    assert report.witness.terms == commutator, "witness must be the crossing commutator"
    print(f"PASS criterion 8: {len(monomial_inputs)} monomial inputs commute at every "
          "vertex; missing-crossing input fails with the crossing commutator")


def test_criterion_9_cyclic_quiver_checks():
    started = time.time()
    for n in (1, 2, 3, 4):
        t_n = time.time()
        report = appendix_checks(n, 10)
        assert report["overlaps"]["pass"], n
        assert report["completion_fixpoint"]["pass"], n
        assert report["basis"]["pass"], n
        assert report["recursion"]["pass"], n
        exactness = exactness_check(n, 10)
        assert exactness["pass"], n
        if n == 4:
            assert time.time() - t_n < 180
    print(f"PASS criterion 9: overlaps, fixpoint, basis, recursion, exactness for "
          f"n=1..4 at D=10 ({time.time() - started:.1f}s)")
