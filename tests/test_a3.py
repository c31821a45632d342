"""Two-cycle potential calculus: normal forms, classes, flops, orbits."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qpcalc import monomial
from qpcalc.a3 import (
    A3Class,
    NotOnQ,
    a3_quiver,
    apq_orbit,
    apq_relations,
    class_potential,
    classify,
    derived_orbit,
    flop,
    gv_set,
    lambda_orbit,
    mu_orbit,
    normalize,
    swap_class,
    xy_potential,
    xy_word,
)
from qpcalc.field import QQ, PreconditionError
from qpcalc.jacobi import jacobi_relations, jdim_oracle
from qpcalc.monomial import potential_from_kappa
from qpcalc.quiver import double_an
from qpcalc.series import NCElement

SRC = Path(__file__).resolve().parent.parent / "src"


def xyp(trunc, table):
    return xy_potential(trunc, {k: QQ(*v) if isinstance(v, tuple) else QQ(v)
                                for k, v in table.items()})


def test_normalize_kills_junk_exactly():
    f = xyp(13, {(2, 0): 1, (1, 1): 1, (0, 2): 1,
                 (2, 1): 3, (1, 2): -2, (3, 0): 5, (0, 3): 7,
                 (2, 2): 1, (4, 0): -4})
    g, w = normalize(f)
    assert g == xyp(13, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert w.apply_potential(f) == g


def test_normalize_funnel_stops_at_max_passes(monkeypatch):
    # x y^3 funnels through x^2 y^2 into x^3 y: two removals, then a check
    f = xyp(10, {(2, 0): 1, (1, 1): 1, (0, 2): 1, (1, 3): 1})
    g, w = normalize(f)
    assert g == xyp(10, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    monkeypatch.setattr(monomial, "MAX_PASSES", 1)
    with pytest.raises(AssertionError, match="junk of degree 4 left after 1 passes"):
        normalize(f)


def test_normalize_degenerate_square_keeps_one_power():
    f = xyp(13, {(2, 0): 1, (1, 1): 1, (0, 2): (1, 4), (3, 0): 1, (4, 0): 1})
    g, w = normalize(f)
    mu = g.coeff(xy_word(g.quiver, 3, 0))
    assert mu != 0
    assert g == xyp(13, {(2, 0): 1, (1, 1): 1, (0, 2): (1, 4)}) + \
        xy_potential(13, {(3, 0): mu})
    assert w.apply_potential(f) == g


def test_normalize_fixed_point():
    f = xyp(14, {(3, 0): 1, (1, 1): 1, (0, 5): 1})
    g, w = normalize(f)
    assert g == f
    # identity witness: every arrow maps to itself
    q = f.quiver
    assert all(w.image_of(a.index) == NCElement.from_word(q, w.truncation, (a.tail, (a.index,)))
               for a in q.arrows)


def test_classify_examples():
    c = classify(xyp(9, {(2, 0): 3, (1, 1): 1, (0, 2): (1, 12)}))
    assert (c.family, c.parameters) == (4, ())
    # scaling to the unit form would need a square root of 3
    assert c.exact_normalizer is None

    c = classify(xyp(14, {(3, 0): 1, (1, 1): 1, (0, 5): 1}))
    assert (c.family, c.parameters) == (3, (3, 5))

    c = classify(xyp(9, {(1, 1): 1}))
    assert (c.family, c.parameters) == (7, ())
    assert c.exact_normalizer is not None


def test_classify_is_stable_under_normalize():
    inputs = [
        xyp(13, {(2, 0): 2, (1, 1): 1, (0, 2): 3, (2, 1): 1, (0, 3): 2}),
        xyp(13, {(2, 0): 1, (1, 1): 1, (0, 2): (1, 4), (2, 1): 1, (4, 0): 1}),
        xyp(13, {(2, 0): 1, (1, 1): 1, (1, 2): 5}),
        xyp(13, {(1, 1): 1, (0, 3): 2, (2, 1): -1}),
    ]
    for f in inputs:
        c = classify(f)
        again = classify(c.normal_form)
        assert (again.family, again.parameters) == (c.family, c.parameters)


def test_exact_normalizer_witnesses_scaled_canonical():
    cases = [
        xyp(9, {(2, 0): 9, (1, 1): 1, (0, 2): (1, 3)}),            # family 1
        xyp(9, {(2, 0): 4, (1, 1): 1, (0, 2): (1, 16), (3, 0): 1}),  # family 2
        xyp(11, {(2, 0): 8, (1, 1): 1, (0, 3): (1, 4)}),           # family 3
        xyp(9, {(3, 0): 7, (1, 1): 1}),                            # family 5
        xyp(9, {(1, 1): 1, (0, 4): -3}),                           # family 6
    ]
    for f in cases:
        c = classify(f)
        assert c.exact_normalizer is not None
        canon = class_potential(c, f.truncation).scale(c.normalizer_scale)
        assert c.exact_normalizer.apply_potential(f) == canon


def test_normalizer_absent_when_root_irrational():
    c = classify(xyp(9, {(2, 0): 2, (1, 1): 1, (0, 2): 1}))
    assert (c.family, c.parameters) == (1, (QQ(2),))
    assert c.exact_normalizer is None


def test_flop_table_values():
    lam = QQ(1, 3)
    c = A3Class(1, (lam,))
    assert flop(c, 1).parameters == (QQ(1, 4) - lam,)
    assert flop(c, 3).parameters == (QQ(1, 4) - lam,)
    assert flop(c, 2).parameters == (1 / (16 * lam),)

    c2 = A3Class(2, (5,))
    assert flop(c2, 1).key() == (3, (2, 5))
    assert isinstance(flop(c2, 2), NotOnQ)
    assert flop(c2, 3).key() == (3, (5, 2))

    c4 = A3Class(4, ())
    assert flop(c4, 1).key() == (5, (2,))
    assert flop(c4, 2).key() == (4, ())
    assert flop(c4, 3).key() == (6, (2,))

    assert flop(A3Class(5, (2,)), 1).key() == (4, ())
    assert isinstance(flop(A3Class(5, (4,)), 1), NotOnQ)
    assert isinstance(flop(A3Class(3, (3, 5)), 1), NotOnQ)
    assert flop(A3Class(3, (2, 7)), 1).key() == (2, (7,))


# flop(cls, curve) for curves 1, 2, 3: a class key, or the curve NotOnQ reports
FLOP_TABLE = {
    (1, (QQ(1, 3),)): [(1, (QQ(-1, 12),)), (1, (QQ(3, 16),)), (1, (QQ(-1, 12),))],
    (1, (QQ(2),)): [(1, (QQ(-7, 4),)), (1, (QQ(1, 32),)), (1, (QQ(-7, 4),))],
    (1, (QQ(-1),)): [(1, (QQ(5, 4),)), (1, (QQ(-1, 16),)), (1, (QQ(5, 4),))],
    (1, (QQ(1, 8),)): [(1, (QQ(1, 8),)), (1, (QQ(1, 2),)), (1, (QQ(1, 8),))],
    (1, (QQ(-3, 4),)): [(1, (QQ(1),)), (1, (QQ(-1, 12),)), (1, (QQ(1),))],
    (2, (3,)): [(3, (2, 3)), 2, (3, (3, 2))],
    (2, (4,)): [(3, (2, 4)), 2, (3, (4, 2))],
    (2, (7,)): [(3, (2, 7)), 2, (3, (7, 2))],
    (3, (2, 3)): [(2, (3,)), 2, 3],
    (3, (2, 5)): [(2, (5,)), 2, 3],
    (3, (3, 2)): [1, 2, (2, (3,))],
    (3, (5, 2)): [1, 2, (2, (5,))],
    (3, (3, 3)): [1, 2, 3],
    (3, (3, 4)): [1, 2, 3],
    (3, (4, 3)): [1, 2, 3],
    (4, ()): [(5, (2,)), (4, ()), (6, (2,))],
    (5, (2,)): [(4, ()), 2, 3],
    (5, (3,)): [1, 2, 3],
    (5, (4,)): [1, 2, 3],
    (5, (6,)): [1, 2, 3],
    (6, (2,)): [1, 2, (4, ())],
    (6, (3,)): [1, 2, 3],
    (6, (4,)): [1, 2, 3],
    (6, (6,)): [1, 2, 3],
    (7, ()): [1, 2, 3],
}


@pytest.mark.parametrize("key", FLOP_TABLE, ids=str)
def test_flop_matches_the_full_table(key):
    got = [flop(A3Class(*key), curve) for curve in (1, 2, 3)]
    assert [r.curve if isinstance(r, NotOnQ) else r.key() for r in got] == FLOP_TABLE[key]


def test_flop_is_an_involution_on_q():
    samples = [
        A3Class(1, (QQ(1),)), A3Class(1, (QQ(-2, 7),)), A3Class(2, (3,)),
        A3Class(2, (5,)), A3Class(3, (2, 4)), A3Class(3, (4, 2)),
        A3Class(3, (3, 3)), A3Class(4, ()), A3Class(5, (2,)),
        A3Class(5, (4,)), A3Class(6, (2,)), A3Class(6, (3,)), A3Class(7, ()),
    ]
    for c in samples:
        for curve in (1, 2, 3):
            r = flop(c, curve)
            if isinstance(r, NotOnQ):
                continue
            back = flop(r, curve)
            assert not isinstance(back, NotOnQ)
            assert back.key() == c.key()


def test_lambda_orbit_of_one():
    got = lambda_orbit(QQ(1))
    assert got == {QQ(1), QQ(-3, 4), QQ(-1, 12), QQ(1, 3), QQ(3, 16), QQ(1, 16)}
    # closed under both generators
    for lam in got:
        assert QQ(1, 4) - lam in got
        assert 1 / (16 * lam) in got


def test_derived_orbits():
    members, off = derived_orbit(A3Class(1, (QQ(1),)))
    assert {m.parameters[0] for m in members} == lambda_orbit(QQ(1))
    assert off == 0

    members, off = derived_orbit(A3Class(2, (4,)))
    assert {m.key() for m in members} == {(2, (4,)), (3, (2, 4)), (3, (4, 2))}
    assert off > 0

    members, off = derived_orbit(A3Class(3, (3, 5)))
    assert {m.key() for m in members} == {(3, (3, 5)), (3, (5, 3))}
    assert off > 0

    with pytest.raises(PreconditionError, match="finite-dimensional families"):
        derived_orbit(A3Class(5, (3,)))


def test_gv_sets():
    assert gv_set(A3Class(1, (QQ(1),))) == [1, 1, 1, 1, 1, 1]
    assert gv_set(A3Class(2, (4,))) == [1, 1, 1, 1, 1, 3]
    assert gv_set(A3Class(3, (3, 5))) == [1, 1, 1, 1, 2, 4]
    with pytest.raises(ValueError):
        gv_set(A3Class(7, ()))


def test_mu_orbits_and_quaternion_type():
    assert mu_orbit(QQ(2)) == {QQ(2), QQ(-1), QQ(1, 2)}
    assert mu_orbit(QQ(1, 2)) == {QQ(2), QQ(-1), QQ(1, 2)}

    out = apq_orbit(2, 2, QQ(2))
    assert out["kind"] == "mu_orbit"
    assert set(out["mu_values"]) == {QQ(2), QQ(-1), QQ(1, 2)}
    assert out["lambda"] == QQ(1, 2)

    out = apq_orbit(3, 2, QQ(1))
    assert out == {"kind": "pair", "members": [(2, 3), (3, 2)], "off_q": True}

    out = apq_orbit(4, 2, QQ(1))
    assert out["lambda"] == QQ(1, 4)


def test_quaternion_type_dimension_matches_potential_model():
    q = a3_quiver()
    mu = QQ(2)
    rels = apq_relations(2, 2, mu, 12)
    f = xyp(12, {(2, 0): 1, (1, 1): 1}) + xy_potential(12, {(0, 2): mu / 4})
    assert jdim_oracle(q, rels, 12) == 20
    assert jdim_oracle(q, jacobi_relations(f), 12) == 20


@pytest.mark.parametrize("family, table", [
    (1, {(2, 0): 1, (1, 1): 1, (0, 2): 3}),
    (3, {(3, 0): 1, (1, 1): 1, (0, 5): 2}),
    (5, {(4, 0): -2, (1, 1): 1, (2, 1): 1}),
    (6, {(1, 1): 1, (0, 3): 5, (1, 2): 1}),
])
def test_swapping_x_and_y_swaps_the_class(family, table):
    swapped = {(j, i): c for (i, j), c in table.items()}
    cls, swapped_cls = classify(xyp(13, table)), classify(xyp(13, swapped))
    assert cls.family == family
    assert swapped_cls.key() == swap_class(cls).key()


def test_class_potential_is_the_monomial_table():
    # x is slot 1 and y slot 2, so the canonical form is a power table
    assert class_potential((2, (5,)), 12) == potential_from_kappa(
        a3_quiver(), 12, {(1, 2): QQ(1), (2, 2): QQ(1, 4), (1, 5): QQ(1)})
    assert class_potential((7, ()), 12) == xyp(12, {(1, 1): 1})


def test_classify_rejects_another_quiver():
    # x^2 + xy + y^3 on the 2-vertex doubled path with a loop at vertex 2:
    # x is the edge 2-cycle x_1' and y the loop, not a two-cycle potential
    f = potential_from_kappa(double_an(2, loopless=[1]), 12, {(1, 2): QQ(1), (2, 3): QQ(1)})
    for step in (classify, normalize):
        with pytest.raises(PreconditionError, match="loopless three-vertex doubled path"):
            step(f)


# inputs outside what the two-cycle layer accepts, with the PreconditionError
# message each must raise, with or without -O
A3_PRECONDITIONS = {
    "lambda_orbit-quarter": ("lambda_orbit(QQ(1, 4))", "lambda must be neither 0 nor 1/4"),
    "lambda_orbit-zero": ("lambda_orbit(QQ(0))", "lambda must be neither 0 nor 1/4"),
    "derived_orbit-quarter": ("derived_orbit(A3Class(1, (QQ(1, 4),)))",
                              "lambda must be neither 0 nor 1/4"),
    "derived_orbit-family-5": ("derived_orbit(A3Class(5, (3,)))",
                               "orbit is defined for the finite-dimensional families"),
    "classify-without-crossing": ("classify(xy_potential(12, {(2, 0): QQ(1), (0, 3): QQ(1)}))",
                                  "missing consecutive products at (1,)"),
    # x^2 + xy + y^3 with x the edge 2-cycle and y the loop of double_an(2, [1])
    "classify-off-quiver": ("classify(potential_from_kappa(double_an(2, loopless=[1]), 12, "
                            "{(1, 2): QQ(1), (2, 3): QQ(1)}))",
                            "classification expects the loopless three-vertex doubled path"),
}


@pytest.mark.parametrize("case", sorted(A3_PRECONDITIONS))
def test_a3_preconditions_raise(case):
    call, message = A3_PRECONDITIONS[case]
    namespace = {"A3Class": A3Class, "QQ": QQ, "classify": classify, "derived_orbit": derived_orbit,
                 "double_an": double_an, "lambda_orbit": lambda_orbit,
                 "potential_from_kappa": potential_from_kappa, "xy_potential": xy_potential}
    with pytest.raises(PreconditionError, match=re.escape(message)):
        eval(call, namespace)


# argv holds (case name, call) pairs; one line per case, "<name>: <outcome>"
A3_SCRIPT = """
import sys
from qpcalc.a3 import A3Class, classify, derived_orbit, lambda_orbit, xy_potential
from qpcalc.field import QQ, PreconditionError
from qpcalc.monomial import potential_from_kappa
from qpcalc.quiver import double_an
for name, call in zip(sys.argv[1::2], sys.argv[2::2]):
    try:
        print(f"{name}: {eval(call)}")
    except PreconditionError as exc:
        print(f"{name}: PreconditionError: {exc}")
"""


@pytest.fixture(scope="module")
def optimized_a3_outcomes():
    """The whole A3_PRECONDITIONS table run in one python -O interpreter, by case name."""
    argv = [arg for case in sorted(A3_PRECONDITIONS) for arg in (case, A3_PRECONDITIONS[case][0])]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-O", "-c", A3_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [line.split(": ", 1) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("case", sorted(A3_PRECONDITIONS))
def test_a3_preconditions_survive_optimize(case, optimized_a3_outcomes):
    # under -O an assert would let 1/4 reach a division by 1 - 4 lam, a
    # potential without xy reach the end of normalize, and one on another
    # quiver reach the two-cycle layer
    assert [name for name, _ in optimized_a3_outcomes] == sorted(A3_PRECONDITIONS)
    assert dict(optimized_a3_outcomes)[case] == f"PreconditionError: {A3_PRECONDITIONS[case][1]}"
