from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpcalc import QQ, double_an, monomial
from qpcalc.a3 import a3_quiver, normalize, xy_potential
from qpcalc.cycles import Potential, canonical_cycle, cycle_from_slots, x_monomial
from qpcalc.jacobi import all_paths, fingerprint
from qpcalc.series import NCElement
from qpcalc.serialize import substitution_to_json
from qpcalc.subst import Substitution
from qpcalc.monomial import (
    PreconditionError,
    add_loop,
    eliminate_loop,
    extract_monomial,
    monomialize,
    _monomialize_core,
    _unit_middles,
    potential_from_kappa,
    read_terms,
    type_a_report,
)


def xm(q, trunc, slots, coeff=1):
    """Plain x-letter product: slots is a list of (index, primed) or ints."""
    spec = [(s, False) if isinstance(s, int) else s for s in slots]
    return x_monomial(q, trunc, spec, coeff)


def middle(q, trunc, i, coeff=1):
    f = Potential(q, trunc)
    f.add_cycle(q.concat(q.xprime_word(i), q.x_word(i + 1)), coeff)
    return f


def base(q, trunc, coeffs=None):
    """Sum of consecutive products, coefficient 1 unless overridden."""
    coeffs = coeffs or {}
    f = Potential(q, trunc)
    for i in range(1, q.m):
        f = f + middle(q, trunc, i, coeffs.get(i, 1))
    return f


def test_type_a_report_kinds():
    q = double_an(2)
    f = base(q, 8) + xm(q, 8, [3, 3, 3])
    rep = type_a_report(f)
    assert rep.kind == "ReducedTypeA" and rep.is_type_a and rep.reduced

    g = f + xm(q, 8, [1, 1], QQ(-1, 2))
    rep = type_a_report(g)
    assert rep.kind == "TypeA" and not rep.reduced and rep.loop_squares == (1,)

    h = middle(q, 8, 1) + xm(q, 8, [3, 3])
    rep = type_a_report(h)
    assert rep.kind == "NotTypeA" and rep.missing_middles == (2,)


def test_monomialize_rejects_inputs_outside_its_preconditions():
    q = double_an(2)
    f = base(q, 8) + xm(q, 8, [3, 3, 3])
    with pytest.raises(PreconditionError, match="loop squares present at"):
        monomialize(f + xm(q, 8, [1, 1], QQ(-1, 2)))
    with pytest.raises(PreconditionError, match="missing consecutive products at"):
        monomialize(middle(q, 8, 1) + xm(q, 8, [3, 3]))


def test_rescale_oracle():
    # consecutive-product coefficients (2, 3) force scale factors (1, 1/2, 2/3)
    q = double_an(2)
    f = base(q, 8, {1: 2, 2: 3}) + xm(q, 8, [1, 1]) + xm(q, 8, [3, 3])
    steps = []
    g = _unit_middles(f, steps)
    (sub,) = steps
    assert _unit_middles(g, steps) is g and len(steps) == 1  # nothing left to rescale
    rep = type_a_report(g)
    assert all(c == 1 for c in rep.middle_coeffs.values())
    assert g.coeff(cycle_from_slots(q, [(1, False), (1, False)])) == 1  # k_1 = 1
    assert g.coeff(cycle_from_slots(q, [(3, False), (3, False)])) == QQ(4, 9)  # k_3^2
    assert sub.apply_potential(f) == g
    assert sub.is_invertible()


def test_already_monomial_is_untouched():
    q = double_an(3, [1, 2, 3])
    lam = QQ(5, 7)
    f = potential_from_kappa(q, 10, {(1, 2): QQ(1), (2, 2): lam})
    g, table, sub = monomialize(f)
    assert g == f
    assert table == {(1, 2): QQ(1), (2, 2): lam}
    # identity witness: every arrow maps to itself
    assert all(sub.image_of(a.index) == NCElement.from_word(q, sub.truncation, (a.tail, (a.index,)))
               for a in q.arrows)


def test_skip_pass_exact():
    # a product jumping over a loop dies into minus itself times the edge square
    q = double_an(3, [1, 3])  # slots: edge, loop, edge
    lam = QQ(5)
    f = base(q, 10) + xm(q, 10, [(1, True), (3, False)], lam)
    g, table, sub = monomialize(f)
    assert table == {(1, 2): -lam}
    assert sub.apply_potential(f) == g


def test_higher_pass_loop_case():
    # cycle x_1^2 x_2 on the full doubled path with two vertices
    q = double_an(2)
    D = 9
    f = base(q, D) + xm(q, D, [1, 1, 2], QQ(3)) + xm(q, D, [3, 3, 3])
    g, table, sub = monomialize(f)
    assert sub.apply_potential(f) == g
    # nothing ever lands on pure powers of the first loop
    assert all(i != 1 for (i, j) in table)
    assert table[(3, 3)] == 1
    assert fingerprint(f) == fingerprint(g)


def test_higher_pass_pair_case():
    # cycle x_2' x_3^2 forces the edge-slot split
    q = double_an(2)
    D = 9
    f = base(q, D) + xm(q, D, [(2, True), (3, False), (3, False)], QQ(2))
    g, table, sub = monomialize(f)
    assert sub.apply_potential(f) == g
    assert extract_monomial(g) is not None
    assert fingerprint(f) == fingerprint(g)


def test_add_loop_boundary_oracle():
    q = double_an(2, [2])  # loop at 1, edge (1,2); vertex 2 loopless
    D = 8
    f = potential_from_kappa(q, D, {(1, 3): QQ(1), (2, 3): QQ(1)})
    g = add_loop(f, 2)
    assert g.quiver.m == 3
    assert extract_monomial(g) == {
        (1, 3): QQ(1),
        (2, 3): QQ(1),
        (2, 2): QQ(-1, 2),
        (3, 2): QQ(-1, 2),
    }
    back = eliminate_loop(g, 2)
    assert back.quiver.loopless == frozenset({2})
    assert extract_monomial(back) == {(1, 3): QQ(1), (2, 3): QQ(1)}


def test_add_loop_interior_oracle():
    q = double_an(3, [2])  # slots: loop@1, edge(1,2), edge(2,3), loop@3
    D = 8
    f = potential_from_kappa(q, D, {(1, 3): QQ(1), (4, 3): QQ(1)})
    g = add_loop(f, 2)
    assert g.quiver.m == 5
    assert extract_monomial(g) == {
        (1, 3): QQ(1),
        (5, 3): QQ(1),
        (2, 2): QQ(-1, 2),
        (3, 2): QQ(-1, 2),
        (4, 2): QQ(-1, 2),
    }
    back = eliminate_loop(g, 2)
    assert extract_monomial(back) == {(1, 3): QQ(1), (4, 3): QQ(1)}


def test_eliminate_loop_with_cubic_term():
    q = double_an(2)
    D = 8
    f = potential_from_kappa(
        q, D, {(1, 2): QQ(-1, 2), (1, 3): QQ(1), (3, 3): QQ(1)}
    )
    g = eliminate_loop(f, 1)
    assert g.quiver.loopless == frozenset({1})
    assert extract_monomial(g) is not None
    assert fingerprint(f) == fingerprint(g)


@lru_cache(maxsize=None)
def _cycles(n, loopless, max_weight):
    q = double_an(n, loopless)
    return q, sorted({canonical_cycle(q, w) for w in all_paths(q, max_weight)
                      if w[1] and q.head_of(w) == w[0]})


@st.composite
def random_potentials(draw):
    n = draw(st.integers(2, 4))
    loopless = tuple(sorted(draw(st.sets(st.integers(1, n)))))
    q, cycles = _cycles(n, loopless, 7)
    # x-degree 2 is where a skip can hide among other shapes, so draw it often
    quadratic = [w for w in cycles if sum(q.x_degrees(w)) == 2]
    f = Potential(q, 9)
    terms = st.one_of(st.sampled_from(quadratic), st.sampled_from(cycles))
    for word in draw(st.lists(terms, max_size=8, unique=True)):
        f.add_cycle(word, QQ(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 3))))
    return f


@settings(max_examples=100, deadline=None, database=None)
@given(random_potentials())
def test_read_terms_sorts_each_term_once(f):
    q = f.quiver
    kappa, middles, junk = read_terms(f)
    assert len(kappa) + len(middles) + len(junk) == len(f.terms)
    # the three parts add back up to f, so no term is lost or read twice
    back = Potential(q, f.truncation)
    for (i, j), coeff in kappa.items():
        back.add_cycle(q.x_power(i, j), coeff)
    for i, coeff in middles.items():
        back.add_cycle(q.concat(q.xprime_word(i), q.x_word(i + 1)), coeff)
    for word, coeff, _shape in junk:
        back.add_cycle(word, coeff)
    assert back == f
    junk_words = [word for word, _c, _s in junk]
    assert junk_words == [w for w in f.terms if w in set(junk_words)]  # in term order
    # the next-degree search in _monomialize_core relies on this
    for _word, _coeff, (kind, degree, _lo, _hi, _top) in junk:
        assert degree >= 2 and (degree > 2 or kind == "skip")


@st.composite
def skip_terms(draw):
    """The terms of a Type A potential on double_an(4..5), as (word, coeff)
    pairs in a drawn order: skips over two or more loop slots, consecutive
    products and a few cycles of x-degree 3."""
    n = draw(st.integers(4, 5))
    q, cycles = _cycles(n, (), 6)
    coeffs = st.builds(QQ, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))
    # a skip needs edge slots on both sides of its loop slot
    slots = [s for s in range(2, q.m) if q.is_loop(s) and not q.is_loop(s - 1) and not q.is_loop(s + 1)]
    skips = draw(st.lists(st.sampled_from(slots), min_size=2, unique=True))
    terms = [(cycle_from_slots(q, [(s - 1, True), (s + 1, False)]), draw(coeffs)) for s in skips]
    terms += [(cycle_from_slots(q, [(i, True), (i + 1, False)]), draw(coeffs)) for i in range(1, q.m)]
    cubic = [w for w in cycles if sum(q.x_degrees(w)) == 3]
    terms += [(w, draw(coeffs)) for w in draw(st.lists(st.sampled_from(cubic), max_size=3, unique=True))]
    return q, terms, draw(st.permutations(terms))


@settings(max_examples=25, deadline=None, database=None)
@given(skip_terms())
def test_monomialize_steps_do_not_depend_on_term_order(case):
    q, terms, shuffled = case
    runs = []
    for order in (terms, shuffled):
        f = Potential(q, 8)
        for word, coeff in order:
            f.add_cycle(word, coeff)
        runs.append(_monomialize_core(f))
    (g1, steps1), (g2, steps2) = runs
    assert [substitution_to_json(s) for s in steps1] == [substitution_to_json(s) for s in steps2]
    assert g1 == g2


# -- the removal rule against the skip and higher rules, kept as its oracle ---------


def _skip_substitution(q, D, coeff, shape):
    """Kill coeff * x_{s-1}' x_{s+1}, of the given shape, via a_s -> a_s - coeff * x_{s-1}'."""
    s = shape[2] + 1
    assert q.is_loop(s)
    return Substitution.moves(q, D, {q.a_index(s): (1, {q.xprime_word(s - 1): -coeff})})


def _higher_substitution(q, D, word, coeff, shape):
    """One removal pass for a cycle of the given shape touching at least two
    slots, degree >= 3: with r the top slot and s = r - 1, rotate so one
    full x_r block sits at the end, and move a_s by -coeff * (context)."""
    _, deg, lo, hi, _top = shape
    assert deg >= 3 and hi > lo
    s = hi - 1
    a_s, b_s = q.a_index(s), q.b_index(s)
    ids = word[1]
    L = len(ids)
    block = q.x_word(hi)[1]
    blen = len(block)
    if q.is_loop(s):
        # rotate any full x_r block to the end; the context is the cycle at
        # the loop vertex before it
        doubled = ids + ids
        k = next(i for i in range(L) if doubled[i : i + blen] == block)
        start = (k + blen) % L
        rot = ids[start:] + ids[:start]
        assert rot[L - blen :] == block
        context = rot[: L - blen]
    else:
        # x_s is an edge pair: rotate to start at a b_s immediately preceded
        # by a complete x_r block, then drop that b_s and the block
        k = next(i for i in range(L) if ids[i] == b_s and ids[(i - 1) % L] == block[-1])
        rot = ids[k:] + ids[:k]
        assert rot[0] == b_s and rot[L - blen :] == block
        context = rot[1 : L - blen]
    return Substitution.moves(q, D, {a_s: (1, {(q.left_vertex(s), context): -coeff})})


COEFFS = st.builds(QQ, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))


@st.composite
def type_a_potentials(draw):
    """A reduced Type A potential on double_an(2..4), some vertices loopless:
    consecutive products with drawn coefficients plus at least one junk term."""
    n = draw(st.integers(2, 4))
    # junk needs two slots, which only double_an(2, [1, 2]) lacks
    loopless = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=2 * n - 3))))
    q, cycles = _cycles(n, loopless, 7)
    D = draw(st.integers(8, 10))
    kinds = {w: monomial.term_shape(q, w)[0] for w in cycles}
    junk = [w for w in cycles if kinds[w] in ("skip", "other")]
    # pure powers of degree 3 and up, so the input stays reduced
    powers = [w for w in cycles if kinds[w] == "power" and sum(q.x_degrees(w)) >= 3]
    # skips are few among the junk cycles, so draw them often
    skips = [w for w in junk if kinds[w] == "skip"]
    terms = st.sampled_from(junk)
    if skips:
        terms = st.one_of(st.sampled_from(skips), terms)
    f = base(q, D, {i: draw(COEFFS) for i in range(1, q.m)})
    for word in draw(st.lists(terms, min_size=1, max_size=5, unique=True)):
        f.add_cycle(word, draw(COEFFS))
    for word in draw(st.lists(st.sampled_from(powers), max_size=3, unique=True)):
        f.add_cycle(word, draw(COEFFS))
    return f


@st.composite
def two_loop_potentials(draw):
    """A potential in x, y with a nonzero xy at D = 12, sometimes with the
    degenerate square x^2 + xy + y^2/4 that makes the funnel collect into x^d."""
    table = {(1, 1): draw(COEFFS)}
    if draw(st.booleans()):
        table.update({(2, 0): QQ(1), (0, 2): table[(1, 1)] ** 2 / 4})
    # one mixed term the funnel must remove, then any terms of degree 2..5
    table[draw(st.sampled_from([(1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (1, 4)]))] = draw(COEFFS)
    terms = [(i, j) for i in range(6) for j in range(6) if 2 <= i + j <= 5 and (i, j) != (1, 1)]
    for key in draw(st.lists(st.sampled_from(terms), max_size=4, unique=True)):
        table.setdefault(key, draw(COEFFS))
    return xy_potential(12, table)


def _images_and_entries(sub):
    return [(i, list(el.terms.items())) for i, el in sub.images.items()], list(sub._entries.items())


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(type_a_potentials(), two_loop_potentials()))
def test_removal_matches_the_skip_and_higher_rules(f):
    # every move the funnel makes, on the Type A and the two-loop path alike,
    # is the move the degree-2 skip rule or the higher rule made; each call
    # is checked as it is made, so a wrong move fails before the funnel runs on
    D, real, calls = f.truncation, monomial._removal, []

    def checked(q, word, coeff, shape):
        arrow, extra = real(q, word, coeff, shape)
        oracle = (_skip_substitution(q, D, coeff, shape) if shape[1] == 2
                  else _higher_substitution(q, D, word, coeff, shape))
        ours = Substitution.moves(q, D, {arrow: (1, extra)})
        assert _images_and_entries(ours) == _images_and_entries(oracle)
        calls.append(shape)
        return arrow, extra

    monomial._removal = checked
    try:
        normalize(f) if f.quiver is a3_quiver() else monomialize(f)
    finally:
        monomial._removal = real
    # a substitution step of normalize may cancel the drawn mixed term
    assume(calls)
