import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.field import QQ, PreconditionError
from qpcalc.cycles import x_monomial
from qpcalc.quiver import double_an
from qpcalc.series import NCElement
from qpcalc.subst import Substitution, compose, compose_chain


def path(q, names):
    """The word through the named arrows, in order."""
    arrows = [q.by_name[n] for n in names]
    return (arrows[0].tail, tuple(a.index for a in arrows))


def quiver_a3():
    return double_an(3, loopless=[1, 2, 3])


def arrow(q, D, name, coeff=1):
    return NCElement.from_word(q, D, path(q, [name]), coeff)


def shear(q, D, coeff=1):
    """a1 -> a1 + coeff * a1 b1 a1, everything else fixed."""
    a1 = arrow(q, D, "a1")
    corr = NCElement.from_word(q, D, path(q, ["a1", "b1", "a1"]), coeff)
    return Substitution(q, D, {q.by_name["a1"].index: a1 + corr})


def test_self_composition_coefficients():
    # (a1 -> a1 + a1 x) twice gives a1 + 2 a1x + 2 a1x^2 + a1x^3; at
    # truncation 6 the x^3 word (length 7) is gone.
    q = quiver_a3()
    s = shear(q, 6)
    ss = compose(s, s)
    img = ss.image_of(q.by_name["a1"].index)
    assert img.coeff(path(q, ["a1"])) == QQ(1)
    assert img.coeff(path(q, ["a1", "b1", "a1"])) == QQ(2)
    assert img.coeff(path(q, ["a1", "b1", "a1", "b1", "a1"])) == QQ(2)
    assert len(img.terms) == 3


def test_invertibility():
    q = quiver_a3()
    s = shear(q, 8, coeff=QQ(-5, 3))
    assert s.is_invertible()

    # a linear rescale is invertible
    r = Substitution(q, 8, {q.by_name["a1"].index: arrow(q, 8, "a1", QQ(3))})
    assert r.is_invertible()

    # killing an arrow is not invertible
    z = Substitution(q, 8, {q.by_name["a1"].index: NCElement.zero(q, 8)})
    assert not z.is_invertible()


def test_potential_application_collects_rotations():
    q = quiver_a3()
    D = 10
    f = x_monomial(q, D, [(1, True), (2, False)])  # x y at vertex 2
    s = shear(q, D, coeff=QQ(1, 2))
    g = s.apply_potential(f)
    # x y picks up the correction (1/2) x^2 y once per a1 occurrence
    assert g.coeff(path(q, ["b1", "a1", "a2", "b2"])) == QQ(1)
    assert g.coeff(path(q, ["b1", "a1", "b1", "a1", "a2", "b2"])) == QQ(1, 2)
    assert len(g.terms) == 2


def test_compose_against_sequential_application():
    q = quiver_a3()
    D = 8
    s1 = shear(q, D, coeff=2)
    b1 = arrow(q, D, "b1")
    corr = NCElement.from_word(q, D, path(q, ["b1", "a1", "b1"]), QQ(1, 3))
    s2 = Substitution(q, D, {q.by_name["b1"].index: b1 + corr})
    f = x_monomial(q, D, [(1, True), (1, True)])  # x^2
    once = s2.apply_potential(s1.apply_potential(f))
    combined = compose(s1, s2).apply_potential(f)
    assert once == combined


A2 = double_an(2)  # loops at both vertices: a1, a2: 1 -> 2, b2: 2 -> 1, a3


def paths(q, tail, head, min_len, max_len):
    """Every word from tail to head with min_len <= length <= max_len."""
    out, frontier = [], [(tail, ())]
    for length in range(1, max_len + 1):
        frontier = [(tail, w[1] + (a.index,)) for w in frontier
                    for a in q.arrows_by_tail[q.head_of(w)]]
        if length >= min_len:
            out.extend(w for w in frontier if q.head_of(w) == head)
    return out


@st.composite
def unitriangular(draw, D):
    """Each arrow to itself plus up to two longer words with small coefficients."""
    q = A2
    images = {}
    for a in draw(st.sets(st.sampled_from(q.arrows), max_size=len(q.arrows))):
        el = arrow(q, D, a.name)
        for w in draw(st.lists(st.sampled_from(paths(q, a.tail, a.head, 2, D - 1)),
                               max_size=2, unique=True)):
            coeff = QQ(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 3)))
            el = el + NCElement.from_word(q, D, w, coeff)
        images[a.index] = el
    return Substitution(q, D, images)


def images_of(s):
    return {i: s.image_of(i).terms for i in range(len(s.quiver.arrows))}


@st.composite
def chain(draw, min_size, max_size):
    D = draw(st.integers(3, 7))
    return draw(st.lists(unitriangular(D), min_size=min_size, max_size=max_size))


@settings(max_examples=50, deadline=None, database=None)
@given(chain(3, 3))
def test_compose_is_associative(steps):
    s1, s2, s3 = steps
    assert images_of(compose(compose(s1, s2), s3)) == images_of(compose(s1, compose(s2, s3)))


@settings(max_examples=50, deadline=None, database=None)
@given(chain(0, 5))
def test_compose_chain_matches_step_by_step_left_fold(steps):
    D = steps[0].truncation if steps else 5
    left = Substitution.identity(A2, D)
    for s in steps:
        left = compose(left, s)
    right = compose_chain(steps, A2, D)
    assert images_of(right) == images_of(left)
    assert sorted(right.images) == sorted(left.images)


@st.composite
def move_tables(draw):
    """A doubled A_2 or A_3 quiver, a truncation, and some arrows each with a
    nonzero scale and up to two longer words, zero coefficients included."""
    n = draw(st.integers(2, 3))
    q = double_an(n, sorted(draw(st.sets(st.integers(1, n)))))
    D = draw(st.integers(2, 7))
    coeffs = st.sampled_from([QQ(0), QQ(1), QQ(-2), QQ(3, 4)])
    table = {}
    for a in draw(st.lists(st.sampled_from(q.arrows), min_size=1, max_size=3, unique=True)):
        longer = paths(q, a.tail, a.head, 2, D)
        words = draw(st.lists(st.sampled_from(longer), max_size=2, unique=True)) if longer else []
        scale = draw(st.sampled_from([QQ(1), QQ(-1), QQ(5, 3)]))
        table[a.index] = (scale, {w: draw(coeffs) for w in words})
    return q, D, table


@settings(max_examples=60, deadline=None, database=None)
@given(move_tables())
def test_moves_match_the_explicit_images_in_order(case):
    q, D, table = case
    s = Substitution.moves(q, D, table)
    assert list(s.images) == list(table)
    for index, (scale, extra) in table.items():
        a = q.arrows[index]
        explicit = NCElement.from_word(q, D, (a.tail, (index,))).scale(scale) + NCElement(q, D, extra)
        assert list(s.images[index].terms.items()) == list(explicit.terms.items())


def test_moves_keep_an_arrow_whose_extra_vanishes():
    q = quiver_a3()
    a1 = q.by_name["a1"].index
    s = Substitution.moves(q, 8, {a1: (1, {path(q, ["a1", "b1", "a1"]): QQ(0)})})
    assert list(s.images) == [a1]
    assert s.images[a1].terms == {path(q, ["a1"]): QQ(1)}


# -- the gain filter of apply_word -----------------------------------------------


def product_of_images(s, word):
    """The oracle: the word's letters' images multiplied in order, no filter."""
    acc = NCElement.lazy(s.quiver, s.truncation, word[0])
    for idx in word[1]:
        acc = acc * s.image_of(idx)
    return acc


@st.composite
def filter_cases(draw, lazy_loops=True):
    """Substitution.moves on double_an(2..3), with a loop on at least one
    vertex: scales 0 and pure rescales drawn often, and with ``lazy_loops`` a
    loop sometimes mapped to loop + lazy path (gain -1). Also some words of
    length 0 to D + 1 to apply it to, single arrows drawn often."""
    n = draw(st.integers(2, 3))
    q = double_an(n, sorted(draw(st.sets(st.integers(1, n), max_size=n - 1))))
    D = draw(st.integers(2, 8))
    table = {}
    for a in draw(st.lists(st.sampled_from(q.arrows), min_size=1, max_size=4, unique=True)):
        scale = draw(st.sampled_from([QQ(0), QQ(1), QQ(-1), QQ(5, 3)]))
        extra = {}
        if draw(st.booleans()):  # not a pure rescale
            longer = paths(q, a.tail, a.head, 2, D - 1)
            for w in draw(st.lists(st.sampled_from(longer), max_size=2, unique=True)) if longer else []:
                extra[w] = draw(st.sampled_from([QQ(1), QQ(-2), QQ(3, 4)]))
        if lazy_loops and a.tail == a.head and draw(st.booleans()):
            extra[(a.tail, ())] = draw(st.sampled_from([QQ(1), QQ(-1, 2)]))
        table[a.index] = (scale, extra)
    words = []
    for _ in range(draw(st.integers(1, 6))):
        word = (draw(st.sampled_from(q.vertices)), ())
        for _ in range(draw(st.one_of(st.just(1), st.integers(0, D + 1)))):
            word = (word[0], word[1] + (draw(st.sampled_from(q.arrows_by_tail[q.head_of(word)])).index,))
        words.append(word)
    return Substitution.moves(q, D, table), words


def terms_in_order(el):
    return list(el.terms.items())


@settings(max_examples=300, deadline=None, database=None)
@given(filter_cases())
def test_apply_word_matches_the_product_of_images(case):
    s, words = case
    for word in words:
        assert terms_in_order(s.apply_word(word)) == terms_in_order(product_of_images(s, word))


@settings(max_examples=150, deadline=None, database=None)
@given(filter_cases(), st.integers(0, 2))
def test_apply_element_matches_the_product_of_images(case, above):
    # the element may sit above the substitution's truncation, so some of its
    # words weigh at least the truncation
    s, words = case
    q, D = s.quiver, s.truncation
    el = NCElement(q, D + above, {w: QQ(k + 1, 2) for k, w in enumerate(words)})
    expected = NCElement(q, D)
    for word, coeff in el.terms.items():
        expected = expected + product_of_images(s, word).scale(coeff)
    assert terms_in_order(s.apply_element(el)) == terms_in_order(expected)


@st.composite
def move_tables_on(draw, q, D):
    """Moves on a given quiver: scales 0 and 1 included, up to two longer words."""
    table = {}
    for a in draw(st.lists(st.sampled_from(q.arrows), min_size=1, max_size=3, unique=True)):
        longer = paths(q, a.tail, a.head, 2, D - 1)
        words = draw(st.lists(st.sampled_from(longer), max_size=2, unique=True)) if longer else []
        table[a.index] = (draw(st.sampled_from([QQ(0), QQ(1), QQ(-1), QQ(2, 3)])),
                          {w: draw(st.sampled_from([QQ(1), QQ(-3, 2)])) for w in words})
    return table


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_compose_chain_keeps_images_and_entries_as_a_fresh_substitution(data):
    # images and their (own coefficient, gain) entries stay in step through
    # compose, whether an image is made or reused from the right factor
    first, _words = data.draw(filter_cases(lazy_loops=False))
    q, D = first.quiver, first.truncation
    steps = [first]
    for _ in range(data.draw(st.integers(0, 3))):
        steps.append(Substitution.moves(q, D, data.draw(move_tables_on(q, D))))
    chained = compose_chain(steps, q, D)
    fresh = Substitution(q, D, chained.images)
    assert {i: terms_in_order(el) for i, el in chained.images.items()} == \
        {i: terms_in_order(el) for i, el in fresh.images.items()}
    assert chained._entries == fresh._entries
    assert list(chained._entries) == list(chained.images)


def test_entries_record_own_coefficient_and_least_gain():
    q = quiver_a3()
    a1, b1 = q.by_name["a1"].index, q.by_name["b1"].index
    D = 8
    x3 = path(q, ["a1", "b1"] * 3)  # weight 6: no correction of weight 2 fits
    shear3 = Substitution.moves(q, D, {
        a1: (QQ(3), {path(q, ["a1", "b1", "a1", "b1", "a1"]): QQ(1),
                     path(q, ["a1", "b1", "a1"]): QQ(-1)})})
    assert shear3._entries == {a1: (QQ(3), 2)}
    assert shear3.apply_word(x3).terms == {x3: QQ(27)}
    # an own coefficient 0 makes the word vanish; an image with no other term
    # has gain D
    killed = Substitution.moves(q, D, {a1: (QQ(3), {path(q, ["a1", "b1", "a1"]): QQ(1)}),
                                       b1: (QQ(0), {})})
    assert killed._entries == {a1: (QQ(3), 2), b1: (QQ(0), D)}
    assert killed.apply_word(x3).is_zero()


def test_a_gain_below_one_falls_back_to_the_product():
    # a1 -> a1 + e1 on the one-loop quiver: (a1 + e1)^k below weight 3, not a1^k;
    # even a word at or above the truncation has terms below it
    q = double_an(1)
    a1 = q.by_name["a1"].index
    s = Substitution.moves(q, 3, {a1: (QQ(1), {(1, ()): QQ(1)})})
    assert s._entries == {a1: (QQ(1), -1)}
    assert terms_in_order(s.apply_word((1, (a1, a1)))) == [
        ((1, (a1, a1)), QQ(1)), ((1, (a1,)), QQ(2)), ((1, ()), QQ(1))]
    assert terms_in_order(s.apply_word((1, (a1,) * 4))) == [
        ((1, (a1, a1)), QQ(6)), ((1, (a1,)), QQ(4)), ((1, ()), QQ(1))]


# -- preconditions that python -O keeps -----------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

SUBST_PRECONDITIONS = {
    "image-truncation": (
        "Substitution(q, 6, {a1: NCElement.from_word(q, 7, (1, (a1,)))})",
        "image of a1 is on another quiver or truncation"),
    "image-quiver": (
        "Substitution(q, 6, {a1: NCElement.from_word(double_an(3, [1, 2, 3]), 6, (1, (a1,)))})",
        "image of a1 is on another quiver or truncation"),
    "image-endpoints": (
        "Substitution(q, 6, {a1: NCElement.from_word(q, 6, (2, (b1,)))})",
        "image of a1 must run 1 -> 2"),
    "compose-truncation": (
        "compose(Substitution(q, 6), Substitution(q, 7))",
        "composed substitutions must share the quiver and the truncation"),
    "compose-quiver": (
        "compose(Substitution(q, 6), Substitution(double_an(3, [1, 2, 3]), 6))",
        "composed substitutions must share the quiver and the truncation"),
    "apply-element-quiver": (
        "Substitution(q, 6).apply_element(NCElement.lazy(double_an(3, [1, 2, 3]), 6, 1))",
        "the element and the substitution are on different quivers"),
}

# argv holds (case name, call) pairs; one line per case, "<name>: <outcome>"
SUBST_SCRIPT = """
import sys
from qpcalc.field import PreconditionError
from qpcalc.quiver import double_an
from qpcalc.series import NCElement
from qpcalc.subst import Substitution, compose
q = double_an(3, [1, 2, 3])
a1, b1 = q.by_name["a1"].index, q.by_name["b1"].index
for name, call in zip(sys.argv[1::2], sys.argv[2::2]):
    try:
        eval(call)
        print(f"{name}: no error")
    except PreconditionError as exc:
        print(f"{name}: PreconditionError: {exc}")
"""


@pytest.mark.parametrize("case", sorted(SUBST_PRECONDITIONS))
def test_substitution_preconditions_raise(case):
    call, message = SUBST_PRECONDITIONS[case]
    q = quiver_a3()
    namespace = {"Substitution": Substitution, "compose": compose, "NCElement": NCElement,
                 "double_an": double_an, "q": q,
                 "a1": q.by_name["a1"].index, "b1": q.by_name["b1"].index}
    with pytest.raises(PreconditionError) as info:
        eval(call, namespace)
    assert str(info.value) == message


@pytest.fixture(scope="module")
def optimized_subst_outcomes():
    """The whole SUBST_PRECONDITIONS table run in one python -O interpreter, by case name."""
    argv = [arg for case in sorted(SUBST_PRECONDITIONS)
            for arg in (case, SUBST_PRECONDITIONS[case][0])]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-O", "-c", SUBST_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [line.split(": ", 1) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("case", sorted(SUBST_PRECONDITIONS))
def test_substitution_preconditions_survive_optimize(case, optimized_subst_outcomes):
    # the gain filter trusts these checks, so -O must not strip them
    assert [name for name, _ in optimized_subst_outcomes] == sorted(SUBST_PRECONDITIONS)
    assert dict(optimized_subst_outcomes)[case] == \
        f"PreconditionError: {SUBST_PRECONDITIONS[case][1]}"
