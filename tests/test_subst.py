from hypothesis import given, settings, strategies as st

from qpcalc.field import QQ
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
