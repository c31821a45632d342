import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.appendix import appendix_quiver
from qpcalc.cycles import Potential, canonical_cycle
from qpcalc.field import QQ
from qpcalc.quiver import Quiver, double_an
from qpcalc.series import NCElement


def path(q, names):
    """The word through the named arrows, in order."""
    arrows = [q.by_name[n] for n in names]
    return (arrows[0].tail, tuple(a.index for a in arrows))


def el(q, name, coeff=1, D=8):
    return NCElement.from_word(q, D, path(q, [name]), coeff)


def test_addition_cancels():
    q = double_an(1)
    a = el(q, "a1")
    assert (a - a).is_zero()
    assert (a + a).coeff((1, (0,))) == QQ(2)


def test_multiplication_respects_composability():
    q = double_an(2, loopless=[1, 2])
    a1 = el(q, "a1")
    b1 = el(q, "b1")
    assert not (a1 * b1).is_zero()  # 1->2->1
    assert (a1 * a1).is_zero()  # 1->2 then 1->2 vanishes

    x = a1 * b1  # cycle at 1
    assert min(q.weight_of(w) for w in x.terms) == 2
    assert max(q.weight_of(w) for w in (x * x).terms) == 4


def test_truncation_drops_heavy_words():
    q = double_an(1)
    a = el(q, "a1", D=4)
    p = a * a * a  # weight 3 survives at truncation 4
    assert min(q.weight_of(w) for w in p.terms) == 3
    assert (p * a).is_zero()


def test_lazy_paths_are_units_at_their_vertex():
    q = double_an(2, loopless=[1, 2])
    e1 = NCElement.lazy(q, 6, 1)
    e2 = NCElement.lazy(q, 6, 2)
    a1 = el(q, "a1", D=6)
    assert (e1 * a1) == a1
    assert (a1 * e2) == a1
    assert (a1 * e1).is_zero()


def test_truncate_keeps_all_going_up_and_drops_heavy_going_down():
    q = double_an(1)  # one loop a1
    D = 7
    el = NCElement.zero(q, D)
    for k in range(1, D):
        el = el + NCElement.from_word(q, D, (1, (0,) * k), QQ(k, 2))
    up = el.truncate(D + 3)
    assert up.truncation == D + 3 and up.terms == el.terms
    for low in (1, 3, 6):
        down = el.truncate(low)
        assert down.truncation == low
        assert down.terms == {w: c for w, c in el.terms.items() if len(w[1]) < low}


def test_truncate_filters_by_weight_not_length():
    q = appendix_quiver(1)
    loop = (0, (q.loop(0, 0),))  # one arrow of weight 2
    arrow = (0, (q.a(0),))
    el = NCElement(q, 6, {loop: 1, arrow: 2})
    assert el.truncate(2).terms == {arrow: QQ(2)}
    assert el.truncate(3).terms == el.terms


def test_sums_of_mixed_classes_raise():
    # a Potential keys by canonical cycles; a plain element's keys need not be
    q = double_an(2, ())
    D = 8
    cycle = path(q, ["a1", "a2", "b2"])
    rotated = path(q, ["a2", "b2", "a1"])
    f = Potential(q, D, {cycle: 1})
    g = NCElement(q, D, {rotated: -1})
    for left, right in ((f, g), (g, f)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    total = f + Potential(q, D, {rotated: -1})
    assert type(total) is Potential and total.is_zero()


def test_relabel_identity_keeps_element_and_class():
    q = double_an(2, ())
    D = 8
    identity = {a.index: a.index for a in q.arrows}
    x = el(q, "a1") * el(q, "a2") + NCElement.lazy(q, D, 2)
    assert type(x.relabel(q, identity)) is NCElement and x.relabel(q, identity) == x
    f = Potential(q, D, {path(q, ["a2", "b2", "a1"]): 3, path(q, ["a3"]): 1})
    assert type(f.relabel(q, identity)) is Potential and f.relabel(q, identity) == f


def test_relabel_drops_exactly_the_words_using_unmapped_arrows():
    q = double_an(2, ())
    D = 8
    kept = {a.index: a.index for a in q.arrows if a.name != "a3"}
    x = NCElement(q, D, {path(q, names): k for k, names in enumerate(
        [["a1"], ["a3"], ["a2", "a3"], ["a2", "b2"], ["a1", "a2", "a3", "b2"]], start=1)})
    a3 = q.by_name["a3"].index
    assert x.relabel(q, kept).terms == {w: c for w, c in x.terms.items() if a3 not in w[1]}


def test_relabel_drops_lazy_paths_off_the_target_and_recanonicalises():
    # the same arrows listed in another order, so a mapped cycle needs a new rotation
    q = double_an(2, ())
    target = Quiver([1, 2], [("c", 2, 2, 1), ("a", 1, 2, 1), ("b", 2, 1, 1), ("d", 1, 1, 1)])
    amap = {q.by_name["a1"].index: 3, q.by_name["a2"].index: 1,
            q.by_name["b2"].index: 2, q.by_name["a3"].index: 0}
    x = NCElement(q, 8, {(1, ()): 1, (2, ()): 2})
    assert x.relabel(double_an(1, ()), {}).terms == {(1, ()): QQ(1)}
    f = Potential(q, 8, {path(q, ["a1", "a2", "a3", "b2"]): 5})
    g = f.relabel(target, amap)
    assert type(g) is Potential
    assert all(canonical_cycle(target, w) == w for w in g.terms)
    assert g.coeff((1, (3, 1, 0, 2))) == QQ(5)


def random_walks(q, max_weight):
    """Every word of weight below ``max_weight``, lazy paths included."""
    out, frontier = [], [(v, ()) for v in q.vertices]
    while frontier:
        out.extend(frontier)
        frontier = [(w[0], w[1] + (a.index,)) for w in frontier
                    for a in q.arrows_by_tail[q.head_of(w)]
                    if q.weight_of(w) + a.weight < max_weight]
    return out


@st.composite
def factor_pairs(draw):
    """Two elements on double_an(2..3) or the weight-2 appendix quiver, at a
    random truncation, with terms in random order and cancelling sums likely."""
    kind = draw(st.sampled_from(["double", "double", "appendix"]))
    if kind == "double":
        n = draw(st.integers(2, 3))
        q = double_an(n, sorted(draw(st.sets(st.integers(1, n)))))
    else:
        q = appendix_quiver(draw(st.integers(1, 2)))
    D = draw(st.integers(1, 7))
    words = random_walks(q, D)
    coeffs = st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(-1, 2), QQ(3, 4)])

    def element():
        picked = draw(st.lists(st.sampled_from(words), max_size=8, unique=True))
        return NCElement(q, D, {w: draw(coeffs) for w in picked})

    return element(), element()


def brute_force_product(left, right):
    """Every (left, right) term pair in order, summed term by term; a key that
    cancels leaves the dict, and comes back at its end."""
    q, D = left.quiver, left.truncation
    out = {}
    for lw, lc in left.terms.items():
        for rw, rc in right.terms.items():
            word = (lw[0], lw[1] + rw[1])
            if q.head_of(lw) != rw[0] or q.weight_of(word) >= D:
                continue
            total = out.get(word, QQ(0)) + lc * rc
            if total:
                out[word] = total
            else:
                del out[word]
    return out


@settings(max_examples=200, deadline=None, database=None)
@given(factor_pairs())
def test_product_matches_the_pair_loop_in_terms_and_order(pair):
    left, right = pair
    assert list((left * right).terms.items()) == list(brute_force_product(left, right).items())
