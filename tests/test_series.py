from qpcalc.appendix import appendix_quiver
from qpcalc.field import QQ
from qpcalc.quiver import double_an
from qpcalc.series import NCElement


def el(q, name, coeff=1, D=8):
    return NCElement.arrow(q, D, name, coeff)


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
    a = NCElement.arrow(q, 4, "a1")
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
