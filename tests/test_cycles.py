import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.field import QQ
from qpcalc.cycles import Potential, canonical_cycle, cycle_from_slots, x_monomial
from qpcalc.jacobi import all_paths
from qpcalc.quiver import double_an
from qpcalc.serialize import potential_from_json, potential_to_json


def path(q, names):
    """The word through the named arrows, in order."""
    arrows = [q.by_name[n] for n in names]
    return (arrows[0].tail, tuple(a.index for a in arrows))


def test_rotations_collapse_to_one_term():
    q = double_an(3, loopless=[1, 2, 3])
    xy = path(q, ["b1", "a1", "a2", "b2"])  # x then y at vertex 2
    yx = path(q, ["a2", "b2", "b1", "a1"])  # y then x
    assert canonical_cycle(q, xy) == canonical_cycle(q, yx)

    f = Potential(q, 10)
    f.add_cycle(xy, 1)
    f.add_cycle(yx, -1)
    assert f.is_zero()


def test_square_of_loop_derivative():
    q = double_an(1)  # one vertex, one loop a1
    f = x_monomial(q, 8, [(1, False), (1, False)])  # a1^2
    d = f.cyclic_derivative("a1")
    assert d.coeff((1, (0,))) == QQ(2)
    assert len(d.terms) == 1


def test_pair_square_derivative():
    q = double_an(3, loopless=[1, 2, 3])
    f = x_monomial(q, 12, [(2, False), (2, False)])  # (a2 b2)^2 at vertex 2
    d = f.cyclic_derivative("a2")
    w = path(q, ["b2", "a2", "b2"])
    assert d.coeff(w) == QQ(2)


def test_cycle_from_slots_rejects_non_closing():
    q = double_an(2)
    with pytest.raises(AssertionError):
        cycle_from_slots(q, [(2, True), (1, False)])  # x2' sits at vertex 2, x1 at vertex 1


def test_json_round_trip_is_canonical():
    q = double_an(3, loopless=[1, 2, 3])
    f = Potential(q, 9)
    f.add_cycle(path(q, ["a2", "b2", "b1", "a1"]), QQ(-3, 7))
    f.add_cycle(path(q, ["b1", "a1"]), 2)
    blob = potential_to_json(f)
    assert blob["quiver"] == {"n": 3, "loopless": [1, 2, 3]}
    # shortest cycle first, canonical rotation spelled from the minimal arrow
    assert blob["terms"][0]["arrows"] == ["a1", "b1"]
    g = potential_from_json(blob)
    assert potential_to_json(g) == blob


def test_truncation_drops_long_cycles_on_entry():
    q = double_an(1)
    f = Potential(q, 3)
    f.add_cycle(path(q, ["a1", "a1", "a1"]), 5)
    assert f.is_zero()


COEFFS = st.builds(QQ, st.sampled_from([-2, -1, 0, 1, 2]), st.integers(1, 3))


@st.composite
def potential_pairs(draw):
    """Two potentials on double_an(2..3) at D = 4..8, each built by add_cycle
    from 0-6 cycles of weight 1-6 in arbitrary rotations; a scale and a new
    truncation."""
    n = draw(st.integers(2, 3))
    q = double_an(n, draw(st.sets(st.integers(1, n))))
    D = draw(st.integers(4, 8))
    cycles = [w for w in all_paths(q, 7) if w[1] and q.head_of(w) == w[0]]

    def potential():
        f = Potential(q, D)
        for (_tail, ids), coeff, k in draw(st.lists(st.tuples(st.sampled_from(cycles), COEFFS,
                                                             st.integers(0, 5)), max_size=6)):
            k %= len(ids)
            f.add_cycle((q.arrows[ids[k]].tail, ids[k:] + ids[:k]), coeff)
        return f

    return potential(), potential(), draw(COEFFS), draw(st.integers(1, 9))


def _by_add_cycle(truncation, *parts):
    # the reference: one add_cycle per (potential, factor) term, in dict order
    out = Potential(parts[0][0].quiver, truncation)
    for f, factor in parts:
        for word, coeff in f.terms.items():
            out.add_cycle(word, factor * coeff)
    return out


@settings(max_examples=100, deadline=None, database=None)
@given(potential_pairs())
def test_potential_arithmetic_is_add_cycle_arithmetic(case):
    f, g, c, d = case
    D = f.truncation
    for got, want in [(f + g, _by_add_cycle(D, (f, 1), (g, 1))),
                      (f - g, _by_add_cycle(D, (f, 1), (g, -1))),
                      (-f, _by_add_cycle(D, (f, -1))),
                      (f.scale(c), _by_add_cycle(D, (f, c))),
                      (f.truncate(d), _by_add_cycle(d, (f, 1)))]:
        assert type(got) is Potential
        assert got.truncation == want.truncation
        assert list(got.terms.items()) == list(want.terms.items())
        words = [w for w, _c in got.sorted_items()]
        assert words == sorted(got.terms, key=lambda w: (len(w[1]), w[1]))
    with pytest.raises(TypeError):
        f * g
