import pytest

from qpcalc.field import QQ
from qpcalc.cycles import Potential, canonical_cycle, cycle_from_slots, x_monomial
from qpcalc.quiver import double_an
from qpcalc.serialize import potential_from_json, potential_to_json


def test_rotations_collapse_to_one_term():
    q = double_an(3, loopless=[1, 2, 3])
    xy = q.word_from_names(["b1", "a1", "a2", "b2"])  # x then y at vertex 2
    yx = q.word_from_names(["a2", "b2", "b1", "a1"])  # y then x
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
    w = q.word_from_names(["b2", "a2", "b2"])
    assert d.coeff(w) == QQ(2)


def test_cycle_from_slots_rejects_non_closing():
    q = double_an(2)
    with pytest.raises(AssertionError):
        cycle_from_slots(q, [(2, True), (1, False)])  # x2' sits at vertex 2, x1 at vertex 1


def test_json_round_trip_is_canonical():
    q = double_an(3, loopless=[1, 2, 3])
    f = Potential(q, 9)
    f.add_cycle(q.word_from_names(["a2", "b2", "b1", "a1"]), QQ(-3, 7))
    f.add_cycle(q.word_from_names(["b1", "a1"]), 2)
    blob = potential_to_json(f)
    assert blob["quiver"] == {"n": 3, "loopless": [1, 2, 3]}
    # shortest cycle first, canonical rotation spelled from the minimal arrow
    assert blob["terms"][0]["arrows"] == ["a1", "b1"]
    g = potential_from_json(blob)
    assert potential_to_json(g) == blob


def test_truncation_drops_long_cycles_on_entry():
    q = double_an(1)
    f = Potential(q, 3)
    f.add_cycle(q.word_from_names(["a1", "a1", "a1"]), 5)
    assert f.is_zero()
