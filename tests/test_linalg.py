from qpcalc.field import QQ
from qpcalc.linalg import RowSpace, accumulate, rank_of


def test_rowspace_rank_and_membership():
    space = RowSpace()
    row = space.insert({"x": QQ(2), "y": QQ(4)})
    assert row == {"x": QQ(1, 2), "y": QQ(1)} and space.rows["y"] is row
    assert space.insert({"y": QQ(1)})
    assert space.insert({"x": QQ(3), "y": QQ(4)}) is None
    assert space.rank == 2
    assert not space.reduce({"x": QQ(-1), "y": QQ(7)})
    assert space.reduce({"x": QQ(1), "z": QQ(1)}) == {"x": QQ(1), "z": QQ(1)}


def test_rank_of_vectors():
    vecs = [
        {1: QQ(1), 2: QQ(1)},
        {2: QQ(1), 3: QQ(1)},
        {1: QQ(1), 3: QQ(-1)},
    ]
    assert rank_of(vecs) == 2


def test_accumulate_drops_cancelled_keys():
    acc = {"x": QQ(1), "y": QQ(2)}
    accumulate(acc, QQ(-2), {"y": QQ(1), "z": QQ(3)})
    assert acc == {"x": QQ(1), "z": QQ(-6)}


def test_int_entries_are_stored_as_exact_rationals():
    # 1 / 3 on plain ints would give a float; the echelon must stay in QQ
    space = RowSpace()
    assert space.insert({"x": 1, "y": 3})
    assert space.insert({"y": 7, "z": 2})
    assert not space.insert({"x": 2, "y": 13, "z": 2})
    assert space.rows == {"y": {"x": QQ(1, 3), "y": QQ(1)}, "z": {"y": QQ(7, 2), "z": QQ(1)}}
    for row in space.rows.values():
        assert all(type(v) is QQ for v in row.values())
    assert not space.reduce({"x": 1, "y": 10, "z": 2})
    assert rank_of([{1: 3, 2: 1}, {1: 6, 2: 2}, {2: 5, 3: 1}]) == 2
