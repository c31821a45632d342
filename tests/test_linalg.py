from qpcalc.field import QQ
from qpcalc.linalg import RowSpace, det_dense, rank_of


def test_rowspace_rank_and_membership():
    space = RowSpace()
    assert space.insert({"x": QQ(1), "y": QQ(2)})
    assert space.insert({"y": QQ(1)})
    assert not space.insert({"x": QQ(3), "y": QQ(4)})
    assert space.rank == 2
    assert space.contains({"x": QQ(-1), "y": QQ(7)})
    assert not space.contains({"x": QQ(1), "z": QQ(1)})


def test_rank_of_vectors():
    vecs = [
        {1: QQ(1), 2: QQ(1)},
        {2: QQ(1), 3: QQ(1)},
        {1: QQ(1), 3: QQ(-1)},
    ]
    assert rank_of(vecs) == 2


def test_det_dense():
    assert det_dense([[QQ(2), QQ(1)], [QQ(1), QQ(1)]]) == QQ(1)
    assert det_dense([[QQ(1), QQ(2)], [QQ(2), QQ(4)]]) == QQ(0)
    assert det_dense([]) == QQ(1)
    m = [
        [QQ(0), QQ(1), QQ(0)],
        [QQ(1), QQ(0), QQ(0)],
        [QQ(0), QQ(0), QQ(3)],
    ]
    assert det_dense(m) == QQ(-3)


def test_int_entries_are_stored_as_exact_rationals():
    # 1 / 3 on plain ints would give a float; the echelon must stay in QQ
    space = RowSpace()
    assert space.insert({"x": 1, "y": 3})
    assert space.insert({"y": 7, "z": 2})
    assert not space.insert({"x": 2, "y": 13, "z": 2})
    assert space.rows == {"y": {"x": QQ(1, 3), "y": QQ(1)}, "z": {"y": QQ(7, 2), "z": QQ(1)}}
    for row in space.rows.values():
        assert all(type(v) is QQ for v in row.values())
    assert space.contains({"x": 1, "y": 10, "z": 2})
    assert rank_of([{1: 3, 2: 1}, {1: 6, 2: 2}, {2: 5, 3: 1}]) == 2
