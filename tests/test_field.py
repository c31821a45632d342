from qpcalc.field import QQ, nth_root, rational, rational_str


def test_rational_parse_and_render():
    assert rational("3/4") == QQ(3, 4)
    assert rational("-7") == QQ(-7)
    assert rational(QQ(1, 3)) == QQ(1, 3)
    assert rational_str(QQ(3, 4)) == "3/4"
    assert rational_str(QQ(-8, 2)) == "-4"


def test_nth_root_exact_only():
    assert nth_root(QQ(9, 4), 2) == QQ(3, 2)
    assert nth_root(QQ(8, 27), 3) == QQ(2, 3)
    assert nth_root(QQ(-8, 27), 3) == QQ(-2, 3)
    assert nth_root(QQ(2), 2) is None
    assert nth_root(QQ(-4), 2) is None
    assert nth_root(QQ(1), 17) == QQ(1)


def test_nth_root_huge_values():
    base = QQ(10**40 + 9)
    assert nth_root(base**3, 3) == base
    assert nth_root(base**3 + 1, 3) is None
