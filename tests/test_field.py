import copy
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qpcalc.field import QQ, Rational, nth_root, rational, rational_str

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # beyond the range of a float
    big = QQ(7**500, 3**400)
    assert nth_root(big**2, 2) == big
    assert nth_root(big**5, 5) == big
    assert nth_root(QQ(2**1100 + 1), 2) is None


# -- Rational against fractions.Fraction --------------------------------------------

INTS = st.integers(-12, 12) | st.integers(-(2**130), 2**130)
NONZERO = INTS.filter(bool)
BINARY = (operator.add, operator.sub, operator.mul)
COMPARE = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _same(x, fx):
    assert type(x) is Rational
    assert (x.numerator, x.denominator) == (fx.numerator, fx.denominator)
    assert str(x) == str(fx)
    assert hash(x) == hash(fx)


def _same_or_zero_division(thunk, fthunk):
    try:
        expected = fthunk()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            thunk()
    else:
        _same(thunk(), expected)


@settings(max_examples=300, deadline=None, database=None)
@given(INTS, NONZERO, INTS, NONZERO, INTS, st.integers(-5, 5))
def test_rational_matches_fraction(p, q, r, s, k, e):
    a, b, fa, fb = Rational(p, q), Rational(r, s), Fraction(p, q), Fraction(r, s)
    _same(a, fa)
    assert bool(a) == bool(fa)
    for op in BINARY:
        _same(op(a, b), op(fa, fb))
        _same(op(a, k), op(fa, k))
        _same(op(k, a), op(k, fa))
    _same_or_zero_division(lambda: a / b, lambda: fa / fb)
    _same_or_zero_division(lambda: a / k, lambda: fa / k)
    _same_or_zero_division(lambda: k / a, lambda: k / fa)
    _same_or_zero_division(lambda: a**e, lambda: fa**e)
    _same(-a, -fa)
    _same(abs(a), abs(fa))
    for op in COMPARE:
        assert op(a, b) == op(fa, fb)
        assert op(a, k) == op(fa, k)
        assert op(k, a) == op(k, fa)
    assert rational(str(a)) == a
    assert Rational(k) == k and hash(Rational(k)) == hash(k)


def test_rational_division_by_zero():
    for thunk in (lambda: Rational(1, 0), lambda: Rational(1) / 0, lambda: Rational(1) / Rational(0),
                  lambda: 1 / Rational(0), lambda: Rational(0) ** -1):
        with pytest.raises(ZeroDivisionError):
            thunk()


def test_rational_construction_copies_and_pickles():
    x = Rational(-3, -6)
    assert (x.numerator, x.denominator) == (1, 2)
    x = Rational(3, -6)
    assert (x.numerator, x.denominator) == (-1, 2)
    assert Rational(x) is x
    assert Rational() == 0 and Rational(True) == 1
    for bad in ("1/2", Fraction(1, 2), None):
        with pytest.raises(TypeError):
            Rational(bad)
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert repr(x) == "Rational(-1, 2)"
    assert f"{x}" == "-1/2"


FLOAT_CHECKS = """
from qpcalc.field import Rational
cases = [
    lambda: Rational(0.5),
    lambda: Rational(1, 2.0),
    lambda: Rational(1) + 0.5,
    lambda: 0.5 * Rational(1),
    lambda: Rational(1) - 0.5,
    lambda: 0.5 / Rational(1),
    lambda: Rational(1) ** 0.5,
    lambda: Rational(1) < 0.5,
    lambda: float(Rational(1)),
]
for i, case in enumerate(cases):
    try:
        case()
    except TypeError:
        continue
    raise SystemExit(f"case {i} did not raise TypeError")
print("ok")
"""


def test_floats_are_rejected():
    exec(compile(FLOAT_CHECKS, "<float checks>", "exec"), {})


def test_floats_are_rejected_under_optimize():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-O", "-c", FLOAT_CHECKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout
    assert proc.stdout == "ok\n"
