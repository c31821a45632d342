"""Exact rational scalars.

Every computation in this package is exact. The one scalar type is
:class:`Rational` (exported as ``QQ``); there is no other backend.

:class:`Rational` is a pair of Python ints kept reduced (gcd 1) with a
positive denominator. It mixes with ``int`` only: building one from a
float, or doing arithmetic with a float, raises ``TypeError``, so no
floating point can enter a computation. Its ``str`` and ``hash`` agree
with ``fractions.Fraction``.
"""

from __future__ import annotations

from math import gcd
from sys import hash_info

_HASH_MODULUS = hash_info.modulus
_HASH_INF = hash_info.inf
_new = object.__new__


class Rational:
    """An exact rational p/q: reduced, q > 0, arithmetic with ``int`` and itself.

    ``+ - *`` check ``other.__class__`` first, skip the gcd when both
    operands are integers and build the result inline through
    ``object.__new__`` (a helper call would cost as much as the arithmetic on
    small ints): the hot loops of the series and rewriting code make one
    Python call per scalar operation.
    """

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            if numerator.__class__ is cls:
                return numerator
            if isinstance(numerator, int):
                return _make(int(numerator), 1)
        elif isinstance(numerator, int) and isinstance(denominator, int):
            return _reduce(int(numerator), int(denominator))
        raise TypeError("Rational() takes a Rational or one or two ints")

    # -- arithmetic ---------------------------------------------------------

    def __add__(a, b):
        if b.__class__ is Rational:
            da, db = a.denominator, b.denominator
            if da == 1 and db == 1:
                num, den = a.numerator + b.numerator, 1
            else:
                num, den = a.numerator * db + b.numerator * da, da * db
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
        elif isinstance(b, int):
            num, den = a.numerator + b * a.denominator, a.denominator
        else:
            return NotImplemented
        r = _new(Rational)
        r.numerator = num
        r.denominator = den
        return r

    __radd__ = __add__

    def __sub__(a, b):
        if b.__class__ is Rational:
            da, db = a.denominator, b.denominator
            if da == 1 and db == 1:
                num, den = a.numerator - b.numerator, 1
            else:
                num, den = a.numerator * db - b.numerator * da, da * db
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
        elif isinstance(b, int):
            num, den = a.numerator - b * a.denominator, a.denominator
        else:
            return NotImplemented
        r = _new(Rational)
        r.numerator = num
        r.denominator = den
        return r

    def __rsub__(a, b):
        if isinstance(b, int):
            return _make(b * a.denominator - a.numerator, a.denominator)
        return NotImplemented

    def __mul__(a, b):
        if b.__class__ is Rational:
            da, db = a.denominator, b.denominator
            if da == 1 and db == 1:
                num, den = a.numerator * b.numerator, 1
            else:
                num, den = a.numerator * b.numerator, da * db
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
        elif isinstance(b, int):
            num, den = a.numerator * b, a.denominator
            g = gcd(num, den)
            if g != 1:
                num //= g
                den //= g
        else:
            return NotImplemented
        r = _new(Rational)
        r.numerator = num
        r.denominator = den
        return r

    __rmul__ = __mul__

    def __truediv__(a, b):
        if b.__class__ is Rational:
            return _reduce(a.numerator * b.denominator, a.denominator * b.numerator)
        if isinstance(b, int):
            return _reduce(a.numerator, a.denominator * b)
        return NotImplemented

    def __rtruediv__(a, b):
        if isinstance(b, int):
            return _reduce(b * a.denominator, a.numerator)
        return NotImplemented

    def __pow__(a, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent >= 0:
            # powers of coprime integers stay coprime
            return _make(a.numerator**exponent, a.denominator**exponent)
        return _reduce(a.denominator**-exponent, a.numerator**-exponent)

    def __neg__(a):
        return _make(-a.numerator, a.denominator)

    def __abs__(a):
        return _make(abs(a.numerator), a.denominator)

    # -- comparison ---------------------------------------------------------

    def __eq__(a, b):
        if isinstance(b, int):
            return a.denominator == 1 and a.numerator == b
        if b.__class__ is Rational:
            return a.numerator == b.numerator and a.denominator == b.denominator
        return NotImplemented

    def __ne__(a, b):
        if isinstance(b, int):
            return a.denominator != 1 or a.numerator != b
        if b.__class__ is Rational:
            return a.numerator != b.numerator or a.denominator != b.denominator
        return NotImplemented

    def _cross(a, b):
        """(a's side, b's side) of a comparison, both over the same positive denominator."""
        if b.__class__ is Rational:
            return a.numerator * b.denominator, b.numerator * a.denominator
        if isinstance(b, int):
            return a.numerator, b * a.denominator
        return None

    def __lt__(a, b):
        pair = a._cross(b)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(a, b):
        pair = a._cross(b)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(a, b):
        pair = a._cross(b)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(a, b):
        pair = a._cross(b)
        return NotImplemented if pair is None else pair[0] >= pair[1]

    def __bool__(a):
        return a.numerator != 0

    def __hash__(a):
        # the numeric hash of p/q, as int and fractions.Fraction compute it
        if a.denominator == 1:
            return hash(a.numerator)
        try:
            dinv = pow(a.denominator, -1, _HASH_MODULUS)
        except ValueError:
            result = _HASH_INF
        else:
            result = hash(hash(abs(a.numerator)) * dinv)
        if a.numerator < 0:
            result = -result
        return -2 if result == -1 else result

    # -- rendering ------------------------------------------------------------

    def __str__(a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __repr__(a):
        return f"Rational({a.numerator}, {a.denominator})"


def _make(num: int, den: int) -> Rational:
    """A Rational from a pair already reduced, with den > 0."""
    r = _new(Rational)
    r.numerator = num
    r.denominator = den
    return r


def _reduce(num: int, den: int) -> Rational:
    """num/den in lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDivisionError("division by zero")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _make(num, den)


#: rational constructor: QQ(3), QQ(3, 4); strings go through :func:`rational`
QQ = Rational

ZERO = QQ(0)
ONE = QQ(1)


class PreconditionError(ValueError):
    """The input lies outside what a pipeline accepts (not Type A, not reduced,
    a degenerate anchor)."""


def rational(value) -> "QQ":
    """Coerce ints, strings like '-3/4', and rationals to the scalar type."""
    if isinstance(value, str):
        value = value.strip()
        if "/" in value:
            num, den = value.split("/")
            return QQ(int(num), int(den))
        return QQ(int(value))
    return QQ(value)


def rational_str(value) -> str:
    """Render 'p/q' (or 'p' if integral); the inverse of :func:`rational`."""
    return str(QQ(value))


def _int_nth_root(n: int, k: int):
    """Exact k-th root of the nonnegative integer n, else None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2:
        return n
    # integer Newton iteration from above; it decreases to floor(n ** (1/k))
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


def nth_root(value, k: int):
    """Exact rational k-th root of ``value``, or None if none exists in Q.

    For even k the nonnegative root is returned; negative radicands with
    even k have no rational root.
    """
    if k <= 0:
        raise ValueError("root index must be positive")
    value = QQ(value)
    if k == 1:
        return value
    num, den = int(value.numerator), int(value.denominator)
    sign = 1
    if num < 0:
        if k % 2 == 0:
            return None
        sign, num = -1, -num
    rn = _int_nth_root(num, k)
    rd = _int_nth_root(den, k)
    if rn is None or rd is None:
        return None
    return QQ(sign * rn, rd)
