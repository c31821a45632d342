"""Exact rational scalars.

Every computation in this package is exact. Scalars are gmpy2 ``mpq``
when gmpy2 is importable, ``fractions.Fraction`` otherwise; both expose
``.numerator`` / ``.denominator`` and the same arithmetic surface, so the
rest of the package never branches on the backend.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as _ratio

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _ratio

    _HAVE_GMPY2 = False

#: rational constructor: QQ(3), QQ(3, 4), QQ("3/4")
QQ = _ratio

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
    value = QQ(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _int_nth_root(n: int, k: int):
    """Exact k-th root of the nonnegative integer n, else None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return n
    root = round(n ** (1.0 / k))
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand**k == n:
            return cand
    # float seed can be off for huge n; fall back to bisection
    lo, hi = 0, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid**k
        if p == n:
            return mid
        if p < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


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
