"""Potentials in two cycles x, y meeting at a vertex, and their classes.

Everything here lives on the doubled 3-vertex path with no loops: two
edge slots, x the reversed first edge pair, y the second. A potential
containing xy splits into a base part (lowest pure powers plus xy) and a
redundant part; the normalization driver removes the redundant part one
degree at a time, using three one-parameter substitution families and a
funnel step that trades any mixed cycle for one with fewer y letters.

The endpoint is one of seven classes:

    1: x^2 + xy + lam y^2 (lam not 0 or 1/4)   5: x^p + xy
    2: x^2 + xy + y^2/4 + x^s                  6: xy + y^q
    3: x^p + xy + y^q, (p,q) != (2,2)          7: xy
    4: x^2 + xy + y^2/4

with flop moves between them and finite derived-equivalence orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from .cycles import Potential, canonical_cycle
from .field import QQ, ZERO, nth_root
from .monomial import _higher_substitution, rescale_middle, type_a_report
from .quiver import DoubledPathQuiver, Word, double_an
from .series import NCElement
from .subst import Substitution, compose, compose_chain

_Q: Optional[DoubledPathQuiver] = None


def a3_quiver() -> DoubledPathQuiver:
    global _Q
    if _Q is None:
        _Q = double_an(3, (1, 2, 3))
    return _Q


def x_ids(q: DoubledPathQuiver) -> Tuple[int, ...]:
    return q.xprime_word(1)[1]


def y_ids(q: DoubledPathQuiver) -> Tuple[int, ...]:
    return q.x_word(2)[1]


def xy_word(q: DoubledPathQuiver, i: int, j: int) -> Word:
    """The cycle x^i y^j at the middle vertex."""
    assert i + j > 0
    ids = x_ids(q) * i + y_ids(q) * j
    return canonical_cycle(q, (q.right_vertex(1), ids))


def xy_potential(trunc: int, coeffs: Dict[Tuple[int, int], QQ],
                 quiver: Optional[DoubledPathQuiver] = None) -> Potential:
    """Potential from an (x-exponent, y-exponent) table; (1,1) is the xy term."""
    q = quiver if quiver is not None else a3_quiver()
    f = Potential(q, trunc)
    for (i, j), c in coeffs.items():
        f.add_cycle(xy_word(q, i, j), c)
    return f


def degrees_of(q: DoubledPathQuiver, word: Word) -> Tuple[int, int]:
    t = q.x_degrees(word)
    return (t[0], t[1])


@dataclass
class BaseSplit:
    kappa1: QQ
    p: Optional[int]
    kappa2: QQ
    q: Optional[int]
    residual_degrees: Tuple[int, ...]

    @property
    def det_zero(self) -> bool:
        return (
            self.p == 2 and self.q == 2 and 4 * self.kappa1 * self.kappa2 == 1
        )


def base_split(f: Potential) -> BaseSplit:
    """Lowest pure powers of a potential with unit xy coefficient."""
    q = f.quiver
    pure_x: Dict[int, QQ] = {}
    pure_y: Dict[int, QQ] = {}
    mixed_degs = set()
    for word, coeff in f.terms.items():
        i, j = degrees_of(q, word)
        if (i, j) == (1, 1):
            assert coeff == 1, "xy coefficient must be rescaled to 1 first"
        elif j == 0:
            pure_x[i] = coeff
        elif i == 0:
            pure_y[j] = coeff
        else:
            mixed_degs.add(i + j)
    p = min(pure_x) if pure_x else None
    qq = min(pure_y) if pure_y else None
    resid = set(mixed_degs)
    resid.update(k for k in pure_x if k != p)
    resid.update(k for k in pure_y if k != qq)
    return BaseSplit(
        kappa1=pure_x.get(p, ZERO) if p else ZERO,
        p=p,
        kappa2=pure_y.get(qq, ZERO) if qq else ZERO,
        q=qq,
        residual_degrees=tuple(sorted(resid)),
    )


# -- the three substitution families -------------------------------------------------


def phi11(q: DoubledPathQuiver, trunc: int, s: int, lam: QQ) -> Substitution:
    """x -> x + lam x^{s+1}: adds lam p k1 x^{p+s} and lam x^{s+1} y."""
    assert s >= 1
    a1 = q.a_index(1)
    img = NCElement.from_word(q, trunc, (1, (a1,))) + NCElement.from_word(
        q, trunc, (1, (a1,) + x_ids(q) * s), lam
    )
    return Substitution(q, trunc, {a1: img})


def phi22(q: DoubledPathQuiver, trunc: int, s: int, lam: QQ) -> Substitution:
    """y -> y + lam y^{s+1}: adds lam q k2 y^{q+s} and lam x y^{s+1}."""
    assert s >= 1
    a2 = q.a_index(2)
    img = NCElement.from_word(q, trunc, (2, (a2,))) + NCElement.from_word(
        q, trunc, (2, y_ids(q) * s + (a2,)), lam
    )
    return Substitution(q, trunc, {a2: img})


def phi12(q: DoubledPathQuiver, trunc: int, s: int, lam1: QQ, lam2: QQ) -> Substitution:
    """x -> x + lam1 x^s y together with y -> y + lam2 x^s y."""
    assert s >= 1
    a1, a2 = q.a_index(1), q.a_index(2)
    img1 = NCElement.from_word(q, trunc, (1, (a1,))) + NCElement.from_word(
        q, trunc, (1, (a1,) + x_ids(q) * (s - 1) + y_ids(q)), lam1
    )
    img2 = NCElement.from_word(q, trunc, (2, (a2,))) + NCElement.from_word(
        q, trunc, (2, x_ids(q) * s + (a2,)), lam2
    )
    return Substitution(q, trunc, {a1: img1, a2: img2})


# -- normalization driver -----------------------------------------------------------


def _coeff_xy(f: Potential, i: int, j: int) -> QQ:
    return f.coeff(xy_word(f.quiver, i, j))


def _mixed_terms(f: Potential, degree: int) -> List[Tuple[Word, QQ, int]]:
    out = []
    for word, coeff in f.terms.items():
        i, j = degrees_of(f.quiver, word)
        if i >= 1 and j >= 1 and i + j == degree and (i, j) != (1, 1):
            out.append((word, coeff, j))
    return out


def normalize(f: Potential) -> Tuple[Potential, Substitution]:
    """Remove the redundant part below the truncation.

    Output: the base part alone when the 2x2 coefficient matrix is
    invertible; the base part plus at most one extra pure power mu x^s in
    the degenerate square case. The returned substitution reproduces the
    output from the input exactly.
    """
    q = f.quiver
    assert isinstance(q, DoubledPathQuiver) and q.m == 2
    D = f.truncation
    rep = type_a_report(f)
    assert rep.is_type_a, "potential must contain xy"
    steps: List[Substitution] = []
    if rep.middle_coeffs[1] != 1:
        f, sub = rescale_middle(f)
        steps.append(sub)
    split = base_split(f)
    k1, p, k2, qq = split.kappa1, split.p, split.kappa2, split.q
    det0 = split.det_zero
    s_star: Optional[int] = None

    def apply(sub: Substitution) -> None:
        nonlocal f
        f = sub.apply_potential(f)
        steps.append(sub)

    # terms of degree d in x, y have path weight 2d
    for d in range(3, (D - 1) // 2 + 1):
        # pure y^{q+d-2}
        if k2 != 0:
            alpha2 = _coeff_xy(f, 0, qq + d - 2)
            if alpha2 != 0:
                apply(phi22(q, D, d - 2, -alpha2 / (qq * k2)))
        # pure x^{p+d-2}, except in the degenerate case where pure x powers
        # are collected and removed against the lowest one
        if not det0 and k1 != 0:
            alpha1 = _coeff_xy(f, p + d - 2, 0)
            if alpha1 != 0:
                apply(phi11(q, D, d - 2, -alpha1 / (p * k1)))
        # funnel mixed cycles of total degree d down to x^{d-1}y (or all the
        # way into x^d when collecting)
        while True:
            mixed = _mixed_terms(f, d)
            targets = mixed if det0 else [t for t in mixed if t[2] >= 2]
            if not targets:
                break
            word, coeff, _ = max(targets, key=lambda t: (t[2], t[0][1]))
            apply(_higher_substitution(f, word, coeff))
        if not det0:
            beta = _coeff_xy(f, d - 1, 1)
            if beta != 0:
                e12 = 2 * k1 if (k1 != 0 and p == 2) else ZERO
                e22 = 2 * k2 if (k2 != 0 and qq == 2) else ZERO
                det = e12 * e22 - 1
                # solve [[e12,1],[1,e22]] v = (-beta, 0)
                lam1 = (-beta * e22) / det
                lam2 = beta / det
                apply(phi12(q, D, d - 2, lam1, lam2))
                assert _coeff_xy(f, d - 1, 1) == 0
            assert not _mixed_terms(f, d)
        else:
            mu_d = _coeff_xy(f, d, 0)
            if s_star is None:
                if mu_d != 0:
                    s_star = d
            elif mu_d != 0:
                lam = -mu_d / (2 * k1)
                apply(phi11(q, D, d - 2, lam))
                beta = _coeff_xy(f, d - 1, 1)
                assert beta == lam
                mu_s = _coeff_xy(f, s_star, 0)
                lam1 = -beta / (s_star * mu_s)
                apply(phi12(q, D, d - s_star, lam1, -2 * k1 * lam1))
                assert _coeff_xy(f, d, 0) == 0 and _coeff_xy(f, d - 1, 1) == 0
                assert not _mixed_terms(f, d)

    check = base_split(f)
    expected = () if (not det0 or s_star is None) else (s_star,)
    assert check.residual_degrees == expected, "normalization left junk"
    return f, compose_chain(steps, q, D)


# -- classification ------------------------------------------------------------------


@dataclass
class A3Class:
    family: int
    parameters: Tuple = ()
    exact_normalizer: Optional[Substitution] = None
    normalizer_scale: QQ = field(default_factory=lambda: QQ(1))
    normal_form: Optional[Potential] = None
    witness: Optional[Substitution] = None

    def key(self) -> Tuple:
        return (self.family, self.parameters)

    def __repr__(self) -> str:
        return f"A3Class(family={self.family}, parameters={self.parameters})"


def scaling(q: DoubledPathQuiver, trunc: int, a: QQ, b: QQ) -> Substitution:
    """x -> a x, y -> b y via the two forward arrows."""
    images = {}
    if a != 1:
        images[q.a_index(1)] = NCElement.from_word(q, trunc, (1, (q.a_index(1),)), a)
    if b != 1:
        images[q.a_index(2)] = NCElement.from_word(q, trunc, (2, (q.a_index(2),)), b)
    return Substitution(q, trunc, images)


def _normalizer(q, trunc, family, k1, p, k2, qq, mu, s):
    """Rescale to the unit-coefficient form, when the needed root is rational.

    Returns (substitution, scale) with substitution(f) = scale * canonical,
    or (None, 1) when the root is irrational.
    """
    one = QQ(1)
    if family in (1, 4):
        root = nth_root(k1, 2)
        if root is None:
            return None, one
        return scaling(q, trunc, 1 / root, root), one
    if family == 2:
        a = nth_root(k1 / mu, s - 2)
        if a is None:
            return None, one
        b = k1 * a
        return scaling(q, trunc, a, b), a * b
    if family == 3:
        exp = (p - 1) * (qq - 1) - 1
        a = nth_root(k1 ** (1 - qq) / k2, exp)
        if a is None:
            return None, one
        b = k1 * a ** (p - 1)
        return scaling(q, trunc, a, b), a * b
    if family == 5:
        return scaling(q, trunc, one, k1), k1
    if family == 6:
        return scaling(q, trunc, k2, one), k2
    return Substitution.identity(q, trunc), one


def classify(f: Potential) -> A3Class:
    """Family and parameters of a potential containing xy."""
    g, witness = normalize(f)
    q = g.quiver
    pure_x: Dict[int, QQ] = {}
    pure_y: Dict[int, QQ] = {}
    for word, coeff in g.terms.items():
        i, j = degrees_of(q, word)
        if (i, j) == (1, 1):
            continue
        (pure_x if j == 0 else pure_y)[i if j == 0 else j] = coeff
    k1 = ZERO
    mu = s = None
    if len(pure_x) == 2:
        family = 2
        p = 2
        s = max(pure_x)
        k1, mu = pure_x[2], pure_x[s]
        qq = 2
        k2 = pure_y[2]
        params: Tuple = (s,)
    elif pure_x and pure_y:
        p, qq = min(pure_x), min(pure_y)
        k1, k2 = pure_x[p], pure_y[qq]
        if p == 2 and qq == 2:
            lam = k1 * k2
            family = 4 if 4 * lam == 1 else 1
            params = () if family == 4 else (lam,)
        else:
            family = 3
            params = (p, qq)
    elif pure_x:
        family, p, qq, k2 = 5, min(pure_x), None, ZERO
        k1 = pure_x[p]
        params = (p,)
    elif pure_y:
        family, p, k1 = 6, None, ZERO
        qq = min(pure_y)
        k2 = pure_y[qq]
        params = (qq,)
    else:
        family, p, qq, k2 = 7, None, None, ZERO
        params = ()
    normalizer, scale = _normalizer(q, g.truncation, family, k1, p, k2, qq, mu, s)
    if normalizer is not None:
        normalizer = compose(witness, normalizer)
    return A3Class(
        family=family,
        parameters=params,
        exact_normalizer=normalizer,
        normalizer_scale=scale,
        normal_form=g,
        witness=witness,
    )


def class_potential(cls_or_key: Union[A3Class, Tuple], truncation: int) -> Potential:
    """Canonical potential of a class, at the given truncation."""
    key = cls_or_key.key() if isinstance(cls_or_key, A3Class) else cls_or_key
    family, params = key
    table: Dict[Tuple[int, int], QQ] = {(1, 1): QQ(1)}
    if family == 1:
        (lam,) = params
        table[(2, 0)] = QQ(1)
        table[(0, 2)] = QQ(lam)
    elif family == 2:
        (s,) = params
        table[(2, 0)] = QQ(1)
        table[(0, 2)] = QQ(1, 4)
        table[(s, 0)] = QQ(1)
    elif family == 3:
        p, q = params
        table[(p, 0)] = QQ(1)
        table[(0, q)] = QQ(1)
    elif family == 4:
        table[(2, 0)] = QQ(1)
        table[(0, 2)] = QQ(1, 4)
    elif family == 5:
        (p,) = params
        table[(p, 0)] = QQ(1)
    elif family == 6:
        (q,) = params
        table[(0, q)] = QQ(1)
    return xy_potential(truncation, table)


# -- flops, orbits, enumerative sets --------------------------------------------------


@dataclass(frozen=True)
class NotOnQ:
    """The flop exists but its contraction algebra leaves this quiver."""

    curve: int


FlopResult = Union[A3Class, NotOnQ]


def flop(cls: A3Class, curve: int) -> FlopResult:
    assert curve in (1, 2, 3), "curve index out of range"
    family, params = cls.key()
    if family == 1:
        (lam,) = params
        if curve == 2:
            return A3Class(1, (1 / (16 * lam),))
        return A3Class(1, (QQ(1, 4) - lam,))
    if family == 2:
        (s,) = params
        if curve == 1:
            return A3Class(3, (2, s))
        if curve == 3:
            return A3Class(3, (s, 2))
        return NotOnQ(curve)
    if family == 3:
        p, q = params
        if curve == 1 and p == 2:
            return A3Class(2, (q,))
        if curve == 3 and q == 2:
            return A3Class(2, (p,))
        return NotOnQ(curve)
    if family == 4:
        if curve == 1:
            return A3Class(5, (2,))
        if curve == 2:
            return A3Class(4, ())
        return A3Class(6, (2,))
    if family == 5:
        (p,) = params
        if curve == 1 and p == 2:
            return A3Class(4, ())
        return NotOnQ(curve)
    if family == 6:
        (q,) = params
        if curve == 3 and q == 2:
            return A3Class(4, ())
        return NotOnQ(curve)
    return NotOnQ(curve)


def swap_class(cls: A3Class) -> A3Class:
    """The x <-> y relabeling, a plain isomorphism of the quiver."""
    family, params = cls.key()
    if family == 3:
        p, q = params
        return A3Class(3, (q, p))
    if family == 5:
        return A3Class(6, params)
    if family == 6:
        return A3Class(5, params)
    return A3Class(family, params)


def derived_orbit(cls: A3Class) -> Tuple[List[A3Class], int]:
    """Closure under flops at all three curves and the x<->y relabeling.

    Only the finite-dimensional families (1 with lam not in {0, 1/4}, 2, 3)
    are in scope. Returns the on-quiver members and the number of flop legs
    that left the quiver.
    """
    family, params = cls.key()
    assert family in (1, 2, 3), "orbit is defined for the finite-dimensional families"
    if family == 1:
        (lam,) = params
        assert lam != 0 and 4 * lam != 1
    seen: Set[Tuple] = set()
    frontier = [A3Class(family, params)]
    off_legs = 0
    members: List[A3Class] = []
    while frontier:
        c = frontier.pop()
        if c.key() in seen:
            continue
        seen.add(c.key())
        members.append(c)
        for curve in (1, 2, 3):
            nxt = flop(c, curve)
            if isinstance(nxt, NotOnQ):
                off_legs += 1
            elif nxt.key() not in seen:
                frontier.append(nxt)
        tw = swap_class(c)
        if tw.key() not in seen:
            frontier.append(tw)
    members.sort(key=lambda c: (c.family, c.parameters))
    return members, off_legs


def lambda_orbit(lam: QQ) -> Set[QQ]:
    """The six values reachable from lam under the two flop generators."""
    assert lam != 0 and 4 * lam != 1
    return {
        lam,
        (1 - 4 * lam) / 4,
        1 / (4 * (1 - 4 * lam)),
        lam / (4 * lam - 1),
        (4 * lam - 1) / (16 * lam),
        1 / (16 * lam),
    }


def gv_set(cls: A3Class) -> List[int]:
    family, params = cls.key()
    if family == 1:
        return [1, 1, 1, 1, 1, 1]
    if family == 2:
        (s,) = params
        return sorted([1, 1, 1, s - 1, 1, 1])
    if family == 3:
        p, q = params
        return sorted([1, 1, 1, p - 1, q - 1, 1])
    raise ValueError("enumerative set defined for the finite-dimensional families")


# -- quaternion-type algebras -------------------------------------------------------


def mu_orbit(mu: QQ) -> Set[QQ]:
    assert mu != 0 and mu != 1
    return {mu, 1 - mu, 1 / (1 - mu), mu / (mu - 1), (mu - 1) / mu, 1 / mu}


def b_level(p: int, q: int, mu: QQ) -> Optional[QQ]:
    """(-1)^q p^{-q/p} q^{-1} mu, when the fractional power is rational."""
    from math import gcd

    g = gcd(p, q)
    root = nth_root(QQ(p) ** (q // g), p // g)
    if root is None:
        return None
    sign = QQ(1) if q % 2 == 0 else QQ(-1)
    return sign / root / q * mu


def apq_orbit(p: int, q: int, mu: QQ) -> Dict[str, object]:
    """Derived-equivalence orbit data for the two-parameter family."""
    if (p, q) == (2, 2):
        assert mu != 0 and mu != 1, "parameters outside the finite-dimensional range"
        values = sorted(mu_orbit(mu))
        out: Dict[str, object] = {
            "kind": "mu_orbit",
            "mu_values": values,
        }
    else:
        assert mu == 1, "parameters outside the finite-dimensional range"
        out = {
            "kind": "pair",
            "members": sorted({(p, q), (q, p)}),
            "off_q": True,
        }
    lam = b_level(p, q, mu)
    if lam is not None:
        out["lambda"] = lam
    return out


def apq_relations(p: int, q: int, mu: QQ, truncation: int,
                  quiver: Optional[DoubledPathQuiver] = None) -> List[NCElement]:
    """The four defining relations of the quaternion-type algebra.

    A deliberate oracle, like ``jdim_oracle``: no command uses it. The tests
    compare the dimension of the quotient these relations present with that
    of the Jacobi algebra of a potential in the same family.
    """
    qv = quiver if quiver is not None else a3_quiver()
    D = truncation
    a1, b1 = qv.a_index(1), qv.b_index(1)
    a2, b2 = qv.a_index(2), qv.b_index(2)

    def w(tail, ids, coeff=1):
        return NCElement.from_word(qv, D, (tail, tuple(ids)), coeff)

    return [
        w(1, (a1, a2, b2)) - w(1, (a1, b1) * (p - 1) + (a1,)),
        w(3, (b2, b1, a1)) - w(3, (b2, a2) * (q - 1) + (b2,), mu),
        w(2, (a2, b2, b1)) - w(2, (b1, a1) * (p - 1) + (b1,)),
        w(2, (b1, a1, a2)) - w(2, (a2, b2) * (q - 1) + (a2,), mu),
    ]
