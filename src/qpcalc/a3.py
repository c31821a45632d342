"""Potentials in two cycles x, y meeting at a vertex, and their classes.

Everything here lives on ``a3_quiver()``, the doubled 3-vertex path with
no loops, in the quiver's and ``monomial``'s vocabulary: x is slot 1
(x_1'), y is slot 2 (x_2), the cycle x^i y^j is ``cycle_from_slots`` of
i letters x_1' then j letters x_2, xy is the consecutive product x_1' x_2,
and power tables are keyed (slot, power). ``normalize`` removes, one
degree at a time, all but xy and the lowest pure powers, using three
one-parameter substitution families and ``monomial``'s funnel.
``classify`` reads the family from the ``extract_monomial`` table of the
result; ``class_potential`` builds the canonical form with
``potential_from_kappa``.

The endpoint is one of seven classes:

    1: x^2 + xy + lam y^2 (lam not 0 or 1/4)   5: x^p + xy
    2: x^2 + xy + y^2/4 + x^s                  6: xy + y^q
    3: x^p + xy + y^q, (p,q) != (2,2)          7: xy
    4: x^2 + xy + y^2/4

with flop moves between them and finite derived-equivalence orbits. The
x <-> y relabeling swaps curves 1 and 3, so ``flop`` writes out the rules
at curves 1 and 2 only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Set, Tuple, Union

from .cycles import Potential, cycle_from_slots
from .field import QQ, ZERO, PreconditionError, nth_root
from .monomial import (_funnel, _step, _unit_middles, extract_monomial, potential_from_kappa,
                       read_terms)
from .quiver import DoubledPathQuiver, Word, double_an
from .series import NCElement
from .subst import Substitution, compose, compose_chain


@functools.cache
def a3_quiver() -> DoubledPathQuiver:
    return double_an(3, (1, 2, 3))


def require_a3_quiver(q) -> None:
    """Raise PreconditionError unless ``q`` is the loopless 3-vertex doubled path."""
    if not (isinstance(q, DoubledPathQuiver) and q.n == 3 and q.loopless == frozenset({1, 2, 3})):
        raise PreconditionError("classification expects the loopless three-vertex doubled path")


def xy_word(q: DoubledPathQuiver, i: int, j: int) -> Word:
    """The cycle x^i y^j at the middle vertex."""
    return cycle_from_slots(q, [(1, True)] * i + [(2, False)] * j)


def xy_potential(trunc: int, coeffs: Dict[Tuple[int, int], QQ]) -> Potential:
    """Potential from an (x-exponent, y-exponent) table; (1,1) is the xy term."""
    q = a3_quiver()
    f = Potential(q, trunc)
    for (i, j), c in coeffs.items():
        f.add_cycle(xy_word(q, i, j), c)
    return f


def _lowest(kappa: Dict[Tuple[int, int], QQ], slot: int) -> Tuple[Optional[int], QQ]:
    """The lowest pure power of a slot in a power table, and its coefficient."""
    j = min((j for i, j in kappa if i == slot), default=None)
    return j, kappa.get((slot, j), ZERO)


def _higher_powers(kappa: Dict[Tuple[int, int], QQ]) -> Tuple[int, ...]:
    """The powers in a table above their slot's lowest one, sorted, without repeats."""
    return tuple(sorted({j for i, j in kappa if j != _lowest(kappa, i)[0]}))


# -- the three substitution families -------------------------------------------------


def phi11(q: DoubledPathQuiver, trunc: int, s: int, lam: QQ) -> Substitution:
    """x -> x + lam x^{s+1}: adds lam p k1 x^{p+s} and lam x^{s+1} y."""
    assert s >= 1
    a1 = q.a_index(1)
    return Substitution.moves(q, trunc, {a1: (1, {(1, (a1,) + q.xprime_word(1)[1] * s): lam})})


def phi22(q: DoubledPathQuiver, trunc: int, s: int, lam: QQ) -> Substitution:
    """y -> y + lam y^{s+1}: adds lam q k2 y^{q+s} and lam x y^{s+1}."""
    assert s >= 1
    a2 = q.a_index(2)
    return Substitution.moves(q, trunc, {a2: (1, {(2, q.x_word(2)[1] * s + (a2,)): lam})})


def phi12(q: DoubledPathQuiver, trunc: int, s: int, lam1: QQ, lam2: QQ) -> Substitution:
    """x -> x + lam1 x^s y together with y -> y + lam2 x^s y."""
    assert s >= 1
    a1, a2 = q.a_index(1), q.a_index(2)
    x, y = q.xprime_word(1)[1], q.x_word(2)[1]
    return Substitution.moves(q, trunc, {
        a1: (1, {(1, (a1,) + x * (s - 1) + y): lam1}),
        a2: (1, {(2, x * s + (a2,)): lam2}),
    })


# -- normalization driver -----------------------------------------------------------


def _coeff_xy(f: Potential, i: int, j: int) -> QQ:
    return f.coeff(xy_word(f.quiver, i, j))


def _junk_of_degree(f: Potential, d: int) -> bool:
    """Whether ``read_terms`` finds junk of degree d in f."""
    return any(shape[1] == d for _word, _coeff, shape in read_terms(f)[2])


def normalize(f: Potential) -> Tuple[Potential, Substitution]:
    """Remove the redundant part below the truncation.

    Output: xy plus the lowest pure powers when the 2x2 coefficient matrix
    is invertible; those plus at most one extra pure power mu x^s in the
    degenerate square case. The returned substitution reproduces the
    output from the input exactly. Raises PreconditionError off ``a3_quiver()``.
    """
    q = f.quiver
    require_a3_quiver(q)
    D = f.truncation
    steps: List[Substitution] = []
    f = _unit_middles(f, steps)
    kappa = read_terms(f)[0]
    (p, k1), (qq, k2) = _lowest(kappa, 1), _lowest(kappa, 2)
    det0 = p == 2 and qq == 2 and 4 * k1 * k2 == 1
    s_star: Optional[int] = None

    # terms of degree d in x, y have path weight 2d
    for d in range(3, (D - 1) // 2 + 1):
        # pure y^{q+d-2}
        if k2 != 0:
            alpha2 = _coeff_xy(f, 0, qq + d - 2)
            if alpha2 != 0:
                f = _step(f, phi22(q, D, d - 2, -alpha2 / (qq * k2)), steps)
        # pure x^{p+d-2}, except in the degenerate case where pure x powers
        # are collected and removed against the lowest one
        if not det0 and k1 != 0:
            alpha1 = _coeff_xy(f, p + d - 2, 0)
            if alpha1 != 0:
                f = _step(f, phi11(q, D, d - 2, -alpha1 / (p * k1)), steps)
        # funnel mixed cycles x^i y^j of total degree d (j is the top slot
        # count) down to x^{d-1}y, or all the way into x^d when collecting
        f = _funnel(f, d, steps, 1 if det0 else 2)
        if not det0:
            beta = _coeff_xy(f, d - 1, 1)
            if beta != 0:
                e12 = 2 * k1 if (k1 != 0 and p == 2) else ZERO
                e22 = 2 * k2 if (k2 != 0 and qq == 2) else ZERO
                det = e12 * e22 - 1
                # solve [[e12,1],[1,e22]] v = (-beta, 0)
                lam1 = (-beta * e22) / det
                lam2 = beta / det
                f = _step(f, phi12(q, D, d - 2, lam1, lam2), steps)
                assert _coeff_xy(f, d - 1, 1) == 0
            assert not _junk_of_degree(f, d)
        else:
            mu_d = _coeff_xy(f, d, 0)
            if s_star is None:
                if mu_d != 0:
                    s_star = d
            elif mu_d != 0:
                lam = -mu_d / (2 * k1)
                f = _step(f, phi11(q, D, d - 2, lam), steps)
                beta = _coeff_xy(f, d - 1, 1)
                assert beta == lam
                mu_s = _coeff_xy(f, s_star, 0)
                lam1 = -beta / (s_star * mu_s)
                f = _step(f, phi12(q, D, d - s_star, lam1, -2 * k1 * lam1), steps)
                assert _coeff_xy(f, d, 0) == 0 and _coeff_xy(f, d - 1, 1) == 0
                assert not _junk_of_degree(f, d)

    mono = extract_monomial(f)
    expected = () if (not det0 or s_star is None) else (s_star,)
    if mono is None or _higher_powers(mono.kappa) != expected:
        raise AssertionError("normalization left junk")
    return f, compose_chain(steps, q, D)


# -- classification ------------------------------------------------------------------


@dataclass
class A3Class:
    family: int
    parameters: Tuple = ()
    exact_normalizer: Optional[Substitution] = None
    normalizer_scale: QQ = field(default_factory=lambda: QQ(1))
    normal_form: Optional[Potential] = None

    def key(self) -> Tuple:
        return (self.family, self.parameters)

    def __repr__(self) -> str:
        return f"A3Class(family={self.family}, parameters={self.parameters})"


def scaling(q: DoubledPathQuiver, trunc: int, a: QQ, b: QQ) -> Substitution:
    """x -> a x, y -> b y via the two forward arrows."""
    return Substitution.moves(q, trunc, {q.a_index(i): (c, {}) for i, c in ((1, a), (2, b)) if c != 1})


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
    kappa = extract_monomial(g).kappa
    (p, k1), (qq, k2) = _lowest(kappa, 1), _lowest(kappa, 2)
    higher = _higher_powers(kappa)
    mu = s = None
    # normalize leaves at most one extra pure power, mu x^s, and only when
    # the square is degenerate
    if higher:
        family = 2
        (s,) = higher
        mu = kappa[(1, s)]
        params: Tuple = (s,)
    elif p and qq:
        if p == 2 and qq == 2:
            lam = k1 * k2
            family = 4 if 4 * lam == 1 else 1
            params = () if family == 4 else (lam,)
        else:
            family = 3
            params = (p, qq)
    elif p:
        family, params = 5, (p,)
    elif qq:
        family, params = 6, (qq,)
    else:
        family, params = 7, ()
    normalizer, scale = _normalizer(g.quiver, g.truncation, family, k1, p, k2, qq, mu, s)
    if normalizer is not None:
        normalizer = compose(witness, normalizer)
    return A3Class(
        family=family,
        parameters=params,
        exact_normalizer=normalizer,
        normalizer_scale=scale,
        normal_form=g,
    )


def class_potential(cls_or_key: Union[A3Class, Tuple], truncation: int) -> Potential:
    """Canonical potential of a class, at the given truncation: xy plus a power table."""
    key = cls_or_key.key() if isinstance(cls_or_key, A3Class) else cls_or_key
    family, params = key
    table: Dict[Tuple[int, int], QQ] = {}
    if family == 1:
        (lam,) = params
        table = {(1, 2): QQ(1), (2, 2): QQ(lam)}
    elif family == 2:
        (s,) = params
        table = {(1, 2): QQ(1), (2, 2): QQ(1, 4), (1, s): QQ(1)}
    elif family == 3:
        p, q = params
        table = {(1, p): QQ(1), (2, q): QQ(1)}
    elif family == 4:
        table = {(1, 2): QQ(1), (2, 2): QQ(1, 4)}
    elif family == 5:
        (p,) = params
        table = {(1, p): QQ(1)}
    elif family == 6:
        (q,) = params
        table = {(2, q): QQ(1)}
    return potential_from_kappa(a3_quiver(), truncation, table)


# -- flops, orbits, enumerative sets --------------------------------------------------


@dataclass(frozen=True)
class NotOnQ:
    """The flop exists but its contraction algebra leaves this quiver."""

    curve: int


FlopResult = Union[A3Class, NotOnQ]


def flop(cls: A3Class, curve: int) -> FlopResult:
    """The class after flopping ``curve``; curve 3 is curve 1 seen through
    the x <-> y relabeling, so only the rules at curves 1 and 2 are written."""
    assert curve in (1, 2, 3), "curve index out of range"
    if curve == 3:
        out = flop(swap_class(cls), 1)
        return NotOnQ(3) if isinstance(out, NotOnQ) else swap_class(out)
    family, params = cls.key()
    if family == 1:
        (lam,) = params
        return A3Class(1, (1 / (16 * lam),) if curve == 2 else (QQ(1, 4) - lam,))
    if family == 4:
        return A3Class(4, ()) if curve == 2 else A3Class(5, (2,))
    # every other class stays on the quiver only at curve 1, and only with x^2
    if curve == 1 and family == 2:
        (s,) = params
        return A3Class(3, (2, s))
    if curve == 1 and family == 3 and params[0] == 2:
        return A3Class(2, (params[1],))
    if curve == 1 and family == 5 and params == (2,):
        return A3Class(4, ())
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


def _require_finite_lambda(lam: QQ) -> None:
    if lam == 0 or 4 * lam == 1:
        raise PreconditionError("lambda must be neither 0 nor 1/4")


def derived_orbit(cls: A3Class) -> Tuple[List[A3Class], int]:
    """Closure under flops at all three curves and the x<->y relabeling.

    Only the finite-dimensional families (1 with lam not in {0, 1/4}, 2, 3)
    are in scope; any other class raises PreconditionError. Returns the
    on-quiver members and the number of flop legs that left the quiver.
    """
    family, params = cls.key()
    if family not in (1, 2, 3):
        raise PreconditionError("orbit is defined for the finite-dimensional families")
    if family == 1:
        _require_finite_lambda(params[0])
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
    """The six values reachable from lam under the two flop generators;
    PreconditionError when lam is 0 or 1/4."""
    _require_finite_lambda(lam)
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
    if mu == 0 or mu == 1:
        raise PreconditionError("parameters outside the finite-dimensional range")
    return {mu, 1 - mu, 1 / (1 - mu), mu / (mu - 1), (mu - 1) / mu, 1 / mu}


def b_level(p: int, q: int, mu: QQ) -> Optional[QQ]:
    """(-1)^q p^{-q/p} q^{-1} mu, when the fractional power is rational."""
    g = gcd(p, q)
    root = nth_root(QQ(p) ** (q // g), p // g)
    if root is None:
        return None
    sign = QQ(1) if q % 2 == 0 else QQ(-1)
    return sign / root / q * mu


def apq_orbit(p: int, q: int, mu: QQ) -> Dict[str, object]:
    """Derived-equivalence orbit data for the two-parameter family.

    Every power in the family is at least 2, so p or q below 2 is rejected.
    """
    if p < 2 or q < 2:
        raise PreconditionError("parameters outside the finite-dimensional range")
    if (p, q) == (2, 2):
        values = sorted(mu_orbit(mu))
        out: Dict[str, object] = {
            "kind": "mu_orbit",
            "mu_values": values,
        }
    else:
        if mu != 1:
            raise PreconditionError("parameters outside the finite-dimensional range")
        out = {
            "kind": "pair",
            "members": sorted({(p, q), (q, p)}),
            "off_q": True,
        }
    lam = b_level(p, q, mu)
    if lam is not None:
        out["lambda"] = lam
    return out


def apq_relations(p: int, q: int, mu: QQ, truncation: int) -> List[NCElement]:
    """The four defining relations of the quaternion-type algebra.

    A deliberate oracle, like ``jdim_oracle``: no command uses it. The tests
    compare the dimension of the quotient these relations present with that
    of the Jacobi algebra of a potential in the same family.
    """
    qv = a3_quiver()
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
