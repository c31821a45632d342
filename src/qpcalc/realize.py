"""Geometric realization data for monomial potentials on doubled paths.

Given the pure-power coefficient table kappa of a monomial potential on
the doubled path with n vertices, the polynomials g_0, ..., g_2n in two
commuting variables solve the three-term recursion

    g_{i-1} + sum_j j * kappa_{i,j} * g_i^{j-1} + g_{i+1} = 0

for slots i = 1..2n-1. They package a hypersurface u v = g_0 g_2 ... g_2n
together with a chain of ideal modules; each curve of the resolution sits
between two even-index factors, and its normal bundle type is read off
from the determinant of their linear parts.

The arithmetic runs in ``Poly``, a dict-of-monomials Q[x, y] over the
package's rationals. Every g lies in the ideal (x, y), since the anchor
pair has no constant term and every power in the table is at least 2; on
that domain ``str`` prints what sympy prints for the expanded polynomial.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .field import ONE, QQ, ZERO, PreconditionError
from .linalg import accumulate, combine
from .quiver import double_an
from .series import NCElement

Monomial = Tuple[int, int]
KappaTable = Dict[Tuple[int, int], QQ]


class Poly:
    """A polynomial in Q[x, y]: exponent pairs (deg_x, deg_y) to nonzero rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, QQ]] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def linear(self) -> Tuple[QQ, QQ]:
        return (self.terms.get((1, 0), ZERO), self.terms.get((0, 1), ZERO))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        accumulate(out, ONE, other.terms)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, QQ)):
            return Poly({m: c * other for m, c in self.terms.items()})
        return Poly(combine(self.terms, lambda m: {(m[0] + a, m[1] + b): c
                                                   for (a, b), c in other.terms.items()}))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        acc = Poly({(0, 0): ONE})
        for _ in range(k):
            acc = acc * self
        return acc

    def term_strings(self) -> List[str]:
        """Each term as sympy prints it alone, in descending lex order of (deg_x, deg_y)."""
        out = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            factors = [v if e == 1 else f"{v}**{e}" for v, e in (("x", a), ("y", b)) if e]
            num = abs(c.numerator)
            if num != 1 or not factors:
                factors.insert(0, str(num))
            den = f"/{c.denominator}" if c.denominator != 1 else ""
            out.append(("-" if c < 0 else "") + "*".join(factors) + den)
        return out

    def __str__(self) -> str:
        return " + ".join(self.term_strings()).replace(" + -", " - ") or "0"

    __repr__ = __str__


X, Y = Poly({(1, 0): ONE}), Poly({(0, 1): ONE})


def _det(a: Tuple[QQ, QQ], b: Tuple[QQ, QQ]) -> QQ:
    return a[0] * b[1] - a[1] * b[0]


def solve_g_system(
    n: int,
    kappa: KappaTable,
    anchor_index: int = 0,
    anchor_values: Optional[Tuple[Poly, Poly]] = None,
) -> List[Poly]:
    """Solve the three-term recursion on the full doubled path (2n-1 slots).

    The pair (g_t, g_{t+1}) at t = anchor_index is prescribed (default
    (y, x)); every other g is forced. The 2x2 determinant of consecutive
    linear parts is an invariant of the chain, so it must not vanish at
    the anchor pair. Raises PreconditionError for an anchor outside
    0..2n-1, an anchor value with a constant term, an anchor pair with
    dependent linear parts, or a power below 2 in kappa.
    """
    m = 2 * n - 1
    if not 0 <= anchor_index <= m:
        raise PreconditionError(f"anchor {anchor_index} outside 0..{m}")
    lo, hi = (Y, X) if anchor_values is None else anchor_values
    if (0, 0) in lo.terms or (0, 0) in hi.terms:
        raise PreconditionError("anchor value has a constant term")
    if _det(lo.linear(), hi.linear()) == 0:
        raise PreconditionError("anchor pair has dependent linear parts")
    if any(j < 2 for _, j in kappa):
        raise PreconditionError("kappa has a power below 2")

    def step(i: int) -> Poly:
        acc = Poly()
        for (slot, j), c in kappa.items():
            if slot == i:
                acc += ps[i] ** (j - 1) * (j * c)
        return acc

    ps: List[Poly] = [Poly()] * (2 * n + 1)
    ps[anchor_index], ps[anchor_index + 1] = lo, hi
    for i in range(anchor_index + 1, m + 1):
        ps[i + 1] = -ps[i - 1] - step(i)
    for i in range(anchor_index, 0, -1):
        ps[i - 1] = -ps[i + 1] - step(i)

    lins = [p.linear() for p in ps]
    assert len({_det(lins[i], lins[i + 1]) for i in range(2 * n)}) == 1, \
        "determinant of consecutive linear parts is not invariant"
    return ps


def _curve(l1: Tuple[QQ, QQ], l2: Tuple[QQ, QQ]) -> Dict[str, str]:
    """Normal bundle type of the curve between factors with linear parts l1, l2."""
    if _det(l1, l2) != 0:
        return {"type": "(-1,-1)"}
    if l1[0] == 0 and l2[0] == 0:
        label = "x"
    elif l1[1] == 0 and l2[1] == 0:
        label = "y"
    else:
        label = "x+y"
    return {"type": "(-2,0)", "loop": label}


def monomial_strings(g: Poly) -> List[str]:
    """The printed terms of g, shortest first (ties in string order)."""
    return sorted(g.term_strings(), key=lambda s: (len(s), s))


def emit_presentation(gs: List[Poly]) -> Dict[str, object]:
    """Hypersurface, modules and curve types of a chain g_0..g_2n from solve_g_system."""
    n = (len(gs) - 1) // 2
    factors = gs[0::2]
    lins = [p.linear() for p in factors]
    modules = []
    running = Poly({(0, 0): ONE})
    for i in range(n):
        running *= factors[i]
        modules.append(["u", str(running)])
    uv = running * factors[n]
    curves = [{"index": i, **_curve(lins[i - 1], lins[i])} for i in range(1, n + 1)]
    return {
        "n": n,
        "hypersurface": f"u*v = {uv}",
        "modules": modules,
        "curves": curves,
        "vertex0": _curve(lins[0], lins[n]),
    }


# -- noncommutative relations with the framing vertex deleted -----------------------


def contraction_relations(n: int, kappa: KappaTable, truncation: int) -> List[Tuple[str, NCElement]]:
    """Defining relations of the contracted algebra on the full doubled path,
    a new ``double_an(n)`` that every relation's ``quiver`` holds.

    One relation per loop slot, a pair per edge slot; they agree with the
    derivative relations of the monomial potential with table kappa.
    """
    q = double_an(n)
    D = truncation

    def kappa_sum(i: int) -> NCElement:
        acc = NCElement.zero(q, D)
        for (slot, j), c in kappa.items():
            if slot == i:
                acc = acc + NCElement.from_word(q, D, q.x_power(i, j - 1), j * c)
        return acc

    out: List[Tuple[str, NCElement]] = []
    for i in range(1, q.m + 1):
        left = (
            NCElement.from_word(q, D, q.xprime_word(i - 1)) if i > 1 else None
        )
        right = (
            NCElement.from_word(q, D, q.x_word(i + 1)) if i < q.m else None
        )
        if q.is_loop(i):
            rel = kappa_sum(i)
            if left is not None:
                rel = rel + left
            if right is not None:
                rel = rel + right
            out.append((q.arrows[q.a_index(i)].name, rel))
        else:
            u, v = q.left_vertex(i), q.right_vertex(i)
            a = NCElement.from_word(q, D, (u, (q.a_index(i),)))
            b = NCElement.from_word(q, D, (v, (q.b_index(i),)))
            rel_a = b * kappa_sum(i)
            rel_b = kappa_sum(i) * a
            if left is not None:
                rel_a = rel_a + b * left
                rel_b = rel_b + left * a
            if right is not None:
                rel_a = rel_a + right * b
                rel_b = rel_b + a * right
            out.append((q.arrows[q.a_index(i)].name, rel_a))
            out.append((q.arrows[q.b_index(i)].name, rel_b))
    return out


# -- the two-variable base case --------------------------------------------------


def a3_kappa_table(
    kappa1: QQ, p: int, kappa2: QQ, q: int, kappa3: QQ = ZERO, s: int = 0
) -> KappaTable:
    """Power table on the full 3-vertex doubled path realizing the potential
    kappa1 x^p + kappa3 x^s + x y + kappa2 y^q on the two-cycle quiver."""
    table: KappaTable = {
        (1, 2): QQ(-1, 2),
        (3, 2): QQ(-1, 2),
        (5, 2): QQ(-1, 2),
        (2, 2): QQ(-1),
        (4, 2): QQ(-1),
    }

    for name, c, slot, power in (("p", kappa1, 2, p), ("s", kappa3, 2, s), ("q", kappa2, 4, q)):
        if c == 0:
            continue
        if power < 2:
            raise PreconditionError(f"power {name}={power} below 2")
        table[(slot, power)] = table.get((slot, power), ZERO) + c
    return {key: c for key, c in table.items() if c != 0}


def a3_realize(
    kappa1: QQ, p: int, kappa2: QQ, q: int, kappa3: QQ = ZERO, s: int = 0
) -> Dict[str, object]:
    """Hypersurface presentation of kappa1 x^p + x y + kappa2 y^q (plus an
    optional second x-power) via the canonical lift to the doubled path."""
    table = a3_kappa_table(kappa1, p, kappa2, q, kappa3, s)
    gs = solve_g_system(3, table, anchor_index=2, anchor_values=(X, X + Y))
    hs = (-gs[0], gs[2], gs[4], -gs[6])
    data = emit_presentation(gs)
    data["h"] = [str(h) for h in hs]
    return data


def h_row(family: int, *params) -> Tuple[Poly, Poly, Poly, Poly]:
    """Factor tuple (h_0, h_1, h_2, h_3) with u v = h_0 h_1 h_2 h_3, per family."""
    if family == 1:
        (lam,) = params
        return (2 * X + Y, X, Y, X + 2 * lam * Y)
    if family == 2:
        (s,) = params
        return (2 * X + Y + s * X ** (s - 1), X, Y, X + QQ(1, 2) * Y)
    if family == 3:
        p, q = params
        return (p * X ** (p - 1) + Y, X, Y, X + q * Y ** (q - 1))
    if family == 4:
        return (2 * X + Y, X, Y, X + QQ(1, 2) * Y)
    if family == 5:
        (p,) = params
        return (p * X ** (p - 1) + Y, X, Y, X)
    if family == 6:
        (q,) = params
        return (Y, X, Y, X + q * Y ** (q - 1))
    if family == 7:
        return (Y, X, Y, X)
    raise ValueError(f"unknown family {family}")
