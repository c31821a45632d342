"""Geometric realization data for monomial potentials on doubled paths.

Given the pure-power coefficient table kappa of a monomial potential on
the doubled path with n vertices, the polynomials g_0, ..., g_2n in two
commuting variables solve the three-term recursion

    g_{i-1} + sum_j j * kappa_{i,j} * g_i^{j-1} + g_{i+1} = 0

for slots i = 1..2n-1. They package a hypersurface u v = g_0 g_2 ... g_2n
together with a chain of ideal modules; each curve of the resolution sits
between two even-index factors, and its normal bundle type is read off
from the determinant of their linear parts.

The arithmetic runs in sympy's sparse polynomial ring Q[x, y]: each
product is expanded once, as a dict of monomials, and linear parts are
read off as coefficients. sympy expressions are built only where they are
handed out or printed; a ring element's ``as_expr()`` is the same
canonical expression that ``sp.expand`` gives, so the printed strings are
those of an expression pipeline. ``emit_presentation`` returns the keys
``n``, ``hypersurface``, ``modules``, ``curves`` and ``vertex0``.
``linear_part`` and ``pair_rank`` work on expressions and serve only as
the tests' oracle.

This is the only module of the package that imports sympy, and nothing
imports it at load time: ``qp realize`` imports it when it runs, and the
package resolves the realization names on first access. A process that
never computes a realization never loads sympy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import sympy as sp
from sympy.polys.domains import QQ as RING_QQ
from sympy.polys.rings import PolyElement, ring

from .field import QQ, ZERO, PreconditionError
from .quiver import DoubledPathQuiver, double_an
from .series import NCElement

X, Y = sp.symbols("x y")

#: Q[x, y] with x, y printed as the symbols X, Y
RING, RX, RY = ring([X, Y], RING_QQ)

KappaTable = Dict[Tuple[int, int], QQ]


def to_sympy(c: QQ) -> sp.Rational:
    return sp.Rational(int(c.numerator), int(c.denominator))


def _ring_linear(p: PolyElement) -> Tuple[object, object]:
    return (p.coeff(RX), p.coeff(RY))


def _det(a: Tuple[object, object], b: Tuple[object, object]):
    return a[0] * b[1] - a[1] * b[0]


def solve_g_system(
    n: int,
    kappa: KappaTable,
    anchor_index: int = 0,
    anchor_values: Optional[Tuple[sp.Expr, sp.Expr]] = None,
) -> List[sp.Expr]:
    """Solve the three-term recursion on the full doubled path (2n-1 slots).

    The pair (g_t, g_{t+1}) at t = anchor_index is prescribed (default
    (y, x)); every other g is forced. The 2x2 determinant of consecutive
    linear parts is an invariant of the chain, so it must not vanish at
    the anchor pair. Raises PreconditionError for an anchor outside
    0..2n-1 or an anchor pair with dependent linear parts.
    """
    m = 2 * n - 1
    if not 0 <= anchor_index <= m:
        raise PreconditionError(f"anchor {anchor_index} outside 0..{m}")
    lo, hi = (RY, RX) if anchor_values is None else map(RING, anchor_values)
    if _det(_ring_linear(lo), _ring_linear(hi)) == 0:
        raise PreconditionError("anchor pair has dependent linear parts")

    def step(i: int) -> PolyElement:
        acc = RING.zero
        for (slot, j), c in kappa.items():
            if slot == i:
                acc += ps[i] ** (j - 1) * (j * RING_QQ(int(c.numerator), int(c.denominator)))
        return acc

    ps: List[PolyElement] = [RING.zero] * (2 * n + 1)
    ps[anchor_index], ps[anchor_index + 1] = lo, hi
    for i in range(anchor_index + 1, m + 1):
        ps[i + 1] = -ps[i - 1] - step(i)
    for i in range(anchor_index, 0, -1):
        ps[i - 1] = -ps[i + 1] - step(i)

    lins = [_ring_linear(p) for p in ps]
    assert len({_det(lins[i], lins[i + 1]) for i in range(2 * n)}) == 1, \
        "determinant of consecutive linear parts is not invariant"
    return [p.as_expr() for p in ps]


def linear_part(g: sp.Expr) -> Tuple[sp.Rational, sp.Rational]:
    """Coefficients of x and y in g; the tests' expression-side oracle."""
    p = sp.Poly(g, X, Y)
    return (p.coeff_monomial(X), p.coeff_monomial(Y))


def pair_rank(g1: sp.Expr, g2: sp.Expr) -> int:
    """Rank of the linear parts of g1, g2; the tests' expression-side oracle."""
    return sp.Matrix([linear_part(g1), linear_part(g2)]).rank()


def _curve(l1: Tuple[object, object], l2: Tuple[object, object]) -> Dict[str, str]:
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


def monomial_strings(g: sp.Expr) -> List[str]:
    """The printed terms of g, shortest first (ties in string order)."""
    parts = [str(t) for t in sp.Add.make_args(g)]
    return sorted(parts, key=lambda s: (len(s), s))


def emit_presentation(gs: List[sp.Expr]) -> Dict[str, object]:
    """Hypersurface, modules and curve types of a chain g_0..g_2n from solve_g_system."""
    n = (len(gs) - 1) // 2
    factors = [RING(gs[2 * i]) for i in range(n + 1)]
    lins = [_ring_linear(p) for p in factors]
    modules = []
    running = RING.one
    for i in range(n):
        running *= factors[i]
        modules.append(["u", str(running.as_expr())])
    uv = running * factors[n]
    curves = [{"index": i, **_curve(lins[i - 1], lins[i])} for i in range(1, n + 1)]
    return {
        "n": n,
        "hypersurface": f"u*v = {uv.as_expr()}",
        "modules": modules,
        "curves": curves,
        "vertex0": _curve(lins[0], lins[n]),
    }


# -- noncommutative relations with the framing vertex deleted -----------------------


def contraction_relations(
    n: int, kappa: KappaTable, truncation: int,
    quiver: Optional[DoubledPathQuiver] = None,
) -> List[Tuple[str, NCElement]]:
    """Defining relations of the contracted algebra on the full doubled path.

    One relation per loop slot, a pair per edge slot; they agree with the
    derivative relations of the monomial potential with table kappa.
    """
    q = quiver if quiver is not None else double_an(n)
    assert isinstance(q, DoubledPathQuiver) and q.n == n and not q.loopless
    D = truncation

    def x_power(i: int, k: int) -> NCElement:
        if k == 0:
            return NCElement.lazy(q, D, q.left_vertex(i))
        word = q.x_word(i)
        acc = word
        for _ in range(k - 1):
            acc = q.concat(acc, word)
            assert acc is not None
        return NCElement.from_word(q, D, acc)

    def kappa_sum(i: int) -> NCElement:
        acc = NCElement.zero(q, D)
        for (slot, j), c in kappa.items():
            if slot == i:
                acc = acc + x_power(i, j - 1).scale(j * c)
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

    def bump(key, c):
        if c == 0:
            return
        table[key] = table.get(key, ZERO) + c
        if table[key] == 0:
            del table[key]

    if kappa1 != 0:
        assert p >= 2
        bump((2, p), kappa1)
    if kappa3 != 0:
        assert s >= 2
        bump((2, s), kappa3)
    if kappa2 != 0:
        assert q >= 2
        bump((4, q), kappa2)
    return table


def a3_realize(
    kappa1: QQ, p: int, kappa2: QQ, q: int, kappa3: QQ = ZERO, s: int = 0
) -> Dict[str, object]:
    """Hypersurface presentation of kappa1 x^p + x y + kappa2 y^q (plus an
    optional second x-power) via the canonical lift to the doubled path."""
    table = a3_kappa_table(kappa1, p, kappa2, q, kappa3, s)
    gs = solve_g_system(3, table, anchor_index=2, anchor_values=(X, X + Y))
    hs = (sp.expand(-gs[0]), gs[2], gs[4], sp.expand(-gs[6]))
    data = emit_presentation(gs)
    data["h"] = [str(h) for h in hs]
    return data


def h_row(family: int, *params) -> Tuple[sp.Expr, sp.Expr, sp.Expr, sp.Expr]:
    """Factor tuple (h_0, h_1, h_2, h_3) with u v = h_0 h_1 h_2 h_3, per family."""
    if family == 1:
        (lam,) = params
        return (2 * X + Y, X, Y, X + 2 * to_sympy(lam) * Y)
    if family == 2:
        (s,) = params
        return (2 * X + Y + s * X ** (s - 1), X, Y, X + sp.Rational(1, 2) * Y)
    if family == 3:
        p, q = params
        return (p * X ** (p - 1) + Y, X, Y, X + q * Y ** (q - 1))
    if family == 4:
        return (2 * X + Y, X, Y, X + sp.Rational(1, 2) * Y)
    if family == 5:
        (p,) = params
        return (p * X ** (p - 1) + Y, X, Y, X)
    if family == 6:
        (q,) = params
        return (Y, X, Y, X + q * Y ** (q - 1))
    if family == 7:
        return (Y, X, Y, X)
    raise ValueError(f"unknown family {family}")
