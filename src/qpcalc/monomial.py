"""Normalizing potentials on doubled type-A quivers to monomial form.

A potential here is *Type A* when every consecutive product x_i' x_{i+1}
appears with a nonzero coefficient; it is *reduced* when no loop square
x_s^2 is present, and *monomial* when, apart from those consecutive
products (all with coefficient 1), only pure powers x_i^j remain.

``read_terms`` is the one reader of a potential's terms. It sorts each
term into pure powers (the kappa table), consecutive products, or junk:
every other term, the ones a monomial potential lacks. Junk comes with
its shape, so the steps below read the slots they act on from it.

A monomial potential is known by its power table, a plain dict from
(slot i, power j) to the coefficient of x_i^j: ``extract_monomial`` reads
it off (None when the potential is not monomial), ``monomialize`` returns
it with its output, and ``potential_from_kappa`` rebuilds the potential.

The pipeline:

1. ``_unit_middles``: rescale the a-arrows so all consecutive products
   carry coefficient 1;
2. ``_funnel``, degree by degree from 2: remove the junk of one degree,
   the largest ((top slot, top count), ids) first, each term by the one
   move ``_removal`` reads off it, a_s -> a_s - coeff * context with s
   one below the term's top slot. The move cancels the term through the
   consecutive product x_s' x_{s+1}. At degree 2 the junk is skips,
   products x_{s-1}' x_{s+1} jumping over a loop, whose context is
   x_{s-1}'; above it, each move trades a cycle for cycles whose top slot
   multiplicity is strictly smaller, until only pure powers remain.

``_step`` records each exact substitution, so composing them reproduces the
output from the input on the nose; ``a3.normalize`` shares ``_step``,
``_unit_middles`` and ``_funnel``. The funnel stops after MAX_PASSES passes
with an AssertionError, which -O keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cycles import Potential
from .field import QQ, ZERO, PreconditionError
from .quiver import DoubledPathQuiver, Word, double_an
from .series import NCElement
from .subst import Substitution, compose_chain

MAX_PASSES = 20000


# -- term taxonomy ---------------------------------------------------------------


# (kind, degree, lo, hi, top), see term_shape
Shape = Tuple[str, int, int, int, int]


def term_shape(q: DoubledPathQuiver, word: Word) -> Shape:
    """(kind, degree, lo, hi, top) where kind is power|middle|skip|other, lo
    and hi are the lowest and highest slots the cycle touches, and top is
    its multiplicity at hi."""
    t = q.x_degrees(word)
    support = [i + 1 for i, c in enumerate(t) if c]
    assert support, "cycle uses no x-letters"
    deg = sum(t)
    lo, hi = support[0], support[-1]
    top = t[hi - 1]
    if lo == hi:
        return ("power", deg, lo, hi, top)
    if deg == 2 and hi == lo + 1:
        return ("middle", deg, lo, hi, top)
    if deg == 2 and hi == lo + 2 and q.is_loop(lo + 1) and t[lo] == 0:
        return ("skip", deg, lo, hi, top)
    return ("other", deg, lo, hi, top)


@dataclass
class TypeAReport:
    is_type_a: bool
    reduced: bool
    linear_terms: Tuple[int, ...]
    middle_coeffs: Dict[int, QQ]
    missing_middles: Tuple[int, ...]
    loop_squares: Tuple[int, ...]

    @property
    def kind(self) -> str:
        if not self.is_type_a:
            return "NotTypeA"
        return "ReducedTypeA" if self.reduced else "TypeA"


def read_terms(f: Potential) -> Tuple[Dict[Tuple[int, int], QQ], Dict[int, QQ],
                                      List[Tuple[Word, QQ, Shape]]]:
    """One pass over f's terms: the pure powers x_i^j keyed (slot i, power j),
    the consecutive products x_i' x_{i+1} keyed i, and the junk, every other
    term as (word, coeff, ``term_shape``). Junk comes in term order, but
    ``_funnel`` picks its steps by a key, so no result depends on that order.

    Junk of degree 2 is a skip: a cycle touching slots lo < hi crosses
    every edge slot between them, at an a-letter each, so at x-degree 2
    the slots between are untouched loops, and no two loop slots are
    adjacent. Every other junk term has degree at least 3.
    """
    q = f.quiver
    kappa: Dict[Tuple[int, int], QQ] = {}
    middles: Dict[int, QQ] = {}
    junk: List[Tuple[Word, QQ, Shape]] = []
    for word, coeff in f.terms.items():
        shape = term_shape(q, word)
        kind, deg, lo = shape[:3]
        if kind == "middle":
            middles[lo] = coeff
        elif kind == "power":
            kappa[(lo, deg)] = coeff
        else:
            junk.append((word, coeff, shape))
    return kappa, middles, junk


def type_a_report(f: Potential) -> TypeAReport:
    q = f.quiver
    assert isinstance(q, DoubledPathQuiver)
    kappa, middles, _ = read_terms(f)
    loop_squares = tuple(sorted(i for i, j in kappa if j == 2 and q.is_loop(i)))
    missing = tuple(i for i in range(1, q.m) if middles.get(i, ZERO) == 0)
    return TypeAReport(
        is_type_a=not missing,
        reduced=not loop_squares,
        linear_terms=tuple(sorted(i for i, j in kappa if j == 1)),
        middle_coeffs=middles,
        missing_middles=missing,
        loop_squares=loop_squares,
    )


def extract_monomial(f: Potential) -> Optional[Dict[Tuple[int, int], QQ]]:
    """The power table of f, keyed (slot, power), when f is monomial Type A
    with unit consecutive products; None otherwise."""
    kappa, middles, junk = read_terms(f)
    if junk or any(middles.get(i, ZERO) != 1 for i in range(1, f.quiver.m)):
        return None
    return kappa


def potential_from_kappa(q: DoubledPathQuiver, truncation: int,
                         kappa: Dict[Tuple[int, int], QQ]) -> Potential:
    """Sum of consecutive products plus the given pure powers."""
    f = Potential(q, truncation)
    for i in range(1, q.m):
        word = q.concat(q.xprime_word(i), q.x_word(i + 1))
        assert word is not None
        f.add_cycle(word, 1)
    for (i, j), coeff in kappa.items():
        f.add_cycle(q.x_power(i, j), coeff)
    return f


# -- step 2: the removal rule ---------------------------------------------------


def _removal(q: DoubledPathQuiver, word: Word, coeff: QQ,
             shape: Shape) -> Tuple[int, Dict[Word, QQ]]:
    """(a_s, {context: -coeff}): the move that removes junk coeff * word.

    s = r - 1 for r = hi, the top slot. The pattern is the x_r block, then
    b_s when s is an edge; the context is the rest of the cycle after the
    pattern's first occurrence in ``ids + ids``, a path with a_s's endpoints.
    Keys are canonical rotations, which begin with a_lo, lo < r, so the top
    block never wraps round the end of ``ids`` and b_s never sits at
    position 0 or 1. Ordering the occurrences by where the block starts or
    by where their b_s sits gives the same first one, which both oracle
    scans in ``tests/test_monomial.py`` pick.

    The move cancels the term through the consecutive product x_s' x_{s+1}
    (b_s a_s x_r at an edge slot, a_s x_r at a loop slot) at every degree;
    a skip is the loop case at degree 2, with context x_{s-1}'. Every other
    term it makes has smaller (top slot, top count) or a higher degree.
    """
    s = shape[3] - 1
    pattern = q.x_word(s + 1)[1] + (() if q.is_loop(s) else (q.b_index(s),))
    ids = word[1]
    doubled = ids + ids
    k = next(i for i in range(len(ids)) if doubled[i : i + len(pattern)] == pattern)
    return q.a_index(s), {(q.left_vertex(s), doubled[k + len(pattern) : k + len(ids)]): -coeff}


def monomialize(f: Potential) -> Tuple[Potential, Dict[Tuple[int, int], QQ], Substitution]:
    """Transform a reduced Type A potential to monomial form below its truncation.

    Returns the monomial output g, its power table keyed (slot, power), and
    a substitution that sends f to g exactly. Raises PreconditionError when
    f is not Type A, not reduced, or has a linear term (a lone loop).
    """
    report = type_a_report(f)
    if not report.is_type_a:
        raise PreconditionError(f"missing consecutive products at {report.missing_middles}")
    if not report.reduced:
        raise PreconditionError(f"loop squares present at {report.loop_squares}")
    if report.linear_terms:
        raise PreconditionError(f"linear terms present at {report.linear_terms}")
    g, steps = _monomialize_core(f)
    table = extract_monomial(g)
    assert table is not None, "normalization left a non-monomial term"
    assert not any(j == 2 and g.quiver.is_loop(i) for i, j in table), \
        "a loop square appeared during normalization"
    return g, table, compose_chain(steps, f.quiver, f.truncation)


def _step(f: Potential, sub: Substitution, steps: List[Substitution]) -> Potential:
    """Record ``sub`` in ``steps`` and return its image of ``f``."""
    steps.append(sub)
    return sub.apply_potential(f)


def _unit_middles(f: Potential, steps: List[Substitution]) -> Potential:
    """Step 1, recorded: a_i -> k_i a_i with k_1 = 1 and k_{i+1} = 1/(k_i * lambda_i),
    where lambda_i is the coefficient of x_i' x_{i+1}, so every consecutive
    product carries coefficient 1. PreconditionError when one is missing."""
    q = f.quiver
    middles = read_terms(f)[1]
    missing = tuple(i for i in range(1, q.m) if i not in middles)
    if missing:
        raise PreconditionError(f"missing consecutive products at {missing}")
    if all(c == 1 for c in middles.values()):
        return f
    k = [QQ(1)]
    for i in range(1, q.m):
        k.append(1 / (k[-1] * middles[i]))
    sub = Substitution.moves(q, f.truncation, {q.a_index(i): (k[i - 1], {})
                                               for i in range(1, q.m + 1) if k[i - 1] != 1})
    return _step(f, sub, steps)


def _funnel(f: Potential, degree: int, steps: List[Substitution], min_top: int = 1) -> Potential:
    """Remove the junk of one ``degree`` >= 2 whose top slot count is at least
    ``min_top``, recording each step, the largest ((top slot, top count), ids) first.
    Each step is the one move ``_removal`` reads off the chosen term.

    The key makes the order of steps a function of the potential, not of its
    term order. At degree 2 the order does not even matter: a skip at loop
    slot s moves only a_s, and its image a_s - c * x_{s-1}' holds no other
    moved arrow. Each term the step makes holds the pair (b_{s-1}, a_{s-1}),
    while the only such pair in another skip x_{t-1}' x_{t+1} sits at
    k = t - 1, so no step changes another skip's coefficient. The skip steps
    are thus the same set in any order, they commute, and ``compose_chain``
    gives the same map.
    """
    q, D = f.quiver, f.truncation
    for _ in range(MAX_PASSES):
        junk = [item for item in read_terms(f)[2] if item[2][1] == degree and item[2][4] >= min_top]
        if not junk:
            return f
        arrow, extra = _removal(q, *max(junk, key=lambda it: (it[2][3:], it[0][1])))
        f = _step(f, Substitution.moves(q, D, {arrow: (1, extra)}), steps)
    raise AssertionError(f"junk of degree {degree} left after {MAX_PASSES} passes")


def _monomialize_core(f: Potential) -> Tuple[Potential, List[Substitution]]:
    steps: List[Substitution] = []
    f = _unit_middles(f, steps)

    # ascending degrees; each removal only adds junk at the same degree with
    # smaller top-slot data or at strictly higher degrees
    d = 2
    while d < f.truncation:
        f = _funnel(f, d, steps)
        if d == 2:
            # a skip step at s turns part of a loop square x_s^2 into the
            # consecutive product x_{s-1}' x_s; rescale that drift away
            f = _unit_middles(f, steps)
        # the lowest degree with junk left: at least 3 after degree 2, since
        # no step above degree 2 makes a term of degree 2
        d = min((shape[1] for _w, _c, shape in read_terms(f)[2]), default=f.truncation)
    return f, steps


# -- loop insertion and elimination ---------------------------------------------------


def _arrow_map(old: DoubledPathQuiver, new: DoubledPathQuiver, slot_map: Dict[int, int]):
    """Arrow index map induced by a slot renumbering."""
    amap: Dict[int, int] = {}
    for i_old, i_new in slot_map.items():
        amap[old.a_index(i_old)] = new.a_index(i_new)
        b_old = old.b_index(i_old)
        if b_old is not None:
            b_new = new.b_index(i_new)
            assert b_new is not None
            amap[b_old] = b_new
    return amap


def _neighbors(q: DoubledPathQuiver, D: int, s: int) -> NCElement:
    """x_{s-1}' + x_{s+1}, the derivative of the consecutive products along
    the loop a_s; a side past either end of the path is left out."""
    terms = {}
    if s > 1:
        terms[q.xprime_word(s - 1)] = 1
    if s < q.m:
        terms[q.x_word(s + 1)] = 1
    return NCElement(q, D, terms)


def add_loop(f: Potential, vertex: int) -> Potential:
    """Insert a loop at a loopless vertex; the result is monomial Type A
    with coefficient -1/2 on the new loop's square and the same Jacobi
    algebra after deleting nothing (the two presentations correspond).
    PreconditionError when f is not monomial or the vertex has a loop."""
    q = f.quiver
    assert isinstance(q, DoubledPathQuiver)
    if vertex not in q.loopless:
        raise PreconditionError(f"vertex {vertex} is not a loopless vertex")
    if extract_monomial(f) is None:
        raise PreconditionError("input must be monomial")
    new_q = double_an(q.n, sorted(q.loopless - {vertex}))
    t = new_q.loop_slot(vertex)
    slot_map = {i: (i if i < t else i + 1) for i in range(1, q.m + 1)}
    g = f.relabel(new_q, _arrow_map(q, new_q, slot_map))
    # seed the loop square, then absorb the neighbors into the loop
    g.add_cycle(new_q.x_power(t, 2), QQ(-1, 2))
    sub = Substitution.moves(new_q, f.truncation,
                             {new_q.a_index(t): (1, (-_neighbors(new_q, f.truncation, t)).terms)})
    out = sub.apply_potential(g)
    table = extract_monomial(out)
    assert table is not None and table.get((t, 2)) == QQ(-1, 2)
    return out


def eliminate_loop(f: Potential, vertex: int) -> Potential:
    """Remove the loop at ``vertex`` from a monomial potential whose loop
    square there has an invertible coefficient, by substituting the unique
    series solving the loop's derivative equation, then renormalizing on
    the smaller quiver. PreconditionError when f is not monomial, the
    vertex has no loop or the loop square's coefficient is zero."""
    q = f.quiver
    assert isinstance(q, DoubledPathQuiver)
    table = extract_monomial(f)
    if table is None:
        raise PreconditionError("input must be monomial")
    s = q.loop_slot(vertex)
    if s is None:
        raise PreconditionError(f"vertex {vertex} carries no loop")
    k2 = table.get((s, 2), ZERO)
    if k2 == 0:
        raise PreconditionError("loop square coefficient must be invertible")
    D = f.truncation

    neighbors = _neighbors(q, D, s)
    higher = [(j, c) for (i, j), c in table.items() if i == s and j >= 3]

    def rest(x: NCElement) -> NCElement:
        """neighbors + sum_j j kappa_{s,j} x^{j-1}: the loop equation less its linear term."""
        out = neighbors
        for j, kj in higher:
            power = NCElement.lazy(q, D, vertex)
            for _ in range(j - 1):
                power = power * x
            out = out + power.scale(j * kj)
        return out

    # x_s = -rest(x_s) / (2 kappa_{s,2}), solved by iteration; each round is
    # exact below the truncation
    inv = -1 / (2 * k2)
    sol = NCElement.zero(q, D)
    for _ in range(D + 1):
        new_sol = rest(sol).scale(inv)
        if new_sol == sol:
            break
        sol = new_sol
    # the derivative equation must hold on the nose below the truncation
    assert (rest(sol) + sol.scale(2 * k2)).is_zero(), \
        "loop equation not solved below the truncation"

    sub = Substitution(q, D, {q.a_index(s): sol})
    g = sub.apply_potential(f)

    new_q = double_an(q.n, sorted(q.loopless | {vertex}))
    slot_map = {i: (i if i < s else i - 1) for i in range(1, q.m + 1) if i != s}
    h = g.relabel(new_q, _arrow_map(q, new_q, slot_map))
    h, _steps = _monomialize_core(h)
    assert extract_monomial(h) is not None
    return h
