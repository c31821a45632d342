"""A cyclic quiver with a full loop family at every vertex, rewritten to a basis.

Vertices 0..n sit on a cycle with arrows a_t: t -> t+1 and b_t: t+1 -> t of
weight 1, plus loops l(t, i) of weight 2 for every vertex t and 0 <= i <= n.
The defining relations say the loops commute with everything in a shifted
way and that the two adjacent-arrow products equal specific loops:

    l(t,i) a_t = a_t l(t+1,i)      a_t b_t = l(t,t)
    l(t+1,i) b_t = b_t l(t,i)      b_t a_t = l(t+1,t)
    l(t,j) l(t,i) = l(t,i) l(t,j)  for j > i

Oriented by the package's rewrite order these form a confluent system whose
irreducible words are an arrow run (all a's or all b's, possibly empty)
followed by a loop run with weakly increasing indices. The graded counts
satisfy a four-step linear recursion, witnessed by an exact five-term
complex of right-multiplication maps.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Dict, List, Tuple

from .field import ONE, QQ, PreconditionError
from .linalg import accumulate, combine, rank_of
from .quiver import Quiver, Word
from .rewrite import ReductionSystem
from .series import NCElement

Vec = Dict[Tuple, QQ]


class AppendixQuiver(Quiver):
    """Loop indices are assigned in descending order within each vertex so
    that the commutator rules orient descending adjacent pairs into
    ascending ones under the (weight, -length, lex) order."""

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError(f"the cyclic quiver needs n >= 1, not {n}")
        arrows = []
        for t in range(n + 1):
            for i in range(n, -1, -1):
                arrows.append((f"l{t}_{i}", t, t, 2))
        for t in range(n + 1):
            arrows.append((f"a{t}", t, (t + 1) % (n + 1), 1))
            arrows.append((f"b{t}", (t + 1) % (n + 1), t, 1))
        super().__init__(range(n + 1), arrows)
        self.n = n

    def loop(self, t: int, i: int) -> int:
        if not 0 <= i <= self.n:
            raise PreconditionError(f"loop index {i} is outside 0..{self.n}")
        return (t % (self.n + 1)) * (self.n + 1) + (self.n - i)

    def a(self, t: int) -> int:
        return (self.n + 1) ** 2 + 2 * (t % (self.n + 1))

    def b(self, t: int) -> int:
        return (self.n + 1) ** 2 + 2 * (t % (self.n + 1)) + 1


def appendix_quiver(n: int) -> AppendixQuiver:
    return AppendixQuiver(n)


def appendix_relations(q: AppendixQuiver, truncation: int) -> List[NCElement]:
    n = q.n
    rels = []

    def word(tail, ids):
        return NCElement.from_word(q, truncation, (tail % (n + 1), tuple(ids)))

    for t in range(n + 1):
        for i in range(n + 1):
            rels.append(word(t, (q.loop(t, i), q.a(t))) - word(t, (q.a(t), q.loop(t + 1, i))))
            rels.append(word(t + 1, (q.loop(t + 1, i), q.b(t))) - word(t + 1, (q.b(t), q.loop(t, i))))
            for j in range(i + 1, n + 1):
                rels.append(word(t, (q.loop(t, j), q.loop(t, i))) - word(t, (q.loop(t, i), q.loop(t, j))))
        rels.append(word(t, (q.a(t), q.b(t))) - word(t, (q.loop(t, t),)))
        rels.append(word(t + 1, (q.b(t), q.a(t))) - word(t + 1, (q.loop(t + 1, t),)))
    return rels


def appendix_system(n: int, truncation: int) -> ReductionSystem:
    q = appendix_quiver(n)
    system = ReductionSystem(q, truncation)
    for rel in appendix_relations(q, truncation):
        system.add_relation(rel)
    return system


# -- oracles --------------------------------------------------------------------------


def euler_count(n: int, d: int) -> int:
    """Monomials of weight d in n-1 commuting weight-2 variables."""
    if d % 2:
        return 0
    k = d // 2
    if n == 1:
        return 1 if k == 0 else 0
    return comb(k + n - 2, n - 2)


def expected_count(n: int, d: int) -> int:
    """Irreducible paths of weight d with a fixed head: an arrow run of
    either kind (or none) followed by a loop multiset."""
    total = 0
    for k in range(d // 2 + 1):
        r = d - 2 * k
        m = comb(k + n, n)
        total += m if r == 0 else 2 * m
    return total


def irreducible_words_oracle(q: AppendixQuiver, head: int, weight: int) -> List[Word]:
    """Closed-form enumeration, independent of the rewrite engine."""
    n = q.n
    out = []
    loop_runs: List[Tuple[int, ...]] = []

    def extend(prefix: List[int], lo: int, budget: int):
        loop_runs.append(tuple(q.loop(head, i) for i in prefix))
        if budget == 0:
            return
        for i in range(lo, n + 1):
            extend(prefix + [i], i, budget - 1)

    extend([], 0, weight // 2)
    for run in loop_runs:
        rest = weight - 2 * len(run)
        if rest == 0:
            tail = head
            out.append((tail, run))
        elif rest > 0:
            a_ids = tuple(q.a(head - rest + s) for s in range(rest))
            b_ids = tuple(q.b(head + rest - 1 - s) for s in range(rest))
            out.append(((head - rest) % (n + 1), a_ids + run))
            out.append(((head + rest) % (n + 1), b_ids + run))
    return out


def is_basis_word(q: AppendixQuiver, word: Word) -> bool:
    """True when a path is an arrow run of one kind (possibly empty) followed
    by loops of weakly increasing index, the shape of every word the oracle
    lists."""
    first_arrow = q.a(0)  # loops take the ids below; a_t and b_t alternate from here
    ids = word[1]
    k = 0
    while k < len(ids) and ids[k] >= first_arrow:
        k += 1
    run, loops = ids[:k], ids[k:]
    if len({i % 2 for i in run}) > 1:
        return False
    # the loops of one vertex get descending ids as their index ascends
    return all(i < first_arrow for i in loops) and \
        all(x >= y for x, y in zip(loops, loops[1:]))


# states of the basis-shape automaton other than a loop state, which is the last loop id read
EMPTY, A_RUN, B_RUN, BAD = -1, -2, -3, -4


def basis_shape_step(q: AppendixQuiver) -> Callable[[int, int], int]:
    """Transition function of the basis-shape automaton on arrow ids.

    Read from ``EMPTY``, a path ends outside ``BAD`` exactly when
    ``is_basis_word`` holds: an a-run or a b-run, then loops whose ids
    never rise (their indices never fall), and nothing after a loop.
    """
    first_arrow = q.a(0)

    def step(state: int, a: int) -> int:
        if a >= first_arrow:
            kind = A_RUN if (a - first_arrow) % 2 == 0 else B_RUN
            return kind if state == EMPTY or state == kind else BAD
        return BAD if state == BAD or 0 <= state < a else a

    return step


# -- check reports ----------------------------------------------------------------------


def appendix_checks(n: int, max_degree: int) -> Dict[str, object]:
    """Resolvability, basis characterization, count recursion, completion fixpoint.

    The basis check counts without listing a word:
    ``irreducible_table`` runs the basis-shape automaton
    (``basis_shape_step``) alongside its count, so the irreducible words
    of weight <= D outside ``BAD`` are matched and those in it extra, per
    (head, weight). ``missing`` is ``expected_count`` minus matched. This
    is the set comparison with ``irreducible_words_oracle`` without
    holding either set: the table counts each irreducible word once, the
    automaton accepts exactly the oracle's words, and the oracle lists
    ``expected_count(n, weight)`` distinct words per head, so matched is
    |found & oracle|, extra is |found - oracle| and missing is
    |oracle - found|. ``counts`` is matched plus extra at head 0.
    """
    D = max_degree
    system = appendix_system(n, D + 3)
    q = system.quiver
    report: Dict[str, object] = {"n": n, "max_degree": D}

    ambiguities = list(system.ambiguities())
    witnesses = [q.format_word(word) for word, s in ambiguities
                 if not system.reduce(s).is_zero()]
    # an empty ambiguity list means nothing was checked, not a pass
    report["overlaps"] = {"count": len(ambiguities),
                          "pass": bool(ambiguities) and not witnesses,
                          "witnesses": witnesses}

    def rule_shapes():
        return sorted((r.lead[1], tuple(sorted(w[1] for w in r.tail.terms)))
                      for r in system.rules.values())

    before = rule_shapes()
    system.complete()
    report["completion_fixpoint"] = {"pass": rule_shapes() == before}

    # per (head, weight): irreducible words of the basis shape, and the others
    matched: Dict[Tuple[int, int], int] = {}
    extra: Dict[Tuple[int, int], int] = {}
    table = system.irreducible_table(D + 1, EMPTY, basis_shape_step(q))
    for (head, weight, state), count in table.items():
        tally = extra if state == BAD else matched
        tally[head, weight] = tally.get((head, weight), 0) + count
    basis_bad = []
    for head in range(n + 1):
        for weight in range(D + 1):
            got = matched.get((head, weight), 0)
            missing = expected_count(n, weight) - got
            surplus = extra.get((head, weight), 0)
            if missing or surplus:
                basis_bad.append({"head": head, "degree": weight,
                                  "missing": missing, "extra": surplus})
    report["basis"] = {"pass": not basis_bad, "witnesses": basis_bad}

    counts = [matched.get((0, d), 0) + extra.get((0, d), 0) for d in range(D + 1)]
    recursion_bad = []
    for d in range(D - 3):
        lhs = counts[d] - 2 * counts[d + 1] + 2 * counts[d + 3] - counts[d + 4] \
            + euler_count(n, d + 4)
        if lhs != 0:
            recursion_bad.append({"degree": d, "value": lhs})
    closed_form_ok = all(counts[d] == expected_count(n, d) for d in range(D + 1))
    report["counts"] = counts
    report["recursion"] = {"pass": not recursion_bad and closed_form_ok,
                           "witnesses": recursion_bad}
    report["pass"] = all(report[k]["pass"] for k in
                         ("overlaps", "completion_fixpoint", "basis", "recursion"))
    return report


# -- the five-term complex ---------------------------------------------------------------


Ids = Tuple[int, ...]


class _RightAction:
    """Right multiplication by arrows on normal forms, as a table of
    (irreducible word, arrow) products.

    ``fold(tail, vec, weight, arrows)`` takes a combination ``vec`` of
    irreducible words that all start at ``tail`` and weigh ``weight``,
    and returns NF(vec·arrows), folded one arrow at a time. A
    combination is either one word's arrow ids, with coefficient one,
    or a dict from arrow ids to coefficients; so is every table entry.

    The table holds NF(u·a) for an irreducible word u and an arrow a,
    keyed by the product's arrow ids split into a and the ids of u: one
    dict per arrow, keyed by u's ids. Those are the very tuple of a
    basis word or of an earlier entry, so most keys cost no memory, and
    a lookup builds no tuple. The appendix system is confluent (module
    docstring), so by Bergman's diamond lemma (Adv. Math. 29, 1978) NF
    is well defined and linear below the truncation, and NF(x·y) =
    NF(NF(x)·y). A new entry therefore needs one redex search on u·a:
    u is irreducible, so any redex ends at a, and the leftmost one
    rewrites u·a to the sum of c·u[:pos]·t over the rule's tail words
    t. Each u[:pos]·t is an irreducible prefix of u times the arrows of
    t, and is folded through the table arrow by arrow. The recursion
    ends: each entry it asks for is a proper prefix of a word that u·a
    rewrites to, so it weighs less, or that whole word, which is
    K-larger at the same weight. The appendix relations are
    homogeneous, so every word of NF(x) weighs what x weighs; a tail
    word whose weight, by its rule step's gain, reaches the truncation
    is dropped. The products of one exactness check share their
    prefixes and their first arrows across degrees, and that reuse is
    what the table saves.

    ``ReductionSystem.normal_form_word`` stays the engine's only general
    normal form; this table serves one system, unchanged while it lives.
    """

    # a class, not two closures: closures that call each other form a reference
    # cycle, which keeps a check's table alive until the cyclic collector runs
    __slots__ = ("table", "arrow_weight", "truncation", "find_redex", "rules")

    def __init__(self, system: ReductionSystem):
        self.table: List[Dict[Ids, object]] = [{} for _ in system.quiver.arrows]
        self.arrow_weight = [arrow.weight for arrow in system.quiver.arrows]
        self.truncation = system.truncation
        self.find_redex = system._find_redex
        self.rules = system.rules

    def fold(self, tail: int, vec: object, weight: int, arrows: Ids) -> object:
        times, arrow_weight = self._times, self.arrow_weight
        for a in arrows:
            if vec.__class__ is tuple:
                vec = times(tail, vec, weight, a)
            else:
                out: Dict[Ids, QQ] = {}
                for ids, c in vec.items():
                    accumulate(out, c, _terms(times(tail, ids, weight, a)))
                vec = out
            weight += arrow_weight[a]
        return vec

    def _times(self, tail: int, ids: Ids, weight: int, a: int) -> object:
        """NF(u·a) for the irreducible word u = (tail, ids) of the given weight."""
        weight += self.arrow_weight[a]
        if weight >= self.truncation:
            return {}
        column = self.table[a]
        entry = column.get(ids)
        if entry is not None:
            return entry
        key = ids + (a,)
        redex = self.find_redex((tail, key))
        if redex is None:
            entry = key
        else:
            pos, rid = redex
            prefix = key[:pos]
            base = weight  # the prefix's weight
            for i in key[pos:]:
                base -= self.arrow_weight[i]
            entry = {}
            for mids, c, gain in self.rules[rid].steps:
                if weight + gain < self.truncation:
                    accumulate(entry, c, _terms(self.fold(tail, prefix, base, mids)))
            if len(entry) == 1:
                ((word, c),) = entry.items()
                if c == 1:
                    entry = word
        column[ids] = entry
        return entry


def _terms(vec: object) -> Dict[Ids, QQ]:
    """A right-action combination as a dict from arrow ids to coefficients."""
    return {vec: ONE} if vec.__class__ is tuple else vec


def _map(action: _RightAction, sources: List[List[Word]], weight: int,
         matrix: List[List[Tuple[Ids, QQ, int]]]) -> Dict[Tuple[int, Word], Vec]:
    """A map of the complex on the basis words of weight ``weight``, keyed by
    (component, word) on both sides: each source word times its component's
    row of ``matrix``, each product read from the right-action table one
    arrow at a time."""
    out: Dict[Tuple[int, Word], Vec] = {}
    for component, (words, row) in enumerate(zip(sources, matrix)):
        for tail, ids in words:
            vec: Vec = {}
            for factor, coeff, target in row:
                nf = _terms(action.fold(tail, ids, weight, factor))
                accumulate(vec, coeff, {(target, (tail, v)): c for v, c in nf.items()})
            out[component, (tail, ids)] = vec
    return out


def exactness_check(n: int, max_degree: int) -> Dict[str, object]:
    """Per-degree rank verification of the five-term complex

        0 -> P0 -> P1 + Pn -> P1 + Pn -> P0 -> k[middle loops] -> 0

    where the maps are right multiplications by (a0, bn), the 2x2 matrix
    [[l(1,n), -b0 bn], [-an a0, l(n,0)]], (b0, an), and the projection onto
    loop monomials in l(0,1)..l(0,n-1).

    One right-action table (``_RightAction``) serves every degree, so the
    products of a degree start from the entries of the degrees before it:
    their sources' prefixes and the first arrows of b0 bn and an a0 were
    multiplied there. Each (irreducible word, arrow) product is searched
    and rewritten once per check."""
    D = max_degree
    system = appendix_system(n, D + 3)
    q: AppendixQuiver = system.quiver  # type: ignore[assignment]
    action = _RightAction(system)

    # the maps as factor matrices: per source component, its row of (arrow ids,
    # coefficient, target component); each factor starts where its words end
    a0, bn, b0, an = (q.a(0),), (q.b(n),), (q.b(0),), (q.a(n),)
    l1n, ln0 = (q.loop(1, n),), (q.loop(n, 0),)
    b0bn, ana0 = (q.b(0), q.b(n)), (q.a(n), q.a(0))
    d4_matrix = [[(a0, ONE, 0), (bn, ONE, 1)]]
    d3_matrix = [[(l1n, ONE, 0), (b0bn, -ONE, 1)],
                 [(ana0, -ONE, 0), (ln0, ONE, 1)]]
    d2_matrix = [[(b0, ONE, 0)], [(an, ONE, 0)]]
    middle_loops = set(q.loop(0, i) for i in range(1, n))
    bases: Dict[Tuple[int, int], List[Word]] = {}

    def basis(head: int, weight: int) -> List[Word]:
        # each (head, weight) is enumerated once: v1a at degree d is v2a at d - 2
        if (head, weight) not in bases:
            bases[head, weight] = sorted(irreducible_words_oracle(q, head, weight))
        return bases[head, weight]

    degrees = {}
    failures = []
    for d in range(D - 3):
        # the components P0, P1 + Pn, P1 + Pn, P0 from the left, by head
        v0, v3 = basis(0, d), basis(0, d + 4)
        v1, v2 = [basis(1, d + 1), basis(n, d + 1)], [basis(1, d + 3), basis(n, d + 3)]
        ed4 = euler_count(n, d + 4)

        d4 = _map(action, [v0], d, d4_matrix)
        d3 = _map(action, v1, d + 1, d3_matrix)
        d2 = _map(action, v2, d + 3, d2_matrix)

        chain_ok = all(not combine(vec, d3.__getitem__) for vec in d4.values()) and \
            all(not combine(vec, d2.__getitem__) for vec in d3.values())
        # d1 kills everything except pure runs of interior loops
        d1_ok = not any(all(i in middle_loops for i in word[1])
                        for vec in d2.values() for _tag, word in vec)
        d1_rank = sum(1 for p in v3 if p[1] and all(i in middle_loops for i in p[1]))

        r4, r3, r2 = (rank_of(m.values()) for m in (d4, d3, d2))
        dims = (len(v0), len(d3), len(d2), len(v3), ed4)
        entry = {
            "dims": dims,
            "ranks": (r4, r3, r2),
            "chain": chain_ok,
            "image_misses_surviving_loops": d1_ok,
        }
        exact = (
            chain_ok
            and d1_ok
            and d1_rank == ed4
            and r4 == dims[0]
            and r4 + r3 == dims[1]
            and r3 + r2 == dims[2]
            and r2 + ed4 == dims[3]
        )
        entry["pass"] = exact
        degrees[d] = entry
        if not exact:
            failures.append({"degree": d, **entry})

    return {"n": n, "max_degree": D, "degrees": degrees,
            "pass": not failures, "witnesses": failures}
