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
from typing import Dict, List, Tuple

from .field import QQ, ZERO
from .linalg import rank_of
from .quiver import Quiver, Word
from .rewrite import ReductionSystem
from .series import NCElement

Vec = Dict[Tuple, QQ]


class AppendixQuiver(Quiver):
    """Loop indices are assigned in descending order within each vertex so
    that the commutator rules orient descending adjacent pairs into
    ascending ones under the (weight, -length, lex) order."""

    def __init__(self, n: int):
        assert n >= 1
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
        assert 0 <= i <= self.n
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


# -- check reports ----------------------------------------------------------------------


def appendix_checks(n: int, max_degree: int) -> Dict[str, object]:
    """Resolvability, basis characterization, count recursion, completion fixpoint."""
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

    rule_shapes = sorted(
        (r.lead[1], tuple(sorted(w[1] for w in r.tail.terms))) for r in system.rules.values()
    )
    system.complete()
    fixed = rule_shapes == sorted(
        (r.lead[1], tuple(sorted(w[1] for w in r.tail.terms))) for r in system.rules.values()
    )
    report["completion_fixpoint"] = {"pass": fixed}

    basis_bad = []
    found: Dict[Tuple[int, int], set] = {}
    for word, weight in system.iter_irreducible(D + 1):
        if weight <= D:
            found.setdefault((q.head_of(word), weight), set()).add(word)
    for head in range(n + 1):
        for weight in range(D + 1):
            oracle = set(irreducible_words_oracle(q, head, weight))
            got = found.get((head, weight), set())
            if oracle != got:
                basis_bad.append({"head": head, "degree": weight,
                                  "missing": len(oracle - got), "extra": len(got - oracle)})
    report["basis"] = {"pass": not basis_bad, "witnesses": basis_bad}

    counts = [0] * (D + 1)
    for (head, weight), words in found.items():
        if head == 0:
            counts[weight] += len(words)
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


def _image_vec(system: ReductionSystem, source: Word, factors: List[Tuple[Word, QQ, int]]
               ) -> Vec:
    """Right-multiply a basis word by tagged factors and express in coordinates
    keyed by (component tag, word)."""
    q = system.quiver
    out: Vec = {}
    for factor, coeff, tag in factors:
        prod = q.concat(source, factor)
        if prod is None or q.weight_of(prod) >= system.truncation:
            continue
        for w, c in system.normal_form_word(prod).items():
            key = (tag, w)
            s = out.get(key, ZERO) + coeff * c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def exactness_check(n: int, max_degree: int) -> Dict[str, object]:
    """Per-degree rank verification of the five-term complex

        0 -> P0 -> P1 + Pn -> P1 + Pn -> P0 -> k[middle loops] -> 0

    where the maps are right multiplications by (a0, bn), the 2x2 matrix
    [[l(1,n), -b0 bn], [-an a0, l(n,0)]], (b0, an), and the projection onto
    loop monomials in l(0,1)..l(0,n-1)."""
    D = max_degree
    system = appendix_system(n, D + 3)
    q: AppendixQuiver = system.quiver  # type: ignore[assignment]
    one = QQ(1)

    def w(tail: int, ids: Tuple[int, ...]) -> Word:
        return (tail % (n + 1), ids)

    a0 = w(0, (q.a(0),))
    bn = w(0, (q.b(n),))
    l1n = w(1, (q.loop(1, n),))
    ln0 = w(n, (q.loop(n, 0),))
    b0bn = w(1, (q.b(0), q.b(n)))
    ana0 = w(n, (q.a(n), q.a(0)))
    b0 = w(1, (q.b(0),))
    an = w(n, (q.a(n),))
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
        v0 = basis(0, d)
        v1a = basis(1, d + 1)
        v1b = basis(n, d + 1)
        v2a = basis(1, d + 3)
        v2b = basis(n, d + 3)
        v3 = basis(0, d + 4)
        ed4 = euler_count(n, d + 4)

        d4 = {h: _image_vec(system, h, [(a0, one, 0), (bn, one, 1)]) for h in v0}
        d3 = {}
        for f in v1a:
            d3[(0, f)] = _image_vec(system, f, [(l1n, one, 0), (b0bn, -one, 1)])
        for g in v1b:
            d3[(1, g)] = _image_vec(system, g, [(ana0, -one, 0), (ln0, one, 1)])
        d2 = {}
        for f in v2a:
            d2[(0, f)] = _image_vec(system, f, [(b0, one, 0)])
        for g in v2b:
            d2[(1, g)] = _image_vec(system, g, [(an, one, 0)])

        def compose(vec: Vec, table) -> Vec:
            out: Vec = {}
            for key, c in vec.items():
                for k2, c2 in table[key].items():
                    s = out.get(k2, ZERO) + c * c2
                    if s == 0:
                        out.pop(k2, None)
                    else:
                        out[k2] = s
            return out

        chain_ok = all(not compose(d4[h], d3) for h in v0) and \
            all(not compose(d3[k], d2) for k in d3)
        # d1 kills everything except pure runs of interior loops
        d1_ok = True
        d1_rank_targets = set()
        for key, vec in d2.items():
            for (tag, word), _c in vec.items():
                if all(i in middle_loops for i in word[1]):
                    d1_ok = False
        for p in v3:
            if p[1] and all(i in middle_loops for i in p[1]):
                d1_rank_targets.add(p)

        r4 = rank_of(d4.values())
        r3 = rank_of(d3.values())
        r2 = rank_of(d2.values())
        entry = {
            "dims": (len(v0), len(v1a) + len(v1b), len(v2a) + len(v2b), len(v3), ed4),
            "ranks": (r4, r3, r2),
            "chain": chain_ok,
            "image_misses_surviving_loops": d1_ok,
        }
        exact = (
            chain_ok
            and d1_ok
            and len(d1_rank_targets) == ed4
            and r4 == len(v0)
            and r4 + r3 == len(v1a) + len(v1b)
            and r3 + r2 == len(v2a) + len(v2b)
            and r2 + ed4 == len(v3)
        )
        entry["pass"] = exact
        degrees[d] = entry
        if not exact:
            failures.append({"degree": d, **entry})

    return {"n": n, "max_degree": D, "degrees": degrees,
            "pass": not failures, "witnesses": failures}
