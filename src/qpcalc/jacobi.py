"""Jacobi algebras of potentials: relations, dimensions, quotients.

The relation set of a potential is its cyclic derivative along every
arrow. Dimensions are counted modulo m^D (paths of weight >= D vanish)
with a certificate:

* ``Exact``: completion covered every ambiguity below D, and an empty
  weight window at the top shows no irreducible word can continue past it.
* ``LowerBound``: the count is dim(algebra / m^D), a lower bound for the
  (possibly infinite) true dimension.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cycles import Potential
from .field import QQ, PreconditionError
from .linalg import RowSpace
from .quiver import DoubledPathQuiver, Quiver, Word
from .series import NCElement
from .rewrite import system_from_relations

EXACT = "Exact"
LOWER_BOUND = "LowerBound"


def jacobi_relations(f: Potential) -> List[NCElement]:
    rels = []
    for arrow in f.quiver.arrows:
        d = f.cyclic_derivative(arrow.name)
        if not d.is_zero():
            rels.append(d)
    return rels


def delete_vertices(quiver: Quiver, relations: Iterable[NCElement], removed: Sequence[int]
                    ) -> Tuple[Quiver, List[NCElement]]:
    """Quotient by the idempotents of ``removed``: drop the vertices, their
    arrows, and every relation term whose path touches them. Raises
    PreconditionError when a removed vertex is not in the quiver."""
    removed_set = set(removed)
    if not removed_set <= set(quiver.vertices):
        raise PreconditionError(f"no vertices {sorted(removed_set - set(quiver.vertices))} to delete")
    kept_vertices = [v for v in quiver.vertices if v not in removed_set]
    id_map: Dict[int, int] = {}
    specs = []
    for a in quiver.arrows:
        if a.tail in removed_set or a.head in removed_set:
            continue
        id_map[a.index] = len(specs)
        specs.append((a.name, a.tail, a.head, a.weight))
    small = Quiver(kept_vertices, specs)
    mapped = [el.relabel(small, id_map) for el in relations]
    return small, [el for el in mapped if not el.is_zero()]


@dataclass
class DimensionReport:
    value: int
    certificate: str
    truncation: int
    counts: Tuple[int, ...]

    def as_pair(self) -> Tuple[int, str]:
        return (self.value, self.certificate)


def _count_run(quiver: Quiver, relations: List[NCElement], truncation: int) -> Tuple[List[int], bool]:
    """Counts per weight plus a soundness flag for 'nothing lives on'.

    Once the counts end with an empty window wider than the heaviest
    arrow, no irreducible word can exist beyond it: any longer word would
    have a prefix landing inside the window, and every proper prefix of
    an irreducible word is irreducible. The window must sit strictly
    below the truncation so its emptiness is itself certified.
    """
    system = system_from_relations(quiver, truncation, relations)
    counts = system.irreducible_counts(truncation)
    gap = max(a.weight for a in quiver.arrows) if quiver.arrows else 1
    top = max((i for i, c in enumerate(counts) if c), default=-1)
    closed = top + gap + 2 <= truncation
    return counts, closed


def jdim(f: Potential, quotient_vertices: Sequence[int] = ()) -> DimensionReport:
    """Dimension of Jac(f) below f's truncation, optionally after deleting
    vertex idempotents; ``f.truncate(D)`` gives the dimension below D.

    One completion at D decides the certificate: ``Exact`` exactly when
    its trailing window is closed (see ``_count_run``). A second
    completion at D+2 could not change that verdict:

    * The counts below D agree. Under the local order (lead = lightest
      word) the irreducible words of weight k < D span gr_k of
      A/(I + m^D), and gr_k(A/(I + m^D)) = gr_k(A/(I + m^(D+2))) for
      k < D, since m^D and m^(D+2) both lie in weights >= D (standard
      bases for local orderings: Mora, TCS 134, 1994; Greuel-Pfister,
      A Singular Introduction to Commutative Algebra, ch. 1).
    * The D+2 counts at D and D+1 are zero. An empty window wider than
      the heaviest arrow below D leaves no irreducible word to extend
      past it, since every prefix of an irreducible word is irreducible.

    So the D+2 run is closed with counts padded by two zeros whenever
    the D run is closed.
    """
    truncation = f.truncation
    relations = jacobi_relations(f)
    quiver = f.quiver
    if quotient_vertices:
        quiver, relations = delete_vertices(quiver, relations, quotient_vertices)
    counts, closed = _count_run(quiver, relations, truncation)
    return DimensionReport(sum(counts), EXACT if closed else LOWER_BOUND, truncation, tuple(counts))


@dataclass
class Fingerprint:
    total: Tuple[int, str]
    ends: Tuple[Tuple[int, str], Tuple[int, str]]  # sorted pair


def fingerprint(f: Potential) -> Fingerprint:
    """(dim, unordered {dim after deleting vertex 1, ... vertex n})."""
    q = f.quiver
    assert isinstance(q, DoubledPathQuiver)
    total = jdim(f).as_pair()
    left = jdim(f, quotient_vertices=[1]).as_pair()
    right = jdim(f, quotient_vertices=[q.n]).as_pair()
    return Fingerprint(total, tuple(sorted([left, right])))


# -- independent dimension oracle ---------------------------------------------


def all_paths(quiver: Quiver, max_weight: int) -> List[Word]:
    """Every path word of weight < max_weight, lazies included.

    The census is capped at QP_MAX_PATHS words in total (default 20000).
    """
    cap = int(os.environ.get("QP_MAX_PATHS", "20000"))
    out: List[Word] = []
    stack = [((v, ()), 0, v) for v in quiver.vertices]
    while stack:
        word, weight, at = stack.pop()
        out.append(word)
        if len(out) > cap:
            raise RuntimeError(f"path census exceeded {cap}; raise QP_MAX_PATHS to proceed")
        for a in quiver.arrows_by_tail[at]:
            w2 = weight + a.weight
            if w2 < max_weight:
                stack.append(((word[0], word[1] + (a.index,)), w2, a.head))
    return out


def jdim_oracle(quiver: Quiver, relations: Iterable[NCElement], truncation: int) -> int:
    """dim of (paths below truncation) / (two-sided span of the relations).

    No rewriting: saturate the relation span by one-arrow products on both
    sides inside an exact echelon, then subtract the rank from the path
    census. Agrees with jdim's count for the same truncation.
    """
    paths = all_paths(quiver, truncation)
    space = RowSpace()
    queue = deque()
    for rel in relations:
        vec = dict(rel.truncate(truncation).terms)
        if vec:
            queue.append(vec)
    while queue:
        vec = space.insert(queue.popleft())
        if vec is None:
            continue
        for a in quiver.arrows:
            left: Dict[Word, QQ] = {}
            right: Dict[Word, QQ] = {}
            for (tail, ids), coeff in vec.items():
                if a.head == tail and quiver.weight_of((a.tail, (a.index,) + ids)) < truncation:
                    left[(a.tail, (a.index,) + ids)] = coeff
                if quiver.head_of((tail, ids)) == a.tail and quiver.weight_of((tail, ids + (a.index,))) < truncation:
                    right[(tail, ids + (a.index,))] = coeff
            if left:
                queue.append(left)
            if right:
                queue.append(right)
    return len(paths) - space.rank


# -- commutativity of vertex subalgebras ----------------------------------------


@dataclass
class CommutativityReport:
    commutes: bool
    vertex: Optional[int] = None
    witness: Optional[NCElement] = None
    pair: Optional[Tuple[Word, Word]] = None


# the weight below which vertex_commutativity takes its generating cycles
GENERATION_DEGREE = 6


def vertex_commutativity(f: Potential) -> CommutativityReport:
    """Check each vertex subalgebra e_v Jac(f) e_v is commutative mod m^D,
    D the truncation of f.

    Generators: irreducible cycles at the vertex of weight 1 to
    GENERATION_DEGREE (6), listed through ``irreducible_table`` with the
    arrow ids as caller state. The first nonvanishing commutator is
    returned as a witness.
    """
    truncation = f.truncation
    q = f.quiver
    relations = jacobi_relations(f)
    system = system_from_relations(q, truncation, relations)
    table = system.irreducible_table(min(GENERATION_DEGREE + 1, truncation), (),
                                     lambda ids, a: ids + (a,))
    for v in q.vertices:
        cycles = sorted(((v, ids) for head, _weight, ids in table
                         if ids and head == v and q.arrows[ids[0]].tail == v), key=system.key)
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                c1 = NCElement.from_word(q, truncation, cycles[i])
                c2 = NCElement.from_word(q, truncation, cycles[j])
                comm = system.reduce(c1 * c2 - c2 * c1)
                if not comm.is_zero():
                    return CommutativityReport(False, v, comm, (cycles[i], cycles[j]))
    return CommutativityReport(True)


def same_ideal_below(quiver: Quiver, rels_a: Iterable[NCElement], rels_b: Iterable[NCElement],
                     truncation: int) -> bool:
    """Mutual reduction: the two relation sets generate the same ideal mod m^D."""
    rels_a, rels_b = list(rels_a), list(rels_b)
    sys_a = system_from_relations(quiver, truncation, rels_a)
    sys_b = system_from_relations(quiver, truncation, rels_b)
    return all(sys_a.reduce(r).is_zero() for r in rels_b) and all(
        sys_b.reduce(r).is_zero() for r in rels_a
    )
