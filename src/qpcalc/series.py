"""Truncated noncommutative path series.

An :class:`NCElement` is a finite rational linear combination of path
words of one quiver, kept modulo paths of weight >= ``truncation``
(weight is path length on quivers whose arrows all weigh 1). All
arithmetic silently drops terms at or above the truncation: computing
"mod m^D" is the data structure's contract, not a caller convention.

Sums, negation, scaling and truncation build an element of the left
operand's class, so a subclass whose keys obey an invariant the plain
arithmetic keeps (a :class:`~qpcalc.cycles.Potential`, keyed by canonical
cycles) stays that subclass; a sum of two classes raises TypeError, as
the right operand's keys need not obey it. Products are plain elements.

``relabel`` moves an element to another quiver along an arrow map.
"""

from __future__ import annotations

from typing import Dict, Optional

from .field import ONE, QQ, ZERO, rational
from .linalg import accumulate
from .quiver import Quiver, Word


class NCElement:
    __slots__ = ("quiver", "truncation", "terms")

    def __init__(self, quiver: Quiver, truncation: int, terms: Optional[Dict[Word, QQ]] = None):
        assert truncation >= 1
        self.quiver = quiver
        self.truncation = truncation
        clean: Dict[Word, QQ] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = QQ(coeff)
                if coeff == 0 or quiver.weight_of(word) >= truncation:
                    continue
                clean[word] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, quiver: Quiver, truncation: int) -> "NCElement":
        return cls(quiver, truncation)

    @classmethod
    def from_word(cls, quiver: Quiver, truncation: int, word: Word, coeff=1) -> "NCElement":
        return cls(quiver, truncation, {word: rational(coeff)})

    @classmethod
    def lazy(cls, quiver: Quiver, truncation: int, vertex: int) -> "NCElement":
        return cls.from_word(quiver, truncation, (vertex, ()))

    # -- ring operations ----------------------------------------------------

    def _compatible(self, other: "NCElement") -> None:
        assert self.quiver is other.quiver, "mixed quivers"
        assert self.truncation == other.truncation, "mixed truncations"

    def __add__(self, other: "NCElement") -> "NCElement":
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        self._compatible(other)
        res = self.__class__(self.quiver, self.truncation)
        res.terms = dict(self.terms)
        accumulate(res.terms, ONE, other.terms)
        return res

    def __sub__(self, other: "NCElement") -> "NCElement":
        return self + (-other)

    def __neg__(self) -> "NCElement":
        res = self.__class__(self.quiver, self.truncation)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def scale(self, coeff) -> "NCElement":
        coeff = QQ(coeff)
        res = self.__class__(self.quiver, self.truncation)
        if coeff != 0:
            res.terms = {w: coeff * c for w, c in self.terms.items()}
        return res

    def __mul__(self, other: "NCElement") -> "NCElement":
        self._compatible(other)
        quiver, cap = self.quiver, self.truncation
        weight = quiver.weight_of
        # right factors by tail vertex, weighed once
        by_tail: Dict[int, list] = {}
        for rw, rc in other.terms.items():
            by_tail.setdefault(rw[0], []).append((rw[1], weight(rw), rc))
        # the right factors lighter than the room a left word leaves, listed once
        # per (head, room): 45% of left words hit it on the benchmark's normal-forms
        # workload, 84% in monomialize of its type_a_shape potential on double_an(4),
        # where D = 18 takes 4.3-4.9 s, 7.1-8.5 s without it (Python 3.11, 2 vCPUs)
        fitting: Dict[tuple, list] = {}
        out: Dict[Word, QQ] = {}
        heads = quiver.head_of
        for lw, lc in self.terms.items():
            head, room = heads(lw), cap - weight(lw)
            fits = fitting.get((head, room))
            if fits is None:
                fits = fitting[head, room] = [(rids, rc) for rids, rweight, rc in by_tail.get(head, ())
                                              if rweight < room]
            if not fits:
                continue
            ltail, lids = lw
            # distinct right words with one tail have distinct ids, so no two collide here
            accumulate(out, lc, {(ltail, lids + rids): rc for rids, rc in fits})
        res = NCElement(quiver, cap)
        res.terms = out
        return res

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCElement):
            return NotImplemented
        self._compatible(other)
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("NCElement is mutable-adjacent; do not hash")

    def coeff(self, word: Word) -> QQ:
        return self.terms.get(word, ZERO)

    def truncate(self, truncation: int) -> "NCElement":
        """Reinterpret at another truncation; going down drops the overflow.

        Terms are already nonzero rationals below ``self.truncation``, so
        going up copies them and going down only filters by weight.
        """
        res = self.__class__(self.quiver, truncation)
        if truncation >= self.truncation:
            res.terms = dict(self.terms)
        else:
            weight = self.quiver.weight_of
            res.terms = {w: c for w, c in self.terms.items() if weight(w) < truncation}
        return res

    def relabel(self, quiver: Quiver, amap: Dict[int, int]) -> "NCElement":
        """This element on ``quiver`` with arrow ids renamed by ``amap``.

        ``amap`` keeps arrow endpoints, so each word keeps its tail vertex. A
        word using an arrow outside ``amap``, or a lazy path at a vertex
        ``quiver`` lacks, is dropped. The class's constructor rebuilds the
        terms in order, so a Potential re-canonicalises its keys.
        """
        vertices = set(quiver.vertices)
        terms = {(tail, tuple(amap[i] for i in ids)): c for (tail, ids), c in self.terms.items()
                 if tail in vertices and all(i in amap for i in ids)}
        return self.__class__(quiver, self.truncation, terms)

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (self.quiver.weight_of(kv[0]), kv[0][1], kv[0][0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word, coeff in self.sorted_items():
            bits.append(f"({coeff})*{self.quiver.format_word(word)}")
        return " + ".join(bits)
