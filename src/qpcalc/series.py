"""Truncated noncommutative path series.

An :class:`NCElement` is a finite rational linear combination of path
words of one quiver, kept modulo paths of weight >= ``truncation``
(weight is path length on quivers whose arrows all weigh 1). All
arithmetic silently drops terms at or above the truncation: computing
"mod m^D" is the data structure's contract, not a caller convention.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .field import QQ, ZERO, rational
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

    @classmethod
    def arrow(cls, quiver: Quiver, truncation: int, name: str, coeff=1) -> "NCElement":
        a = quiver.by_name[name]
        return cls.from_word(quiver, truncation, (a.tail, (a.index,)), coeff)

    def copy(self) -> "NCElement":
        out = NCElement(self.quiver, self.truncation)
        out.terms = dict(self.terms)
        return out

    # -- ring operations ----------------------------------------------------

    def _compatible(self, other: "NCElement") -> None:
        assert self.quiver is other.quiver, "mixed quivers"
        assert self.truncation == other.truncation, "mixed truncations"

    def __add__(self, other: "NCElement") -> "NCElement":
        self._compatible(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = out.get(word, ZERO) + coeff
            if acc == 0:
                out.pop(word, None)
            else:
                out[word] = acc
        res = NCElement(self.quiver, self.truncation)
        res.terms = out
        return res

    def __sub__(self, other: "NCElement") -> "NCElement":
        return self + (-other)

    def __neg__(self) -> "NCElement":
        res = NCElement(self.quiver, self.truncation)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def scale(self, coeff) -> "NCElement":
        coeff = QQ(coeff)
        res = NCElement(self.quiver, self.truncation)
        if coeff != 0:
            res.terms = {w: coeff * c for w, c in self.terms.items()}
        return res

    def __mul__(self, other: "NCElement") -> "NCElement":
        self._compatible(other)
        quiver, cap = self.quiver, self.truncation
        weight = quiver.weight_of
        # right factors by tail vertex, in term order, weighed once
        by_tail: Dict[int, list] = {}
        for rw, rc in other.terms.items():
            by_tail.setdefault(rw[0], []).append((rw[1], weight(rw), rc))
        out: Dict[Word, QQ] = {}
        heads = quiver.head_of
        for lw, lc in self.terms.items():
            rights = by_tail.get(heads(lw))
            if not rights:
                continue
            room = cap - weight(lw)
            ltail, lids = lw
            for rids, rweight, rc in rights:
                if rweight >= room:
                    continue
                word = (ltail, lids + rids)
                acc = out.get(word, ZERO) + lc * rc
                if acc == 0:
                    out.pop(word, None)
                else:
                    out[word] = acc
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

    def max_weight(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(self.quiver.weight_of(w) for w in self.terms)

    def truncate(self, truncation: int) -> "NCElement":
        """Reinterpret at another truncation; going down drops the overflow.

        Terms are already nonzero rationals below ``self.truncation``, so
        going up copies them and going down only filters by weight.
        """
        res = NCElement(self.quiver, truncation)
        if truncation >= self.truncation:
            res.terms = dict(self.terms)
        else:
            weight = self.quiver.weight_of
            res.terms = {w: c for w, c in self.terms.items() if weight(w) < truncation}
        return res

    def items(self) -> Iterable[Tuple[Word, QQ]]:
        return self.terms.items()

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (self.quiver.weight_of(kv[0]), kv[0][1], kv[0][0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word, coeff in self.sorted_items():
            bits.append(f"({coeff})*{self.quiver.format_word(word)}")
        return " + ".join(bits)
