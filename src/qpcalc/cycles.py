"""Cycles up to rotation, and potentials built from them.

A potential is a rational combination of cyclic paths where two words
that differ by rotation are the same term. Each class is stored by its
canonical representative: the rotation whose arrow index sequence is
lexicographically smallest.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .field import QQ, ZERO
from .quiver import DoubledPathQuiver, Quiver, Word
from .series import NCElement


def canonical_cycle(quiver: Quiver, word: Word) -> Word:
    """Minimal rotation of a nonempty cycle word."""
    tail, ids = word
    assert ids, "lazy paths are not cycles"
    assert quiver.head_of(word) == tail, "word is not closed"
    best = ids
    for k in range(1, len(ids)):
        rot = ids[k:] + ids[:k]
        if rot < best:
            best = rot
    return (quiver.arrows[best[0]].tail, best)


def cycle_from_slots(quiver: DoubledPathQuiver, spec: Sequence[Tuple[int, bool]]) -> Word:
    """Cycle word from x-letters: spec item (i, primed) means x_i' if primed.

    Consecutive letters must be composable; the whole word must close up.
    """
    assert spec, "empty x-word"
    word: Optional[Word] = None
    for i, primed in spec:
        letter = quiver.xprime_word(i) if primed else quiver.x_word(i)
        word = letter if word is None else quiver.concat(word, letter)
        assert word is not None, f"x-letters do not compose at slot {i}"
    assert quiver.head_of(word) == word[0], "x-word does not close up"
    return canonical_cycle(quiver, word)


class Potential:
    __slots__ = ("quiver", "truncation", "terms")

    def __init__(self, quiver: Quiver, truncation: int, terms: Optional[Dict[Word, QQ]] = None):
        self.quiver = quiver
        self.truncation = truncation
        self.terms: Dict[Word, QQ] = {}
        if terms:
            for word, coeff in terms.items():
                self.add_cycle(word, coeff)

    def copy(self) -> "Potential":
        out = Potential(self.quiver, self.truncation)
        out.terms = dict(self.terms)
        return out

    def add_cycle(self, word: Word, coeff) -> None:
        coeff = QQ(coeff)
        if coeff == 0 or self.quiver.weight_of(word) >= self.truncation:
            return
        key = canonical_cycle(self.quiver, word)
        acc = self.terms.get(key, ZERO) + coeff
        if acc == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = acc

    # -- arithmetic ----------------------------------------------------------

    def _compatible(self, other: "Potential") -> None:
        assert self.quiver is other.quiver and self.truncation == other.truncation

    def __add__(self, other: "Potential") -> "Potential":
        self._compatible(other)
        out = self.copy()
        for word, coeff in other.terms.items():
            out.add_cycle(word, coeff)
        return out

    def __sub__(self, other: "Potential") -> "Potential":
        return self + other.scale(-1)

    def scale(self, coeff) -> "Potential":
        coeff = QQ(coeff)
        out = Potential(self.quiver, self.truncation)
        if coeff != 0:
            out.terms = {w: coeff * c for w, c in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Potential):
            return NotImplemented
        self._compatible(other)
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("Potential is not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, word: Word) -> QQ:
        return self.terms.get(canonical_cycle(self.quiver, word), ZERO)

    def truncate(self, truncation: int) -> "Potential":
        out = Potential(self.quiver, truncation)
        for word, coeff in self.terms.items():
            out.add_cycle(word, coeff)
        return out

    # -- cyclic derivative -----------------------------------------------------

    def cyclic_derivative(self, arrow_name: str) -> NCElement:
        """Sum over occurrences: rotate the occurrence to the front, delete it.

        The result is a path from head(a) to tail(a).
        """
        a = self.quiver.by_name[arrow_name]
        out: Dict[Word, QQ] = {}
        for (tail, ids), coeff in self.terms.items():
            for k, idx in enumerate(ids):
                if idx != a.index:
                    continue
                rest = ids[k + 1 :] + ids[:k]
                word = (a.head, rest)
                acc = out.get(word, ZERO) + coeff
                if acc == 0:
                    out.pop(word, None)
                else:
                    out[word] = acc
        return NCElement(self.quiver, self.truncation, out)

    # -- i/o --------------------------------------------------------------------

    def sorted_items(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (len(kv[0][1]), kv[0][1]),
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{self.quiver.format_word(w)}" for w, c in self.sorted_items())


def x_monomial(quiver: DoubledPathQuiver, truncation: int, spec: Sequence[Tuple[int, bool]], coeff=1) -> Potential:
    out = Potential(quiver, truncation)
    out.add_cycle(cycle_from_slots(quiver, spec), coeff)
    return out
