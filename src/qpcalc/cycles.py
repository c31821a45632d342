"""Cycles up to rotation, and potentials built from them.

A potential is a truncated path series whose terms are cyclic paths taken
up to rotation. Each rotation class is stored by its canonical
representative: the rotation whose arrow index sequence is
lexicographically smallest. :class:`Potential` is an
:class:`~qpcalc.series.NCElement` keyed by those representatives: it adds,
subtracts, scales, compares and truncates like any series, and its
``sorted_items`` orders terms by (length, arrow ids), since arrows of a
doubled quiver weigh 1 and a canonical cycle's first arrow fixes its
tail. It does not multiply.
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


class Potential(NCElement):
    """A path series keyed by canonical cycles; it does not multiply."""

    __slots__ = ()

    def __init__(self, quiver: Quiver, truncation: int, terms: Optional[Dict[Word, QQ]] = None):
        self.quiver = quiver
        self.truncation = truncation
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                self.add_cycle(word, coeff)

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

    def coeff(self, word: Word) -> QQ:
        return self.terms.get(canonical_cycle(self.quiver, word), ZERO)

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
                word = (a.head, ids[k + 1 :] + ids[:k])
                out[word] = out.get(word, ZERO) + coeff
        return NCElement(self.quiver, self.truncation, out)

    def __mul__(self, other):
        raise TypeError("potentials do not multiply: a product of rotation classes is not defined")


def x_monomial(quiver: DoubledPathQuiver, truncation: int, spec: Sequence[Tuple[int, bool]], coeff=1) -> Potential:
    out = Potential(quiver, truncation)
    out.add_cycle(cycle_from_slots(quiver, spec), coeff)
    return out
