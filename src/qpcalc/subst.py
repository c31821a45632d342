"""Arrow substitutions (truncated algebra endomorphisms).

A substitution maps each arrow to a path series with the same endpoints;
it extends multiplicatively to words and linearly to series, everything
modulo the truncation. Composition order: ``compose(s1, s2)`` applies
``s1`` first.

``Substitution.moves`` builds the coordinate changes the normalizations
chain, each listed arrow a going to scale*a plus higher terms.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .field import ONE, QQ
from .linalg import accumulate, combine, rank_of
from .quiver import Quiver, Word
from .series import NCElement
from .cycles import Potential


class Substitution:
    __slots__ = ("quiver", "truncation", "images")

    def __init__(self, quiver: Quiver, truncation: int, images: Optional[Dict[int, NCElement]] = None):
        """``images`` maps arrow indices to their images; every other arrow is fixed."""
        self.quiver = quiver
        self.truncation = truncation
        self.images: Dict[int, NCElement] = {}
        if images:
            for index, el in images.items():
                a = quiver.arrows[index]
                assert el.quiver is quiver and el.truncation == truncation
                for word in el.terms:
                    assert word[0] == a.tail and quiver.head_of(word) == a.head, (
                        f"image of {a.name} must run {a.tail} -> {a.head}"
                    )
                self.images[a.index] = el

    @classmethod
    def identity(cls, quiver: Quiver, truncation: int) -> "Substitution":
        return cls(quiver, truncation)

    @classmethod
    def moves(cls, quiver: Quiver, truncation: int,
              table: Dict[int, Tuple[QQ, Dict[Word, QQ]]]) -> "Substitution":
        """Each arrow index in ``table``, mapped to ``(scale, extra)``, goes to
        scale*arrow + extra; every other arrow is fixed.

        An image lists the arrow term first, then ``extra`` in order. Every
        listed arrow is stored, even one whose image comes out as itself.
        """
        images = {}
        for index, (scale, extra) in table.items():
            terms = {(quiver.arrows[index].tail, (index,)): scale}
            accumulate(terms, ONE, extra)
            images[index] = NCElement(quiver, truncation, terms)
        return cls(quiver, truncation, images)

    def image_of(self, index: int) -> NCElement:
        el = self.images.get(index)
        if el is not None:
            return el
        a = self.quiver.arrows[index]
        return NCElement.from_word(self.quiver, self.truncation, (a.tail, (a.index,)))

    # -- application -------------------------------------------------------

    def apply_word(self, word: Word) -> NCElement:
        quiver, cap = self.quiver, self.truncation
        weight = quiver.weight_of
        tail, ids = word
        acc = NCElement(quiver, cap)
        acc.terms = {(tail, ()): ONE}
        for idx in ids:
            img = self.images.get(idx)
            if img is not None:
                acc = acc * img
            else:
                # a fixed arrow only extends each word; no product needed
                step = quiver.arrows[idx].weight
                acc.terms = {(t, w + (idx,)): c for (t, w), c in acc.terms.items()
                             if weight((t, w)) + step < cap}
            if acc.is_zero():
                break
        return acc

    def apply_element(self, el: NCElement) -> NCElement:
        assert el.quiver is self.quiver
        res = NCElement(self.quiver, self.truncation)
        res.terms = combine(el.terms, lambda word: self.apply_word(word).terms)
        return res

    def apply_potential(self, f: Potential) -> Potential:
        # the Potential constructor canonicalises each image word through add_cycle
        return Potential(self.quiver, min(f.truncation, self.truncation), self.apply_element(f).terms)

    # -- structure -----------------------------------------------------------

    def is_invertible(self) -> bool:
        """Whether the linear part (each image's one-arrow terms) has full rank."""
        linear = ({ids[0]: c for (_tail, ids), c in self.image_of(i).terms.items() if len(ids) == 1}
                  for i in range(len(self.quiver.arrows)))
        return rank_of(linear) == len(self.quiver.arrows)

    def __repr__(self) -> str:
        bits = []
        for i in sorted(self.images):
            bits.append(f"{self.quiver.arrows[i].name} -> {self.images[i]!r}")
        return "Substitution(" + "; ".join(bits) + ")" if bits else "Substitution(identity)"


def compose(first: Substitution, second: Substitution) -> Substitution:
    """Substitution doing ``first`` then ``second``."""
    assert first.quiver is second.quiver and first.truncation == second.truncation
    touched = set(first.images) | set(second.images)
    # an arrow that ``first`` fixes keeps its image under ``second`` as is
    images = {i: second.apply_element(first.images[i]) if i in first.images else second.images[i]
              for i in touched}
    out = Substitution(first.quiver, first.truncation)
    out.images = images
    return out


def compose_chain(subs, quiver: Quiver, truncation: int) -> Substitution:
    """Substitution doing ``subs[0]``, then ``subs[1]``, and so on.

    The product is folded from the right, ``acc = compose(s, acc)`` over
    ``reversed(subs)``, so each step feeds only its own images, which are
    short, through the accumulated map. A left fold would instead push
    every step through the accumulated images, which keep growing. The
    results agree because composition of truncated algebra homomorphisms
    is associative here: no arrow image has a term lighter than its arrow
    (true of every substitution the package builds), so each step maps
    paths of weight >= ``truncation`` to paths of weight >= ``truncation``
    and truncating between steps loses nothing.
    """
    acc = Substitution.identity(quiver, truncation)
    for s in reversed(subs):
        acc = compose(s, acc)
    return acc
