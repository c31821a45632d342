"""Arrow substitutions (truncated algebra endomorphisms).

A substitution maps each arrow to a path series with the same endpoints;
it extends multiplicatively to words and linearly to series, everything
modulo the truncation. Composition order: ``compose(s1, s2)`` applies
``s1`` first.

``Substitution.moves`` builds the coordinate changes the normalizations
chain, each listed arrow a going to scale*a plus higher terms.

Each stored image also records, once, its arrow's *own* coefficient (that
of the arrow itself in its image, possibly 0) and its *gain*: the least
weight that any other term of the image adds to the arrow's (the analogue
of ``Rule.raises``; the truncation when there is no other term).
``apply_word`` reads them to return a word whose result is known without
a product. A term of the product of the images along a word of weight w
picks one image term per letter; if it picks a non-own term anywhere, it
weighs w plus the sum of the weights its picks add, at least w + g, where
g is the least gain of the moved arrows in the word, provided every such
gain is positive. So when w + g >= D (the truncation) every such term is
dropped, and the word maps to itself times the product of its letters'
own coefficients, or to 0 when that product is 0. A gain <= 0 (a loop
mapped to loop + lazy path, say) breaks the bound, since two negative
picks add less than one, so such a word falls back to the product; no
substitution the package builds has one. ``compose`` computes the entries
of the images it makes and copies ``second``'s entries with the images it
reuses; ``_store`` is the one place that writes an image and its entry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .field import ONE, QQ, ZERO, PreconditionError
from .linalg import accumulate, combine, rank_of
from .quiver import Quiver, Word
from .series import NCElement
from .cycles import Potential


class Substitution:
    __slots__ = ("quiver", "truncation", "images", "_entries")

    def __init__(self, quiver: Quiver, truncation: int, images: Optional[Dict[int, NCElement]] = None):
        """``images`` maps arrow indices to their images; every other arrow is fixed.

        PreconditionError when an image is on another quiver or truncation, or
        has a term that is not a path or does not run between its arrow's
        endpoints.
        """
        self.quiver = quiver
        self.truncation = truncation
        self.images: Dict[int, NCElement] = {}
        # arrow index -> (own coefficient, gain), in step with ``images``
        self._entries: Dict[int, Tuple[QQ, int]] = {}
        if images:
            for index, el in images.items():
                a = quiver.arrows[index]
                if el.quiver is not quiver or el.truncation != truncation:
                    raise PreconditionError(f"image of {a.name} is on another quiver or truncation")
                for tail, ids in el.terms:
                    ends = [tail] + [quiver.arrows[i].head for i in ids]
                    if any(quiver.arrows[i].tail != at for i, at in zip(ids, ends)):
                        raise PreconditionError(f"image of {a.name} has a term that is not a path")
                    if tail != a.tail or ends[-1] != a.head:
                        raise PreconditionError(f"image of {a.name} must run {a.tail} -> {a.head}")
                self._store(a.index, el)

    def _store(self, index: int, el: NCElement, entry: Optional[Tuple[QQ, int]] = None) -> None:
        """Make ``el`` the image of arrow ``index``, with ``entry`` as its (own
        coefficient, gain), or with the entry read off ``el`` when none is given."""
        if entry is None:
            a = self.quiver.arrows[index]
            own = (a.tail, (index,))
            weight = self.quiver.weight_of
            gain = self.truncation
            for word in el.terms:
                if word != own:
                    gain = min(gain, weight(word) - a.weight)
            coeff = el.terms.get(own, ZERO)
            # the shared ONE lets apply_word and accumulate skip a product by 1
            entry = (ONE if coeff == 1 else coeff, gain)
        self.images[index] = el
        self._entries[index] = entry

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
        entries = self._entries
        tail, ids = word
        acc = NCElement(quiver, cap)
        if len(ids) == 1 and ids[0] in entries:
            # one moved arrow: the product would copy its image
            acc.terms = dict(self.images[ids[0]].terms)
            return acc
        own, least = ONE, cap
        for idx in ids:
            entry = entries.get(idx)
            if entry is not None:
                if entry[0] is not ONE:
                    own = own * entry[0]
                if entry[1] < least:
                    least = entry[1]
        # the gain filter of the module docstring; with no moved arrow least
        # is cap and the word maps to itself
        weight = quiver.weight_of
        wt = weight(word)
        if least > 0 and wt + least >= cap:
            if own and wt < cap:
                acc.terms = {word: own}
            return acc
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
        """The image of ``el``; PreconditionError when it is on another quiver."""
        if el.quiver is not self.quiver:
            raise PreconditionError("the element and the substitution are on different quivers")
        res = NCElement(self.quiver, self.truncation)
        res.terms = combine(el.terms, lambda word: self.apply_word(word).terms)
        return res

    def apply_potential(self, f: Potential) -> Potential:
        # the terms go in as the Potential constructor would add them, but a
        # key of f is a canonical cycle lighter than both truncations already:
        # only a new word goes through add_cycle's canonicalisation
        out = Potential(self.quiver, min(f.truncation, self.truncation))
        for word, coeff in self.apply_element(f).terms.items():
            if word in f.terms:
                accumulate(out.terms, coeff, {word: ONE})
            else:
                out.add_cycle(word, coeff)
        return out

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
    """Substitution doing ``first`` then ``second``.

    PreconditionError unless both share the quiver and the truncation.
    """
    if first.quiver is not second.quiver or first.truncation != second.truncation:
        raise PreconditionError("composed substitutions must share the quiver and the truncation")
    out = Substitution(first.quiver, first.truncation)
    for i in set(first.images) | set(second.images):
        if i in first.images:
            out._store(i, second.apply_element(first.images[i]))
        else:
            # an arrow that ``first`` fixes keeps its image and entry under ``second`` as is
            out._store(i, second.images[i], second._entries[i])
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
    acc = Substitution(quiver, truncation)
    for s in reversed(subs):
        acc = compose(s, acc)
    return acc
