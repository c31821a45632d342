"""Sparse exact linear algebra over the rationals.

Vectors are dicts keyed by arbitrary comparable hashables, and hold no
zero coefficient. ``accumulate`` is the package's one sparse
``acc += coeff * vec``: it drops every key that cancels, so a sum keeps
that rule. ``combine`` is the linear extension of a map on keys, the sum
of ``coeff * image(key)`` over a vector, built on it. RowSpace keeps an
echelonized spanning set, and every rank and membership test goes
through it.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from .field import ONE, QQ


def accumulate(acc: Dict[Hashable, QQ], coeff: QQ, vec: Dict[Hashable, QQ]) -> None:
    """acc += coeff * vec in place, dropping cancelled keys; coeff must be nonzero."""
    for v, cv in vec.items():
        # normal forms of irreducible words hold the shared ONE: skip that product
        t = coeff if cv is ONE else coeff * cv
        old = acc.get(v)
        if old is None:
            acc[v] = t
        else:
            s = old + t
            if s:
                acc[v] = s
            else:
                del acc[v]


def combine(vec: Dict[Hashable, QQ], image: Callable[[Hashable], Dict[Hashable, QQ]]
            ) -> Dict[Hashable, QQ]:
    """The sum of coeff * image(key) over vec, with no cancelled key."""
    out: Dict[Hashable, QQ] = {}
    for key, coeff in vec.items():
        accumulate(out, coeff, image(key))
    return out


class RowSpace:
    """Incremental echelon form keyed by pivot (each row's largest key)."""

    def __init__(self):
        self.rows: Dict[Hashable, Dict[Hashable, QQ]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Dict[Hashable, QQ]) -> Dict[Hashable, QQ]:
        """The remainder of vec against the rows; empty exactly when vec is in the span."""
        vec = {k: v for k, v in vec.items() if v != 0}
        while vec:
            pivot = max(vec)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            accumulate(vec, -vec[pivot], row)
        return vec

    def insert(self, vec: Dict[Hashable, QQ]) -> Optional[Dict[Hashable, QQ]]:
        """Add vec; return the stored normalised row, or None if vec was in the span."""
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = max(vec)
        inv = ONE / vec[pivot]
        row = self.rows[pivot] = {k: v * inv for k, v in vec.items()}
        return row


def rank_of(vectors) -> int:
    space = RowSpace()
    for v in vectors:
        space.insert(v)
    return space.rank
