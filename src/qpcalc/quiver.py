"""Quivers (finite directed multigraphs) and path words.

A word is stored as ``(tail_vertex, ids)`` where ``ids`` is a tuple of
arrow indices composed left to right: ``w = uv`` means "first traverse
``u``, then ``v``", defined when ``head(u) == tail(v)``. The empty tuple
is the lazy path at its tail vertex.

Arrow indices double as the alphabet order: the index sequence of a word
is its lexicographic sort key everywhere in the package (canonical cycle
rotations, rewrite-order tiebreaks). Factories therefore fix the index
assignment deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

Word = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class Arrow:
    index: int
    name: str
    tail: int
    head: int
    weight: int = 1

    def __repr__(self) -> str:  # keep reprs short in test output
        return self.name


class Quiver:
    """Immutable arrow table with word utilities."""

    def __init__(self, vertices: Sequence[int], arrows: Iterable[Tuple[str, int, int, int]]):
        self.vertices: Tuple[int, ...] = tuple(vertices)
        vset = set(self.vertices)
        built = []
        for idx, (name, tail, head, weight) in enumerate(arrows):
            assert tail in vset and head in vset, f"arrow {name} off the vertex set"
            built.append(Arrow(idx, name, tail, head, weight))
        self.arrows: Tuple[Arrow, ...] = tuple(built)
        self.by_name = {a.name: a for a in self.arrows}
        assert len(self.by_name) == len(self.arrows), "duplicate arrow name"
        self._heads = tuple(a.head for a in self.arrows)
        self._weights = tuple(a.weight for a in self.arrows)
        # doubled quivers weigh 1 per arrow, so a word's weight is its length
        self._unit = all(w == 1 for w in self._weights)
        self.arrows_by_tail = {v: tuple(a for a in self.arrows if a.tail == v) for v in self.vertices}

    # -- word primitives ---------------------------------------------------

    def head_of(self, word: Word) -> int:
        tail, ids = word
        return self._heads[ids[-1]] if ids else tail

    def weight_of(self, word: Word) -> int:
        if self._unit:
            return len(word[1])
        return sum(self._weights[i] for i in word[1])

    def concat(self, left: Word, right: Word) -> Optional[Word]:
        """Compose two words; None when heads/tails mismatch."""
        if self.head_of(left) != right[0]:
            return None
        return (left[0], left[1] + right[1])

    def format_word(self, word: Word) -> str:
        tail, ids = word
        if not ids:
            return f"e{tail}"
        return "*".join(self.arrows[i].name for i in ids)


class DoubledPathQuiver(Quiver):
    """Doubled type-A quiver on vertices 1..n with optional vertex loops.

    Vertices carrying no loop are listed in ``loopless``. Composable arrow
    pairs are indexed 1..m left to right: at vertex v first the loop slot
    (absent when v is loopless), then the edge slot between v and v+1.
    Slot i provides the length-2 cycles x_i (based at the left vertex) and
    x_i' (based at the right vertex); a loop slot has x_i = x_i' = the loop
    itself and both vertices equal.

    ``x_power(i, k)`` is the word x_i^k, and ``loop_slot(v)`` the slot of the
    loop at v or None.
    """

    def __init__(self, n: int, loopless: Iterable[int] = ()):
        assert n >= 1
        loopless_set = frozenset(loopless)
        assert loopless_set <= set(range(1, n + 1)), "loopless vertices out of range"
        arrows = []
        slots = []  # (kind, left_vertex, a_index, b_index_or_None)
        for v in range(1, n + 1):
            if v not in loopless_set:
                i = len(slots) + 1
                arrows.append((f"a{i}", v, v, 1))
                slots.append(("loop", v, len(arrows) - 1, None))
            if v < n:
                i = len(slots) + 1
                arrows.append((f"a{i}", v, v + 1, 1))
                arrows.append((f"b{i}", v + 1, v, 1))
                slots.append(("pair", v, len(arrows) - 2, len(arrows) - 1))
        super().__init__(range(1, n + 1), arrows)
        self.n = n
        self.loopless = loopless_set
        self.slots = tuple(slots)
        self.m = len(slots)
        assert self.m == 2 * n - 1 - len(loopless_set)
        # arrow index -> (slot index 1..m, True when it is the 'a' arrow)
        self.slot_of_arrow = {}
        for i, (kind, _v, ai, bi) in enumerate(self.slots, start=1):
            self.slot_of_arrow[ai] = (i, True)
            if bi is not None:
                self.slot_of_arrow[bi] = (i, False)

    # -- slot accessors ----------------------------------------------------

    def is_loop(self, i: int) -> bool:
        return self.slots[i - 1][0] == "loop"

    def left_vertex(self, i: int) -> int:
        return self.slots[i - 1][1]

    def right_vertex(self, i: int) -> int:
        kind, v, _a, _b = self.slots[i - 1]
        return v if kind == "loop" else v + 1

    def a_index(self, i: int) -> int:
        return self.slots[i - 1][2]

    def b_index(self, i: int) -> Optional[int]:
        return self.slots[i - 1][3]

    def x_word(self, i: int) -> Word:
        """x_i as a word: a_i b_i based at the left vertex (the loop itself)."""
        kind, v, ai, bi = self.slots[i - 1]
        if kind == "loop":
            return (v, (ai,))
        return (v, (ai, bi))

    def x_power(self, i: int, k: int) -> Word:
        """x_i^k as a word; k = 0 gives the lazy path at the left vertex."""
        return (self.left_vertex(i), self.x_word(i)[1] * k)

    def loop_slot(self, vertex: int) -> Optional[int]:
        """The slot of the loop at ``vertex``, or None when it is loopless."""
        return next((i for i, (kind, v, _a, _b) in enumerate(self.slots, start=1)
                     if kind == "loop" and v == vertex), None)

    def xprime_word(self, i: int) -> Word:
        """x_i' as a word: b_i a_i based at the right vertex."""
        kind, v, ai, bi = self.slots[i - 1]
        if kind == "loop":
            return (v, (ai,))
        return (v + 1, (bi, ai))

    def x_degrees(self, word: Word) -> Tuple[int, ...]:
        """Occurrence counts of a_1..a_m in a word (the exponent vector)."""
        counts = [0] * self.m
        for arrow in word[1]:
            slot, is_a = self.slot_of_arrow[arrow]
            if is_a:
                counts[slot - 1] += 1
        return tuple(counts)


def double_an(n: int, loopless: Iterable[int] = ()) -> DoubledPathQuiver:
    return DoubledPathQuiver(n, loopless)
