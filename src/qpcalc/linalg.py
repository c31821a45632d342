"""Sparse exact linear algebra over the rationals.

Vectors are dicts keyed by arbitrary comparable hashables. RowSpace keeps
an echelonized spanning set; ranks and membership tests are exact.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from .field import QQ, ZERO


class RowSpace:
    """Incremental echelon form; insert returns True when the vector was new."""

    def __init__(self):
        self.rows: Dict[Hashable, Dict[Hashable, QQ]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Dict[Hashable, QQ]) -> Dict[Hashable, QQ]:
        vec = {k: v for k, v in vec.items() if v != 0}
        while vec:
            pivot = max(vec)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            factor = vec[pivot]
            for k, v in row.items():
                acc = vec.get(k, ZERO) - factor * v
                if acc == 0:
                    vec.pop(k, None)
                else:
                    vec[k] = acc
        return vec

    def insert(self, vec: Dict[Hashable, QQ]) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = max(vec)
        inv = 1 / vec[pivot]
        self.rows[pivot] = {k: v * inv for k, v in vec.items()}
        return True

    def contains(self, vec: Dict[Hashable, QQ]) -> bool:
        return not self.reduce(vec)


def rank_of(vectors) -> int:
    space = RowSpace()
    for v in vectors:
        space.insert(dict(v))
    return space.rank


def det_dense(matrix: List[List[QQ]]) -> QQ:
    """Exact determinant by fraction-friendly Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return QQ(1)
    m = [[QQ(x) for x in row] for row in matrix]
    det = QQ(1)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det
