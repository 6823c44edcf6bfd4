"""Exact Gaussian elimination over any field-like scalar type.

Scalars need +, -, *, 1 / x, and bool() as a nonzero test.
Used with Fraction for rational ranks/nullspaces and with CyclotomicNumber
for complex character spans. Pivoting is left-to-right first-nonzero, so all
results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class RowSpace:
    """Incrementally reduced row space; rows are normalized to pivot 1."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list] = {}  # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Sequence) -> list:
        r = list(row)
        assert len(r) == self.width
        for col in sorted(self.pivots):
            if r[col]:
                piv = self.pivots[col]
                c = r[col]
                for j in range(col, self.width):
                    if piv[j]:
                        r[j] = r[j] - c * piv[j]
        return r

    def add(self, row: Sequence) -> bool:
        """Reduce and absorb; True if the rank grew."""
        r = self.reduce(row)
        for col in range(self.width):
            if r[col]:
                inv = 1 / r[col]
                self.pivots[col] = [x * inv for x in r]
                return True
        return False

    def contains(self, row: Sequence) -> bool:
        return not any(self.reduce(row))


def rational_nullspace(rows: Sequence[Sequence[Fraction]], width: Optional[int] = None) -> list[list[Fraction]]:
    """Basis of {v : M v = 0} with M given by rows; deterministic RREF form."""
    if width is None:
        width = len(rows[0]) if rows else 0
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []  # (row, col)
    prow = 0
    for col in range(width):
        sel = None
        for i in range(prow, nrows):
            if m[i][col]:
                sel = i
                break
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        pv = m[prow][col]
        m[prow] = [x / pv for x in m[prow]]
        for i in range(nrows):
            if i != prow and m[i][col]:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for r, c in pivots:
            v[c] = -m[r][free]
        basis.append(v)
    return basis
