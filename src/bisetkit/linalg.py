"""Exact Gaussian elimination over any field-like scalar type.

Scalars need +, -, *, 1 / x, and bool() as a nonzero test.
Used with Fraction for rational ranks and kernels, and with rows mixing
Fractions and CyclotomicNumbers for complex character spans. Pivoting is left-to-right first-nonzero, so all
results are deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionViolated


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
        if len(r) != self.width:
            raise PreconditionViolated(f"row of length {len(r)}, row space of width {self.width}")
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
                # scale only the nonzero entries; a zero stays the row's own object
                self.pivots[col] = [x * inv if x else x for x in r]
                return True
        return False

    def contains(self, row: Sequence) -> bool:
        return not any(self.reduce(row))

    def nullspace(self) -> list[list]:
        """Basis of {v : r . v = 0 for every absorbed row r}, one vector per
        free column: v[free] = 1 and v[pivot] = -RREF[pivot][free]. The RREF
        is unique, so the basis depends only on the row space."""
        rref: dict[int, list] = {}
        for col in sorted(self.pivots, reverse=True):
            r = self.pivots[col]
            for c2, piv in rref.items():
                if r[c2]:
                    c = r[c2]
                    r = [a - c * b for a, b in zip(r, piv)]
            rref[col] = r
        basis = []
        for free in range(self.width):
            if free in rref:
                continue
            v = [0] * self.width
            v[free] = 1
            for col, r in rref.items():
                v[col] = -r[free]
            basis.append(v)
        return basis
