"""Exact Gaussian elimination over sparse rows.

A row is a map {column: value} over range(width), or a dense sequence of
length ``width`` read as the map of its nonzero entries. Values are ints,
Fractions or CyclotomicNumbers, with bool() as the nonzero test. Pivot rows
keep their nonzero entries only, scaled by Fraction(1) / lead to 1 at their
first column (leftmost nonzero pivoting), so int rows give Fraction pivots.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import Sequence

from .errors import PreconditionViolated


class RowSpace:
    """Incrementally reduced row space; rows are normalized to pivot 1."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, dict] = {}  # pivot column -> reduced row {column: nonzero}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict | Sequence) -> dict:
        """The row minus its combination of pivot rows, as {column: nonzero}."""
        if isinstance(row, dict):
            if row and not (0 <= min(row) and max(row) < self.width):
                raise PreconditionViolated(f"row columns outside range({self.width})")
            r = {c: x for c, x in row.items() if x}
        elif len(row) != self.width:
            raise PreconditionViolated(f"row of length {len(row)}, row space of width {self.width}")
        else:
            r = {c: x for c, x in enumerate(row) if x}
        pivots = self.pivots
        todo = sorted(c for c in r if c in pivots)  # a sorted list is a heap
        while todo:
            col = heappop(todo)
            c = r.get(col)
            if c is None:  # cancelled, or pushed twice
                continue
            # the pivot row holds 1 at col and nothing left of it
            for j, p in pivots[col].items():
                x = r.get(j)
                if x is None:
                    r[j] = -c * p
                    if j in pivots:
                        heappush(todo, j)
                else:
                    r[j] = x = x - c * p
                    if not x:
                        del r[j]
        return r

    def add(self, row: dict | Sequence) -> bool:
        """Reduce and absorb; True if the rank grew."""
        r = self.reduce(row)
        if not r:
            return False
        col = min(r)
        inv = Fraction(1) / r[col]
        self.pivots[col] = {j: x * inv for j, x in r.items()}
        return True

    def contains(self, row: dict | Sequence) -> bool:
        return not self.reduce(row)

    def nullspace(self) -> list[list]:
        """Basis of {v : r . v = 0 for every absorbed row r}, one vector per
        free column: v[free] = 1 and v[pivot] = -RREF[pivot][free]. The RREF
        is unique, so the basis depends only on the row space."""
        # right to left: each row meets only the pivots right of its own
        rref = RowSpace(self.width)
        for col in sorted(self.pivots, reverse=True):
            rref.add(self.pivots[col])
        basis = []
        for free in range(self.width):
            if free not in rref.pivots:
                v = [0] * self.width
                v[free] = 1
                for col, r in rref.pivots.items():
                    v[col] = -r.get(free, 0)
                basis.append(v)
        return basis
