"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A CyclotomicNumber stores rational coordinates over the power basis
1, z, ..., z^(phi(e)-1) of Q(zeta_e), reduced modulo the e-th cyclotomic
polynomial. Mixed conductors promote to the least common multiple. Rationals
embed with conductor 1. Division inverts modulo the cyclotomic polynomial,
which is irreducible, so every nonzero element is a unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_e, ascending degree."""
    assert e >= 1
    # x^e - 1 divided by the product of Phi_d over proper divisors d of e
    num = [Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
    for d in range(1, e):
        if e % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not any(rem), "inexact polynomial division"
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_degree(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _power_reductions(e: int) -> tuple[tuple[Fraction, ...], ...]:
    """z^k over the power basis for k = 0 .. 2e: row k has phi(e) entries."""
    d = _phi_degree(e)
    phi = cyclotomic_polynomial(e)
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * d
    cur[0] = Fraction(1)
    for k in range(2 * e + 1):
        rows.append(tuple(cur))
        # multiply by z
        carry = cur[d - 1]
        nxt = [Fraction(0)] + cur[:d - 1]
        if carry:
            for j in range(d):
                nxt[j] -= carry * phi[j]
        cur = nxt
    return tuple(rows)


class CyclotomicNumber:
    """An element of Q(zeta_e) with exact rational power-basis coordinates.

    ``CyclotomicNumber()`` is zero, as ``Fraction()`` is."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int = 1, coords=(0,)):
        self.conductor = conductor
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == _phi_degree(conductor)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(q),))

    @staticmethod
    def zero() -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(0),))

    @staticmethod
    def one() -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(1),))

    @staticmethod
    def root_of_unity(e: int, k: int = 1) -> "CyclotomicNumber":
        """zeta_e^k."""
        k %= e
        g = gcd(k, e) if k else e
        e2, k2 = e // g, k // g if k else 0
        red = _power_reductions(e2)
        return CyclotomicNumber(e2, red[k2])

    # -- promotion -------------------------------------------------------

    def promote(self, f: int) -> "CyclotomicNumber":
        e = self.conductor
        if e == f:
            return self
        assert f % e == 0
        return _power_map(self.coords, f, f // e)

    def _pair(self, other: "CyclotomicNumber"):
        e = _lcm(self.conductor, other.conductor)
        return self.promote(e), other.promote(e)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.conductor == other.conductor:
            return CyclotomicNumber(self.conductor,
                                    tuple(a + b for a, b in zip(self.coords, other.coords)))
        a, b = self._pair(other)
        return a + b

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other.conductor == 1:
            q = other.coords[0]
            return CyclotomicNumber(self.conductor, tuple(c * q for c in self.coords))
        if self.conductor == 1:
            q = self.coords[0]
            return CyclotomicNumber(other.conductor, tuple(c * q for c in other.coords))
        a, b = self._pair(other)
        e = a.conductor
        d = _phi_degree(e)
        conv = [Fraction(0)] * (2 * d - 1)
        ac, bc = a.coords, b.coords
        for i, ci in enumerate(ac):
            if ci:
                for j, cj in enumerate(bc):
                    if cj:
                        conv[i + j] += ci * cj
        return _reduce(e, conv)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        e = self.conductor
        if e == 1:
            return CyclotomicNumber(1, (1 / self.coords[0],))
        # extended gcd of self (as a polynomial) with Phi_e
        a = list(self.coords)
        b = list(cyclotomic_polynomial(e))
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while True:
            while a and not a[-1]:
                a.pop()
            if len(a) == 1:
                inv_c = 1 / a[0]
                return _reduce(e, [c * inv_c for c in s0])
            q, r = _poly_divmod(b, a)
            # s_next = s1 - q*s0
            qs0 = _poly_mul(q, s0)
            s_next = _poly_sub(s1, qs0)
            b, a = a, r
            s1, s0 = s0, s_next

    def __truediv__(self, other):
        other = _coerce(other)
        if other.conductor == 1:
            q = other.coords[0]
            if not q:
                raise ZeroDivisionError
            return CyclotomicNumber(self.conductor, tuple(c / q for c in self.coords))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(e-1)."""
        e = self.conductor
        if e <= 2:
            return self
        return _power_map(self.coords, e, e - 1)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CyclotomicNumber, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if self.conductor == other.conductor:
            return self.coords == other.coords
        a, b = self._pair(other)
        return a.coords == b.coords

    __hash__ = None  # conductor is not canonical; compare via ==

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    def sort_key(self, e: int):
        return self.promote(e).coords

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({self.coords[0]})"
        return f"Cyc(e={self.conductor}, {[str(c) for c in self.coords]})"


def _coerce(x) -> CyclotomicNumber:
    if isinstance(x, CyclotomicNumber):
        return x
    return CyclotomicNumber.from_rational(x)


def _power_map(coords, f: int, k: int) -> CyclotomicNumber:
    """sum_i coords[i] zeta_f^(i k) over the power basis of Q(zeta_f)."""
    red = _power_reductions(f)
    d = _phi_degree(f)
    out = [Fraction(0)] * d
    for i, c in enumerate(coords):
        if c:
            row = red[i * k % f]
            for j in range(d):
                if row[j]:
                    out[j] += c * row[j]
    return CyclotomicNumber(f, out)


def _reduce(e: int, poly: list[Fraction]) -> CyclotomicNumber:
    """sum_k poly[k] z^k reduced modulo Phi_e; needs len(poly) <= 2e + 1."""
    red = _power_reductions(e)
    d = _phi_degree(e)
    out = poly[:d] + [Fraction(0)] * (d - len(poly))
    for k in range(d, len(poly)):
        ck = poly[k]
        if ck:
            row = red[k]
            for j in range(d):
                if row[j]:
                    out[j] += ck * row[j]
    return CyclotomicNumber(e, out)


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Quotient and remainder of polynomial long division, ascending degree."""
    num = list(num)
    dn = len(den)
    q = [Fraction(0)] * max(len(num) - dn + 1, 1)
    for k in range(len(num) - dn, -1, -1):
        c = num[k + dn - 1] / den[-1]
        q[k] = c
        if c:
            for j in range(dn):
                num[k + j] -= c * den[j]
    r = num[:dn - 1]
    while r and not r[-1]:
        r.pop()
    if not r:
        r = [Fraction(0)]
    return q, r


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


Cyc = CyclotomicNumber
