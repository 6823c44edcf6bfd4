"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A CyclotomicNumber stores rational coordinates over the power basis
1, z, ..., z^(phi(e)-1) of Q(zeta_e), reduced modulo the e-th cyclotomic
polynomial. Mixed conductors promote to the least common multiple. A rational
value is a Fraction and never a CyclotomicNumber: every operation whose result
is rational returns a Fraction, and int or Fraction operands enter the
coordinates as they are. Division inverts modulo the cyclotomic polynomial,
which is irreducible, so every CyclotomicNumber is a unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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
    """An irrational element of Q(zeta_e) with exact rational power-basis
    coordinates; some coordinate after the first is nonzero."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords):
        self.conductor = conductor
        self.coords = tuple(coords)
        assert len(self.coords) == _phi_degree(conductor)

    @staticmethod
    def root_of_unity(e: int, k: int = 1):
        """zeta_e^k, a Fraction when it is +1 or -1."""
        k %= e
        g = gcd(k, e) if k else e
        e2, k2 = e // g, k // g if k else 0
        return _make(e2, _power_reductions(e2)[k2])

    # -- promotion -------------------------------------------------------

    def promote(self, f: int) -> "CyclotomicNumber":
        e = self.conductor
        if e == f:
            return self
        assert f % e == 0
        return _power_map(self.coords, f, f // e)

    def _pair(self, other: "CyclotomicNumber"):
        e = lcm(self.conductor, other.conductor)
        return self.promote(e), other.promote(e)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            return _make(a.conductor, [x + y for x, y in zip(a.coords, b.coords)])
        if isinstance(other, _RATIONAL):
            return CyclotomicNumber(self.conductor,
                                    (self.coords[0] + other,) + self.coords[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            if not other:
                return Fraction(0)
            return CyclotomicNumber(self.conductor, tuple(c * other for c in self.coords))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
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
        e = self.conductor
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
        if isinstance(other, _RATIONAL):
            return CyclotomicNumber(self.conductor, tuple(c / other for c in self.coords))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(e-1)."""
        e = self.conductor
        return _power_map(self.coords, e, e - 1)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            return a.coords == b.coords
        if isinstance(other, _RATIONAL):
            return False
        return NotImplemented

    __hash__ = None  # conductor is not canonical; compare via ==

    def __repr__(self) -> str:
        return f"Cyc(e={self.conductor}, {[str(c) for c in self.coords]})"


_RATIONAL = (int, Fraction)


def sort_key(v, e: int) -> tuple:
    """Coordinates of a Fraction or a CyclotomicNumber over the power basis
    of Q(zeta_e); e must be a multiple of its conductor."""
    if isinstance(v, CyclotomicNumber):
        return v.promote(e).coords
    return (v,) + (Fraction(0),) * (_phi_degree(e) - 1)


def _make(e: int, coords):
    """sum coords[i] zeta_e^i over the power basis: coords[0] when every
    other coordinate is zero, else a CyclotomicNumber."""
    if any(coords[1:]):
        return CyclotomicNumber(e, coords)
    return coords[0]


def _power_map(coords, f: int, k: int):
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
    return _make(f, out)


def _reduce(e: int, poly: list[Fraction]):
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
    return _make(e, out)


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
