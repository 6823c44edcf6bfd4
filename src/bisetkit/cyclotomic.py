"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A CyclotomicNumber stores integer numerators over the power basis
1, z, ..., z^(phi(e)-1) of Q(zeta_e) and one positive common denominator, in
lowest terms. The power basis is an integral basis of Z[zeta_e] and Phi_e is
monic, so Phi_e, the reductions of z^k modulo Phi_e and the power maps are all
int tables: a product is an int convolution, an int reduction and one gcd.
Mixed conductors promote to the least common multiple. A rational value is a
Fraction and never a CyclotomicNumber: every operation whose result is rational
returns a Fraction, and int or Fraction operands fold into the numerators and
the denominator. Division multiplies by the inverse, the product of the other
Galois conjugates over the norm; Phi_e is irreducible, so every
CyclotomicNumber is a unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import PreconditionViolated


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, ascending degree."""
    if e < 1:
        raise PreconditionViolated(f"no cyclotomic polynomial of order {e}")
    # x^e - 1 divided by the product of Phi_d over proper divisors d of e
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _exact_quotient(num, cyclotomic_polynomial(d))
    return tuple(num)


def _exact_quotient(num: list[int], den: tuple[int, ...]) -> list[int]:
    """num / den for a monic den, ascending degree; the division must be exact."""
    num = list(num)
    dn = len(den)
    q = [0] * (len(num) - dn + 1)
    for k in range(len(num) - dn, -1, -1):
        c = q[k] = num[k + dn - 1]
        if c:
            for j in range(dn):
                num[k + j] -= c * den[j]
    if any(num):
        raise PreconditionViolated("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _phi_degree(e: int) -> int:
    return len(cyclotomic_polynomial(e)) - 1


@lru_cache(maxsize=None)
def _power_reductions(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """z^k modulo Phi_e for k = 0 .. 2e - 1, as its nonzero (index, coefficient)
    pairs over the power basis."""
    d = _phi_degree(e)
    phi = cyclotomic_polynomial(e)
    rows = []
    cur = [1] + [0] * (d - 1)
    for _ in range(2 * e):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        # multiply by z; z^d = -(phi[0] + ... + phi[d-1] z^(d-1))
        carry = cur[d - 1]
        cur = [0] + cur[:d - 1]
        if carry:
            for j in range(d):
                cur[j] -= carry * phi[j]
    return tuple(rows)


class CyclotomicNumber:
    """An irrational element (sum_i num[i] zeta_e^i) / den of Q(zeta_e): num
    holds phi(e) ints, some after the first nonzero, den > 0 and
    gcd(den, *num) = 1. Built by root_of_unity and the arithmetic below."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        self.conductor = conductor
        self.num = num
        self.den = den

    @staticmethod
    def root_of_unity(e: int, k: int = 1):
        """zeta_e^k, a Fraction when it is +1 or -1."""
        k %= e
        g = gcd(k, e) if k else e
        e2, k2 = e // g, k // g if k else 0
        return _make(e2, _power_map((0, 1), e2, k2), 1)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates over the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- promotion -------------------------------------------------------

    def promote(self, f: int) -> "CyclotomicNumber":
        e = self.conductor
        if e == f:
            return self
        if f % e:
            raise PreconditionViolated(f"conductor {e} does not divide {f}")
        # Z[zeta_f] meets Q(zeta_e) in Z[zeta_e], so the numerators stay coprime to den
        return CyclotomicNumber(f, _power_map(self.num, f, f // e), self.den)

    def _pair(self, other: "CyclotomicNumber"):
        if self.conductor == other.conductor:
            return self, other
        e = lcm(self.conductor, other.conductor)
        return self.promote(e), other.promote(e)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            da, db = a.den, b.den
            return _make(a.conductor, [x * db + y * da for x, y in zip(a.num, b.num)],
                         da * db)
        if isinstance(other, _RATIONAL):
            m = other.denominator
            num = [c * m for c in self.num]
            num[0] += other.numerator * self.den
            return _make(self.conductor, num, self.den * m)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            da, db = a.den, b.den
            return _make(a.conductor, [x * db - y * da for x, y in zip(a.num, b.num)],
                         da * db)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            e = a.conductor
            return _make(e, _times(e, a.num, b.num), a.den * b.den)
        if isinstance(other, _RATIONAL):
            n = other.numerator
            return _make(self.conductor, [c * n for c in self.num],
                         self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """For x = a / den: 1/x = den * r / N(a), where r is the product of
        sigma_k(a) over the units k != 1 mod e, and N(a) = a * r is an int."""
        e, a = self.conductor, self.num
        r = None
        for k in range(2, e):
            if gcd(k, e) == 1:
                s = _power_map(a, e, k)
                r = s if r is None else _times(e, r, s)
        return _make(e, [c * self.den for c in r], _times(e, a, r)[0])

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            return self * (1 / Fraction(other))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(e-1)."""
        e = self.conductor
        return CyclotomicNumber(e, _power_map(self.num, e, e - 1), self.den)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicNumber):
            a, b = self._pair(other)
            return a.den == b.den and a.num == b.num
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


def _make(e: int, num: list[int], den: int):
    """(sum num[i] zeta_e^i) / den: a Fraction when every numerator after the
    first is zero, else a CyclotomicNumber in lowest terms."""
    if not any(num[1:]):
        return Fraction(num[0], den)
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return CyclotomicNumber(e, tuple(num), den)


def _times(e: int, a, b) -> list[int]:
    """The numerators of (sum a[i] z^i)(sum b[j] z^j) modulo Phi_e."""
    d = len(a)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    red = _power_reductions(e)
    out = conv[:d]
    for k in range(d, 2 * d - 1):
        c = conv[k]
        if c:
            for j, r in red[k]:
                out[j] += c * r
    return out


def hermitian_gram(e: int, rows, weights) -> dict | None:
    """sum_k weights[k] rows[i][k] conj(rows[j][k]) for j >= i, keyed (i, j),
    as int numerators over the power basis of Q(zeta_e); None when some value
    is not an algebraic integer. e must be a multiple of every conductor.

    A value packs into one int, c z^t as c 2^(b t) with b wide enough for
    every sum, so an entry is one int convolution (a sum of int products)
    and one reduction modulo Phi_e."""
    d = _phi_degree(e)
    nums, conjs = [], []
    for row in rows:
        num_row, conj_row = [], []
        for v in row:
            if isinstance(v, CyclotomicNumber):
                num = v.promote(e).num
                conj = _power_map(num, e, e - 1)
                den = v.den
            else:
                num = conj = (v.numerator,) + (0,) * (d - 1)
                den = v.denominator
            if den != 1:
                return None
            num_row.append(num)
            conj_row.append(conj)
        nums.append(num_row)
        conjs.append(conj_row)
    top = max(abs(c) for row in nums for x in row for c in x)
    ctop = max(abs(c) for row in conjs for x in row for c in x)
    b = (sum(weights) * d * top * ctop).bit_length() + 1
    half, mask = 1 << (b - 1), (1 << b) - 1

    def pack(x) -> int:
        return sum(c << (b * t) for t, c in enumerate(x) if c)

    packed = [[pack(x) for x in row] for row in nums]
    cpacked = [[w * pack(x) for x, w in zip(row, weights)] for row in conjs]
    red = _power_reductions(e)
    gram = {}
    for i, a in enumerate(packed):
        for j in range(i, len(packed)):
            n = sum(map(mul, a, cpacked[j]))
            conv = []
            for _ in range(2 * d - 1):
                c = ((n + half) & mask) - half
                conv.append(c)
                n = (n - c) >> b
            out = conv[:d]
            for k in range(d, 2 * d - 1):
                c = conv[k]
                if c:
                    for t, r in red[k]:
                        out[t] += c * r
            gram[i, j] = out
    return gram


def _power_map(num, f: int, k: int) -> tuple[int, ...]:
    """The numerators of sum_i num[i] zeta_f^(i k) over the power basis of
    Q(zeta_f)."""
    red = _power_reductions(f)
    out = [0] * _phi_degree(f)
    for i, c in enumerate(num):
        if c:
            for j, r in red[i * k % f]:
                out[j] += c * r
    return tuple(out)


Cyc = CyclotomicNumber
