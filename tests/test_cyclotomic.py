import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bisetkit
from bisetkit.cyclotomic import Cyc, cyclotomic_polynomial, sort_key


def _f(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == _f(-1, 1)
    assert cyclotomic_polynomial(2) == _f(1, 1)
    assert cyclotomic_polynomial(3) == _f(1, 1, 1)
    assert cyclotomic_polynomial(4) == _f(1, 0, 1)
    assert cyclotomic_polynomial(6) == _f(1, -1, 1)
    assert cyclotomic_polynomial(12) == _f(1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(15) == _f(1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_root_sums_vanish():
    for e in (2, 3, 4, 5, 6, 7, 12):
        s = Fraction(0)
        for k in range(e):
            s = s + Cyc.root_of_unity(e, k)
        assert not s


def test_root_order():
    for e in (1, 2, 3, 8, 9):
        z = Cyc.root_of_unity(e)
        p = Fraction(1)
        for _ in range(e):
            p = p * z
        assert p == 1
        if e > 1:
            assert z != 1


def test_conjugation_gives_norm_one():
    for e in (3, 4, 5, 7):
        z = Cyc.root_of_unity(e)
        assert z.conjugate() * z == 1


def test_conductor_promotion_equality():
    # zeta_6 = -zeta_3^2 lives in conductor 3 and conductor 6 coordinates
    z6 = Cyc.root_of_unity(6)
    z3 = Cyc.root_of_unity(3)
    assert z6 == -(z3 * z3)
    assert Cyc.root_of_unity(4, 2) == Fraction(-1)


def test_rationality_detection():
    z5 = Cyc.root_of_unity(5)
    s = sum((Cyc.root_of_unity(5, k) for k in range(1, 5)), Fraction(0))
    assert type(s) is Fraction and s == -1
    assert type(z5) is Cyc and z5 != -1


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cyclotomic_numbers(draw):
    e = draw(conductors)
    q = draw(small_rationals)
    k = draw(st.integers(min_value=0, max_value=11))
    return q + Cyc.root_of_unity(e, k % e)


@given(a=cyclotomic_numbers(), b=cyclotomic_numbers(), c=cyclotomic_numbers())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(a=cyclotomic_numbers())
@settings(max_examples=60, deadline=None)
def test_inverse(a):
    if a:
        assert a * (1 / a) == 1
        assert a / a == Fraction(1)
    else:
        with pytest.raises(ZeroDivisionError):
            1 / a


@given(a=cyclotomic_numbers(), b=cyclotomic_numbers())
@settings(max_examples=40, deadline=None)
def test_conjugation_is_ring_hom(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def _irrational_or_fraction(x):
    """The invariant: rational values are Fractions, and a Cyc has a nonzero
    coordinate after the first."""
    if type(x) is Fraction:
        return True
    return type(x) is Cyc and any(x.coords[1:])


mixed_operands = st.one_of(small_rationals, cyclotomic_numbers(),
                           st.builds(lambda e, k: Cyc.root_of_unity(e, k % e),
                                     st.integers(min_value=1, max_value=12),
                                     st.integers(min_value=0, max_value=11)))


@given(a=mixed_operands, b=mixed_operands, f=st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_rational_results_are_fractions(a, b, f):
    results = [a + b, a - b, a * b, -a, a.conjugate()]
    if b:
        results.append(a / b)
        assert (a / b) * b == a
    assert all(_irrational_or_fraction(x) for x in results)
    assert (a + b) - b == a
    assert a * b == b * a and a + b == b + a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    for x in (a, b):
        if type(x) is Cyc:
            e = x.conductor * f
            y = x.promote(e)
            assert type(y) is Cyc and y.conductor == e
            assert y == x and x == y and y != x + 1
            assert sort_key(x, e) == y.coords
        else:
            assert x == Fraction(x)
            assert sort_key(x, f)[0] == x and not any(sort_key(x, f)[1:])


def test_cyc_is_never_rational():
    z3 = Cyc.root_of_unity(3)
    assert z3 + z3 * z3 == -1 and type(z3 + z3 * z3) is Fraction
    assert type(z3 * z3.conjugate()) is Fraction
    assert type(z3 * 0) is Fraction and z3 * 0 == 0
    assert bool(z3) and z3 != 0 and z3 != Fraction(1, 2)
    assert Cyc.root_of_unity(2) == -1 and type(Cyc.root_of_unity(6, 3)) is Fraction
    with pytest.raises(ZeroDivisionError):
        z3 / 0


# -- differential check against schoolbook Fraction polynomials mod Phi_e ----

def _ref_reduce(poly, e):
    """poly (ascending coefficients) modulo Phi_e by long division, phi(e) coordinates."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            for j in range(d + 1):
                p[k - d + j] -= c * phi[j]
    return tuple(p[:d])


def _ref_mul(a, b, e):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(conv, e)


def _ref_subst(a, f, k):
    """sum a[i] z^(i k) modulo Phi_f."""
    poly = [Fraction(0)] * ((len(a) - 1) * k + 1)
    for i, c in enumerate(a):
        poly[i * k] += c
    return _ref_reduce(poly, f)


def _assert_canonical(x):
    """A Fraction, or a Cyc with phi(e) int numerators over a positive
    denominator in lowest terms, Fraction coords and an irrational coordinate."""
    if type(x) is Fraction:
        return
    assert type(x) is Cyc
    assert len(x.num) == len(cyclotomic_polynomial(x.conductor)) - 1
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert all(type(c) is Fraction for c in x.coords) and any(x.coords[1:])


wide_conductors = st.sampled_from([3, 4, 5, 6, 8, 9, 12, 15, 20, 24])
coordinates = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def general_elements(draw):
    """(e, coordinates, the Cyc with those coordinates), built by arithmetic."""
    e = draw(wide_conductors)
    v = tuple(draw(st.lists(coordinates, min_size=len(cyclotomic_polynomial(e)) - 1,
                            max_size=len(cyclotomic_polynomial(e)) - 1)))
    assume(any(v[1:]))
    x = sum((c * Cyc.root_of_unity(e, i) for i, c in enumerate(v) if c), Fraction(0))
    return e, v, x


@given(a=general_elements(), b=general_elements())
@settings(max_examples=80, deadline=None)
def test_cyc_matches_schoolbook_polynomials(a, b):
    (e, u, x), (f, v, y) = a, b
    # x may come out in a smaller conductor (zeta_12^3 = zeta_4); read it in e
    assert sort_key(x, e) == u and sort_key(y, f) == v
    m = lcm(e, f)
    pu, pv = _ref_subst(u, m, m // e), _ref_subst(v, m, m // f)
    cases = [(x + y, m, tuple(s + t for s, t in zip(pu, pv))),
             (x - y, m, tuple(s - t for s, t in zip(pu, pv))),
             (x * y, m, _ref_mul(pu, pv, m)),
             (x.promote(m), m, pu),
             (x.conjugate(), e, _ref_subst(u, e, e - 1))]
    for got, k, want in cases:
        _assert_canonical(got)
        assert sort_key(got, k) == want
    # the inverse is the element whose schoolbook product with x is 1
    inv = x.inverse()
    _assert_canonical(inv)
    assert _ref_mul(u, sort_key(inv, e), e) == (Fraction(1),) + (Fraction(0),) * (len(u) - 1)
    assert x * inv == 1 and type(x * inv) is Fraction


def test_cyclotomic_checks_survive_optimize(tmp_path):
    # the preconditions of promote, sort_key and cyclotomic_polynomial raise
    # typed errors under python -O, where an assert would be stripped
    code = textwrap.dedent("""
        import bisetkit.cyclotomic as cy
        from bisetkit.errors import PreconditionViolated
        z3 = cy.Cyc.root_of_unity(3)
        cases = [lambda: z3.promote(4), lambda: cy.sort_key(z3, 5),
                 lambda: cy.cyclotomic_polynomial(0),
                 lambda: cy._exact_quotient([1, 0, 1], (1, 1))]  # x^2 + 1 = (x + 1)(x - 1) + 2
        for i, fn in enumerate(cases):
            try:
                fn()
            except PreconditionViolated:
                continue
            raise SystemExit(f"case {i}: no PreconditionViolated under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
