import hashlib
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisetkit
from bisetkit.bisets import (
    all_transitive_classes,
    compose_bisets,
    element_of,
    identity_biset,
    zero_element,
)
from bisetkit import characters
from bisetkit.catalog import entries, group_by_name, groups_up_to
from bisetkit.characters import (
    artin_coefficients,
    biset_character,
    character_table,
    compose_characters,
    cyclic_subgroups,
    expand_artin,
    inner_product,
    lin_kernel,
    perm_character,
    perm_character_members,
    rq_cyclic_basis,
    zero_character,
)
from bisetkit.cyclotomic import Cyc, sort_key
from bisetkit.errors import NonRationalValues, NotAbelian
from bisetkit.groups import (
    FiniteGroup,
    class_index_map,
    closure,
    conjugacy_classes,
    left_cosets,
    make_group,
    product_group,
    subgroup,
    subgroup_classes,
)
from bisetkit.linalg import RowSpace

C1 = make_group("cyclic", 1)
C2 = make_group("cyclic", 2)
C3 = make_group("cyclic", 3)
C4 = make_group("cyclic", 4)
V4 = make_group("klein4")
S3 = make_group("symmetric3")
Q8 = make_group("quaternion8")


def test_perm_character_whole_group_is_trivial():
    pc = perm_character(S3, subgroup(S3, range(6)))
    assert all(v == 1 for v in pc.values)


def test_perm_character_trivial_subgroup_is_regular():
    pc = perm_character(S3, subgroup(S3, [0]))
    assert pc.values[0] == 6
    assert all(not v for v in pc.values[1:])


def test_perm_character_s3_transposition():
    # classes of S3 in canonical order: identity, 3-cycles, transpositions
    classes = conjugacy_classes(S3)
    assert [len(c) for c in classes] == [1, 2, 3]
    pc = perm_character(S3, subgroup(S3, closure(S3, [2])))
    # oracle: count fixed cosets directly
    cosets = left_cosets(S3, closure(S3, [2]))
    cmem = set(closure(S3, [2]))
    expected = []
    for cls in classes:
        x = cls[0]
        expected.append(sum(
            1 for cs in cosets
            if S3.mul(S3.mul(S3.inverse(cs[0]), x), cs[0]) in cmem))
    assert list(pc.values) == expected
    assert expected == [3, 0, 1]


def test_perm_character_values_bounded_by_index():
    for g in (S3, Q8):
        for cls in subgroup_classes(g):
            pc = perm_character(g, cls.representative)
            index = g.order // cls.representative.order
            for v in pc.values:
                assert type(v) is Fraction
                assert v.denominator == 1 and 0 <= v <= index


def test_biset_character_identity_is_diagonal_perm_char():
    x = identity_biset(C2)
    p = product_group(x.g, x.k)
    diag = tuple(sorted(p.encode((a, a)) for a in range(2)))
    assert biset_character(x) == perm_character_members(p, diag)


def test_biset_character_zero():
    assert biset_character(zero_element(C2, C3)).is_zero()


def test_biset_character_matches_coset_count():
    from bisetkit.bisets import biset_class
    p = product_group(C4, C2)
    members = tuple(sorted(p.encode((a, a % 2)) for a in range(4)))
    x = element_of(biset_class(C4, C2, members))
    ch = biset_character(x)
    assert ch == perm_character_members(p, members)


def test_artin_regular_c2():
    reg = perm_character(C2, subgroup(C2, [0]))
    q = artin_coefficients(reg)
    assert q.coeffs == {(0,): Fraction(1)}


def test_artin_trivial_character():
    triv = perm_character(C2, subgroup(C2, [0, 1]))
    q = artin_coefficients(triv)
    assert q.coeffs == {(0, 1): Fraction(1)}


def test_artin_round_trip_indicators():
    for g in (C2, C4, V4, product_group(C4, C2)):
        for c in cyclic_subgroups(g):
            q = artin_coefficients(perm_character_members(g, c))
            assert q.coeffs == {c: Fraction(1)}, (g.label, c)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_artin_expansion_reproduces_rational_characters(data):
    g = data.draw(st.sampled_from([C4, V4, product_group(C2, C4)]))
    cycs = cyclic_subgroups(g)
    coeffs = [data.draw(st.integers(-3, 3)) for _ in cycs]
    tau = zero_character(g)
    for c, a in zip(cycs, coeffs):
        tau = tau + perm_character_members(g, c).scale(a)
    q = artin_coefficients(tau)
    assert expand_artin(q) == tau


def test_artin_rejects_nonabelian_and_irrational():
    with pytest.raises(NotAbelian):
        artin_coefficients(perm_character(S3, subgroup(S3, [0])))
    vals = list(zero_character(C3).values)
    vals[1] = Cyc.root_of_unity(3)
    vals[2] = Cyc.root_of_unity(3, 2)
    from bisetkit.characters import CharacterVector
    with pytest.raises(NonRationalValues):
        artin_coefficients(CharacterVector(C3, tuple(vals)))


def test_coefficient_lemma_paper_instance():
    hk = product_group(C4, C2)
    kh = product_group(C2, C4)
    hh = product_group(C4, C4)
    c = closure(hk, [hk.encode((1, 1))])
    d = closure(kh, [kh.encode((1, 1))])
    tau = compose_characters(perm_character_members(hk, c),
                             perm_character_members(kh, d), C4, C2, C4)
    q = artin_coefficients(tau)
    diag = tuple(sorted(hh.encode((a, a)) for a in range(4)))
    assert q.coefficient(diag) == Fraction(1, 2)


def test_compose_characters_trivial_middle_is_pointwise():
    ph = product_group(C2, C1)
    pk = product_group(C1, C3)
    tm = perm_character_members(ph, (0,))
    tn = perm_character_members(pk, (0,))
    tau = compose_characters(tm, tn, C2, C1, C3)
    p = product_group(C2, C3)
    idx = class_index_map(p)
    for hh in range(2):
        for kk in range(3):
            lhs = tau.values[idx[p.encode((hh, kk))]]
            rhs = tm.value_at_element(ph.encode((hh, 0))) * \
                tn.value_at_element(pk.encode((0, kk)))
            assert lhs == rhs


def test_compose_characters_regular_squared():
    p = product_group(C2, C2)
    reg = perm_character_members(p, (0,))
    tau = compose_characters(reg, reg, C2, C2, C2)
    assert tau == reg.scale(2)


def test_lin_functorial_over_c4_c2_c4():
    for xc in all_transitive_classes(C4, C2):
        for yc in all_transitive_classes(C2, C4):
            x, y = element_of(xc), element_of(yc)
            assert biset_character(compose_bisets(x, y)) == \
                compose_characters(biset_character(x), biset_character(y),
                                   C4, C2, C4)


def test_lin_functorial_exhaustive_small():
    small = [C2, C3, C4, V4]
    for h in small:
        for g in small:
            for k in small:
                xs = all_transitive_classes(h, g)
                ys = all_transitive_classes(g, k)
                for xc in xs[:3]:
                    for yc in ys[:3]:
                        x, y = element_of(xc), element_of(yc)
                        assert biset_character(compose_bisets(x, y)) == \
                            compose_characters(biset_character(x),
                                               biset_character(y), h, g, k)


def test_compose_characters_associative():
    ps = [(C2, C3), (C3, C2), (C2, C2)]
    a = perm_character_members(product_group(C2, C3),
                               tuple(sorted(product_group(C2, C3).encode((x, 0))
                                            for x in range(2))))
    b = perm_character_members(product_group(C3, C2), (0,))
    c = perm_character_members(product_group(C2, C2), (0, 3))
    lhs = compose_characters(compose_characters(a, b, C2, C3, C2), c,
                             C2, C2, C2)
    rhs = compose_characters(a, compose_characters(b, c, C3, C2, C2),
                             C2, C3, C2)
    assert lhs == rhs


def test_character_table_abelian_duality():
    for g in (C2, C3, C4, V4):
        tab = character_table(g)
        assert len(tab) == g.order
        assert all(chi.degree() == 1 for chi in tab)


def test_character_table_degrees():
    assert sorted(int(c.degree()) for c in character_table(S3)) == [1, 1, 2]
    assert sorted(int(c.degree()) for c in character_table(Q8)) == [1, 1, 1, 1, 2]
    a4 = make_group("alternating4")
    assert sorted(int(c.degree()) for c in character_table(a4)) == [1, 1, 1, 3]
    d10 = make_group("dihedral", 10)
    assert sorted(int(c.degree()) for c in character_table(d10)) == [1, 1, 2, 2]


def test_character_table_catalog_invariants():
    # orthogonality and the degree equation are checked inside; run them all
    for g in groups_up_to(15):
        tab = character_table(g)
        assert len(tab) == len(conjugacy_classes(g))


def test_character_table_checks_survive_optimize(tmp_path):
    # python -O strips assert statements; the exit checks must not be ones.
    # With every induced character zero, the peel finds only the two linear
    # characters of a fresh copy of S3, one short of its three classes.
    code = textwrap.dedent("""
        import bisetkit.characters as ch
        from bisetkit.errors import CharacterTableError
        from bisetkit.groups import FiniteGroup, make_group
        s3 = FiniteGroup("S3copy", make_group("symmetric3").table)
        ch.induced_character = lambda g, s, lam: ch.zero_character(g)
        try:
            ch.character_table(s3)
        except CharacterTableError:
            raise SystemExit(0)
        raise SystemExit("no CharacterTableError under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_character_table_integrality_survives_optimize(tmp_path):
    # orthogonality is checked in int numerators, so a value with a
    # denominator is not an algebraic integer and fails, under -O too; a
    # fresh copy of C3 has three linear characters and no induction
    code = textwrap.dedent("""
        from fractions import Fraction
        import bisetkit.characters as ch
        from bisetkit.errors import CharacterTableError
        from bisetkit.groups import FiniteGroup, make_group
        c3 = FiniteGroup("C3copy", make_group("cyclic", 3).table)
        real = ch.linear_characters
        ch.linear_characters = lambda g: [chi.scale(Fraction(1, 2)) if i == 1 else chi
                                          for i, chi in enumerate(real(g))]
        try:
            ch.character_table(c3)
        except CharacterTableError as err:
            raise SystemExit(0 if "algebraic integer" in str(err) else str(err))
        raise SystemExit("no CharacterTableError under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_character_checks_survive_optimize(tmp_path):
    # each precondition of the class-function arithmetic raises a typed error
    # under python -O, where an assert would be stripped
    code = textwrap.dedent("""
        from fractions import Fraction
        import bisetkit.characters as ch
        from bisetkit.errors import FactorMismatch, NotSubgroup, PreconditionViolated
        from bisetkit.groups import closure, make_group, subgroup
        c2, c3 = make_group("cyclic", 2), make_group("cyclic", 3)
        s3 = make_group("symmetric3")
        a, b = ch.zero_character(c2), ch.zero_character(c3)
        s = subgroup(s3, closure(s3, [1]))
        cases = [
            (PreconditionViolated, lambda: ch.CharacterVector(c3, (Fraction(1),))),
            (PreconditionViolated, lambda: ch.induced_character(s3, s, b)),
            (FactorMismatch, lambda: a + b),
            (FactorMismatch, lambda: a - b),
            (FactorMismatch, lambda: ch.inner_product(a, b)),
            (NotSubgroup, lambda: ch.perm_character(c3, subgroup(s3, [0]))),
        ]
        for i, (err, fn) in enumerate(cases):
            try:
                fn()
            except err:
                continue
            raise SystemExit(f"case {i}: no {err.__name__} under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# sha256 of the sort_key coordinates of every catalog group's character table,
# in catalog and table order, taken before rationals left Cyc
CATALOG_TABLES_SHA256 = "2663303cf9e077d88a51c11f26b1469f464d111355c7ddd49f601f5c322c10f2"


def test_catalog_character_tables_golden():
    doc = []
    for entry in entries():
        g = entry.build()
        doc.append([entry.name, [[[str(c) for c in sort_key(v, g.exponent)]
                                  for v in chi.values] for chi in character_table(g)]])
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == CATALOG_TABLES_SHA256


def test_product_table_is_tensor_of_factor_tables():
    # a product's table is tensored from its factors' tables; a copy of the
    # product with no factors gets its table from the peel instead
    for names in (("C5", "C7"), ("S3", "C3"), ("Q8", "C2")):
        p = product_group(*map(group_by_name, names))
        copy = FiniteGroup("copy", p.table)
        got, peeled = ([tuple(sort_key(v, p.exponent) for v in chi.values) for chi in tab]
                       for tab in (character_table(p), character_table(copy)))
        assert got == peeled, names


def test_product_table_induces_nothing(monkeypatch):
    # fresh factors give a fresh product whose table is not memoized yet
    s3, c3 = (FiniteGroup(f"{n}t", group_by_name(n).table) for n in ("S3", "C3"))
    character_table(s3), character_table(c3)
    calls = []
    real = characters.induced_character
    monkeypatch.setattr(characters, "induced_character",
                        lambda *args: calls.append(args) or real(*args))
    assert len(character_table(product_group(s3, c3))) == 9
    assert calls == []


def test_a4_has_cube_root_values():
    a4 = make_group("alternating4")
    tab = character_table(a4)
    omega = Cyc.root_of_unity(3)
    linear_irrational = [chi for chi in tab
                         if chi.degree() == 1 and not chi.is_rational()]
    assert len(linear_irrational) == 2
    vals = {str(sort_key(v, 3)) for chi in linear_irrational
            for v in chi.values}
    assert str(omega.coords) in vals


def test_inner_product_orthonormality_s3():
    tab = character_table(S3)
    for i, a in enumerate(tab):
        for j, b in enumerate(tab):
            assert inner_product(a, b) == (Fraction(1) if i == j else Fraction(0))


def test_lin_kernel_dimensions():
    assert lin_kernel(C1) == []
    for g in (C2, C3, C4):
        assert lin_kernel(g) == []
    basis = lin_kernel(V4)
    assert len(basis) == 1
    # the kernel vector really kills the character matrix
    classes = subgroup_classes(V4)
    vec = basis[0]
    total = zero_character(V4)
    for c, cls in zip(vec, classes):
        total = total + perm_character(V4, cls.representative).scale(c)
    assert total.is_zero()


def test_lin_kernel_is_the_kernel_on_every_catalog_group():
    # rank oracle: by Artin's induction theorem the permutation characters
    # span a space of dimension #classes of cyclic subgroups
    for g in groups_up_to(15):
        classes = subgroup_classes(g)
        rows = [perm_character(g, cls.representative) for cls in classes]
        cyclic = sum(1 for cls in classes
                     if any(g.element_order(x) == cls.representative.order
                            for x in cls.representative.members))
        basis = lin_kernel(g)
        assert len(basis) == len(classes) - cyclic, g.label
        for vec in basis:
            total = zero_character(g)
            for c, row in zip(vec, rows):
                total = total + row.scale(c)
            assert total.is_zero(), g.label
        independent = RowSpace(len(classes))
        assert all(independent.add(vec) for vec in basis), g.label


def test_rq_cyclic_basis_counts():
    assert len(rq_cyclic_basis(C1)) == 1
    assert len(rq_cyclic_basis(S3)) == 3
    p = product_group(C4, C4)
    # oracle: enumerate distinct cyclic subgroups directly
    distinct = {closure(p, [a]) for a in range(16)}
    assert len(distinct) == 10
    assert len(rq_cyclic_basis(p)) == 10
