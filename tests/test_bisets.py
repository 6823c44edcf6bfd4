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
    biset_class,
    bouc_decompose,
    compose_bisets,
    compose_oracle,
    element_of,
    elementary_biset,
    external_product,
    goursat_data,
    hat_right,
    identity_biset,
    opposite,
    recompose,
    zero_element,
)
from bisetkit.catalog import groups_up_to
from bisetkit.errors import InterfaceMismatch, MiddleMismatch, NotNormal
from bisetkit.groups import (
    automorphisms,
    closure,
    make_group,
    product_group,
    sub_as_group,
    subgroup,
)

C1 = make_group("cyclic", 1)
C2 = make_group("cyclic", 2)
C3 = make_group("cyclic", 3)
C4 = make_group("cyclic", 4)
V4 = make_group("klein4")
S3 = make_group("symmetric3")


def test_goursat_diagonal():
    p = product_group(S3, S3)
    diag = tuple(sorted(p.encode((a, a)) for a in range(6)))
    gd = goursat_data(S3, S3, diag)
    assert gd.d.members == tuple(range(6))
    assert gd.b.members == tuple(range(6))
    assert gd.c.members == (0,)
    assert gd.a.members == (0,)
    assert gd.f.images == tuple(range(6))


def test_goursat_one_cross_g():
    p = product_group(C1, S3)
    members = tuple(range(6))  # 1 x S3
    gd = goursat_data(C1, S3, members)
    assert gd.d.members == (0,)
    assert gd.c.members == (0,)
    assert gd.b.members == tuple(range(6))
    assert gd.a.members == tuple(range(6))


def test_goursat_twisted_diagonal_inversion():
    p = product_group(C4, C4)
    sigma = {0: 0, 1: 3, 2: 2, 3: 1}  # inversion
    members = tuple(sorted(p.encode((a, sigma[a])) for a in range(4)))
    gd = goursat_data(C4, C4, members)
    assert gd.d.members == tuple(range(4))
    assert gd.b.members == tuple(range(4))
    # f is the inversion automorphism of C4 transported to the quotients
    assert gd.f.images == (0, 3, 2, 1)


def test_res_then_ind_is_double_point():
    triv = subgroup(C2, [0])
    res = elementary_biset("res", sub=triv)
    ind = elementary_biset("ind", sub=triv)
    r = compose_bisets(element_of(res), element_of(ind))
    assert list(r.coeffs.values()) == [Fraction(2)]
    assert list(r.coeffs.keys()) == [(0,)]


def test_ind_then_res_is_free_class():
    triv = subgroup(C2, [0])
    res = elementary_biset("res", sub=triv)
    ind = elementary_biset("ind", sub=triv)
    r = compose_bisets(element_of(ind), element_of(res))
    assert r.coeffs == {(0,): Fraction(1)}
    assert r.g is C2 and r.k is C2


def test_full_compose_full():
    # (HxG)/1 o (GxK)/1 = |G| (HxK)/1
    x = biset_class(C2, C4, [0])
    y = biset_class(C4, C3, [0])
    r = compose_bisets(element_of(x), element_of(y))
    assert r.coeffs == {(0,): Fraction(4)}


def test_identity_laws_exhaustive_small():
    for g in (C2, C4, S3):
        iden = identity_biset(g)
        for cls in all_transitive_classes(g, g):
            e = element_of(cls)
            assert compose_bisets(iden, e) == e
            assert compose_bisets(e, iden) == e


def test_identity_idempotent():
    for g in (C1, C2, S3):
        iden = identity_biset(g)
        assert compose_bisets(iden, iden) == iden


def test_subgroup_checks_survive_optimize(tmp_path):
    # python -O strips assert statements; the subgroup checks must not be ones
    code = textwrap.dedent("""
        from bisetkit.bisets import biset_class
        from bisetkit.dress import triple_subgroup
        from bisetkit.errors import NotSubgroup
        from bisetkit.groups import make_group
        c2 = make_group("cyclic", 2)
        for check in (lambda: biset_class(c2, c2, [0, 1, 2]),
                      lambda: triple_subgroup(c2, c2, c2, [0, 1, 2])):
            try:
                check()
            except NotSubgroup:
                continue
            raise SystemExit("no NotSubgroup under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_middle_mismatch():
    x = element_of(biset_class(C2, C4, [0]))
    y = element_of(biset_class(C3, C2, [0]))
    with pytest.raises(MiddleMismatch):
        compose_bisets(x, y)


def test_inf_then_def_is_identity_of_quotient():
    n = subgroup(C4, [0, 2])
    inf = elementary_biset("inf", parent=C4, sub=n)
    de = elementary_biset("def", parent=C4, sub=n)
    q = inf.k  # the quotient group object
    r = compose_bisets(element_of(de), element_of(inf))
    assert r == identity_biset(q)


def test_inf_rejects_non_normal():
    refl = subgroup(S3, closure(S3, [2]))
    with pytest.raises(NotNormal):
        elementary_biset("inf", parent=S3, sub=refl)


def test_iso_of_identity_is_identity():
    from bisetkit.groups import identity_hom
    cls = elementary_biset("iso", iso=identity_hom(C4))
    assert element_of(cls) == identity_biset(C4)


def test_res_ind_mackey_expansion_matches_oracle():
    s = subgroup(S3, closure(S3, [2]))
    res = elementary_biset("res", sub=s)
    ind = elementary_biset("ind", sub=s)
    assert compose_bisets(element_of(res), element_of(ind)) == \
        compose_oracle(res, ind)


def test_oracle_equivalence_sample():
    for h, g, k in [(C2, C2, C2), (C3, C2, V4), (S3, C3, C2), (C4, V4, C3)]:
        for xc in all_transitive_classes(h, g):
            for yc in all_transitive_classes(g, k):
                assert compose_bisets(element_of(xc), element_of(yc)) == \
                    compose_oracle(xc, yc)


def test_associativity_sample():
    hs = [C2, C3]
    for h in hs:
        for g in hs:
            for k in hs:
                for l in [C2]:
                    for a in all_transitive_classes(h, g):
                        for b in all_transitive_classes(g, k):
                            for c in all_transitive_classes(k, l):
                                ab = compose_bisets(element_of(a), element_of(b))
                                bc = compose_bisets(element_of(b), element_of(c))
                                lhs = compose_bisets(ab, element_of(c))
                                rhs = compose_bisets(element_of(a), bc)
                                assert lhs == rhs


@given(c1=st.integers(-4, 4), c2=st.integers(-4, 4), c3=st.integers(-4, 4))
@settings(max_examples=20, deadline=None)
def test_bilinearity(c1, c2, c3):
    classes = all_transitive_classes(C2, C2)
    x = element_of(classes[0]).scale(c1) + element_of(classes[1]).scale(c2)
    y = element_of(classes[2 % len(classes)]).scale(c3)
    lhs = compose_bisets(x, y)
    rhs = compose_bisets(element_of(classes[0]), y).scale(c1) + \
        compose_bisets(element_of(classes[1]), y).scale(c2)
    assert lhs == rhs


def test_products_of_transitive_classes_have_nonneg_integer_coeffs():
    for h, g, k in [(S3, S3, C2), (V4, C4, V4)]:
        for xc in all_transitive_classes(h, g):
            for yc in all_transitive_classes(g, k):
                r = compose_bisets(element_of(xc), element_of(yc))
                for v in r.coeffs.values():
                    assert v.denominator == 1 and v >= 0


def test_bouc_identity_class():
    (rep,) = identity_biset(S3).coeffs
    cls = biset_class(S3, S3, rep)
    word = bouc_decompose(cls)
    gd = goursat_data(S3, S3, cls.members)
    assert gd.c.members == (0,) and gd.a.members == (0,)
    assert recompose(word) == element_of(cls)


def test_bouc_deflation_case():
    # (C4 x C2) / (C4 x 1): full first kernel, deflation to the trivial quotient
    p = product_group(C4, C2)
    members = tuple(sorted(p.encode((a, 0)) for a in range(4)))
    cls = biset_class(C4, C2, members)
    gd = goursat_data(C4, C2, cls.members)
    assert gd.c.members == gd.d.members  # kernel equals projection
    assert recompose(bouc_decompose(cls)) == element_of(cls)


def test_bouc_roundtrip_small_pairs():
    for h, g in [(C4, C4), (S3, V4), (V4, S3)]:
        for cls in all_transitive_classes(h, g):
            assert recompose(bouc_decompose(cls)) == element_of(cls)


def test_bouc_word_matches_public_elementary_bisets():
    # bouc_decompose builds its factors from the Goursat data directly; the
    # public constructors, fed the same data, must give the same word, down
    # to the identity of the subgroup and quotient groups it chains through
    small = groups_up_to(6)
    for h in small:
        for g in small:
            for cls in all_transitive_classes(h, g):
                gd = goursat_data(h, g, cls.members)
                d_grp, _ = sub_as_group(gd.d)
                b_grp, _ = sub_as_group(gd.b)
                want = [
                    elementary_biset("ind", sub=gd.d),
                    elementary_biset("inf", parent=d_grp,
                                     sub=subgroup(d_grp, gd.d_proj.kernel_members())),
                    elementary_biset("iso", iso=gd.f),
                    elementary_biset("def", parent=b_grp,
                                     sub=subgroup(b_grp, gd.b_proj.kernel_members())),
                    elementary_biset("res", sub=gd.b),
                ]
                got = bouc_decompose(cls)
                assert len(got) == len(want)
                for w, e in zip(got, want):
                    assert w.g is e.g and w.k is e.k and w.c is e.c
                    assert w.members == e.members


def test_elementary_biset_checks_survive_optimize(tmp_path):
    # python -O strips assert statements; the precondition checks must not be ones
    code = textwrap.dedent("""
        from bisetkit.bisets import elementary_biset
        from bisetkit.errors import PreconditionViolated
        from bisetkit.groups import GroupHom, make_group, subgroup
        c2, c4 = make_group("cyclic", 2), make_group("cyclic", 4)
        n = subgroup(c4, [0, 2])
        for check in (lambda: elementary_biset("iso"),
                      lambda: elementary_biset("iso", iso=GroupHom(c4, c2, (0, 1, 0, 1))),
                      lambda: elementary_biset("ind"),
                      lambda: elementary_biset("res", parent=c4),
                      lambda: elementary_biset("inf", sub=n),
                      lambda: elementary_biset("def", parent=c4),
                      lambda: elementary_biset("def", parent=c2, sub=n)):
            try:
                check()
            except PreconditionViolated:
                continue
            raise SystemExit("no PreconditionViolated under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_recompose_rejects_empty_and_mismatch():
    with pytest.raises(InterfaceMismatch):
        recompose([])
    ind = elementary_biset("ind", sub=subgroup(C2, [0]))
    with pytest.raises(InterfaceMismatch):
        recompose([ind, ind])


def test_external_product_point_identity():
    x = element_of(biset_class(C2, C3, [0]))
    point = element_of(biset_class(C1, C1, [0]))
    r = external_product(x, point)
    assert r.g.order == 2 and r.k.order == 3
    assert list(r.coeffs.values()) == [Fraction(1)]


def test_external_product_free_classes():
    x = element_of(biset_class(C2, C1, [0]))
    y = element_of(biset_class(C1, C2, [0]))
    r = external_product(x, y)
    assert r.coeffs == {(0,): Fraction(1)}
    assert r.g.order == 2 and r.k.order == 2


def test_external_product_bilinear_scaling():
    x = element_of(biset_class(C2, C2, [0])).scale(2)
    y = element_of(biset_class(C3, C3, [0])).scale(3)
    r = external_product(x, y)
    assert list(r.coeffs.values()) == [Fraction(6)]


def test_external_product_interchange():
    # (x X y) o (x' X y') = (x o x') X (y o y')
    xs = all_transitive_classes(C2, C2)
    for x in xs[:2]:
        for x2 in xs[:2]:
            for y in all_transitive_classes(C3, C3)[:2]:
                for y2 in all_transitive_classes(C3, C3)[:2]:
                    lhs = compose_bisets(
                        external_product(element_of(x), element_of(y)),
                        external_product(element_of(x2), element_of(y2)))
                    rhs = external_product(
                        compose_bisets(element_of(x), element_of(x2)),
                        compose_bisets(element_of(y), element_of(y2)))
                    assert lhs == rhs


def test_hat_right_diagonal():
    iden = identity_biset(C3)
    h = hat_right(iden)
    assert h.k.order == 1
    assert h.g.order == 9
    (rep, coeff), = h.coeffs.items()
    assert coeff == 1
    assert len(rep) == 3  # Delta(C3) viewed inside (C3 x C3) x 1


def test_hat_right_free():
    x = element_of(biset_class(C2, C3, [0]))
    h = hat_right(x)
    assert h.coeffs == {(0,): Fraction(1)}


def test_hat_of_iso_gives_graph_subgroup():
    auts, _, _ = automorphisms(C4)
    inv = next(a for a in auts if a.images == (0, 3, 2, 1))
    cls = elementary_biset("iso", iso=inv)
    h = hat_right(element_of(cls))
    (rep, _), = h.coeffs.items()
    p = product_group(C4, C4)
    assert set(rep) == {p.encode((inv(b), b)) for b in range(4)}


def test_opposite_is_involution():
    for cls in all_transitive_classes(S3, C4):
        x = element_of(cls)
        assert opposite(opposite(x)) == x


def test_zero_element_behaviour():
    z = zero_element(C2, C2)
    iden = identity_biset(C2)
    assert compose_bisets(z, iden) == z
    assert (iden + iden.scale(-1)) == z


def test_compose_bisets_is_dress_compose_at_c1():
    # RB elements are DressElements at C = C1, so both bilinear products agree
    from bisetkit.dress import dress_compose
    groups = (C1, C2, C3, V4, S3)
    for h in groups:
        for g in groups:
            for k in groups:
                xs, ys = all_transitive_classes(h, g), all_transitive_classes(g, k)
                x = sum((element_of(c, Fraction(i + 2, 3 - i % 2)) for i, c in
                         enumerate(xs[:3])), zero_element(h, g))
                y = sum((element_of(c, 1 - 2 * i) for i, c in enumerate(ys[-3:])),
                        zero_element(g, k))
                assert compose_bisets(x, y) == dress_compose(x, y)


def test_compose_bisets_rejects_shifted_elements():
    from bisetkit.dress import dress_identity
    from bisetkit.errors import FactorMismatch
    x = dress_identity(C3, C2)
    with pytest.raises(FactorMismatch):
        compose_bisets(x, x)
