import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bisetkit
from bisetkit.catalog import groups_of_order
from bisetkit.cli import resolve_group
from bisetkit.dress import (
    DressElement,
    admissible_kernel_check,
    counterexample_check,
    d_theta_zeta,
    dress_compose,
    dress_compose_members,
    dress_identity,
    dress_oracle,
    is_star_decomposable,
    no_bridge_check,
    star_triple,
    triple_classes,
    triple_subgroup,
    trivial_hom,
)
from bisetkit.errors import (
    FactorMismatch,
    NotAutomorphism,
    NotCentral,
    PreconditionViolated,
)
from bisetkit.groups import (
    GroupHom,
    _enumerate_subgroups,
    automorphisms,
    identity_hom,
    make_group,
    product_group,
    subgroup_classes,
)

C1 = make_group("cyclic", 1)
C2 = make_group("cyclic", 2)
C3 = make_group("cyclic", 3)
C4 = make_group("cyclic", 4)
V4 = make_group("klein4")


def _full_triple(g, k, c):
    return triple_subgroup(g, k, c, range(g.order * k.order * c.order))


def test_star_full_groups():
    e = _full_triple(C2, C3, C2)
    d = _full_triple(C3, C4, C2)
    s = star_triple(e, d)
    assert s.order == 2 * 4 * 2
    assert s.members == tuple(range(16))


def test_star_diagonal_neutral():
    c = C2
    p = product_group(C3, C3, c)
    diag = tuple(sorted(p.encode((a, a, cc)) for a in range(3)
                        for cc in range(c.order)))
    e = triple_subgroup(C3, C3, c, diag)
    for d in triple_classes(C3, C4, c):
        s = star_triple(e, d)
        assert s.members == d.members


def test_star_factor_mismatch():
    e = _full_triple(C2, C3, C2)
    d = _full_triple(C4, C2, C2)
    with pytest.raises(FactorMismatch):
        star_triple(e, d)


def test_star_projection_containments():
    for e in triple_classes(C2, C2, C2):
        for d in triple_classes(C2, C3, C2):
            s = star_triple(e, d)
            assert set(s.proj(0)) <= set(e.proj(0))
            assert set(s.proj(1)) <= set(d.proj(1))
            assert set(s.proj(2)) <= set(e.proj(2)) & set(d.proj(2))


def test_projections_and_kernels_of_known_subgroup():
    p = product_group(C2, C2, C2)
    members = tuple(sorted(p.encode((a, a, cc)) for a in range(2) for cc in range(2)))
    t = triple_subgroup(C2, C2, C2, members)
    assert t.proj(0) == (0, 1)
    assert t.proj(2) == (0, 1)
    assert t.kern(0) == (0,)
    assert t.kern(2) == (0, 1)


def test_dress_identity_is_two_sided():
    for g in (C1, C2, C3):
        iden = dress_identity(g, C2)
        for t in triple_classes(g, g, C2):
            e = DressElement(g, g, C2, {t.members: Fraction(1)})
            assert dress_compose(iden, e) == e
            assert dress_compose(e, iden) == e


def test_dress_identity_idempotent():
    iden = dress_identity(C2, C2)
    assert dress_compose(iden, iden) == iden


def test_dress_compose_matches_oracle_sample():
    for g, l, k, c in [(C2, C2, C2, C2), (C2, C1, C2, C3), (C3, C2, C2, C2)]:
        for e in triple_classes(g, l, c):
            for d in triple_classes(l, k, c):
                lhs = DressElement(g, k, c,
                                   dress_compose_members(g, l, k, c,
                                                         e.members, d.members))
                assert lhs == dress_oracle(e, d)


def _middle_quotient_size(e, d):
    """Independent count of |X x_L Y| by Burnside's orbit-counting lemma."""
    g, l, k, c = e.g, e.k, d.k, e.c
    p_glc = product_group(g, l, c)
    p_lkc = product_group(l, k, c)
    from bisetkit.groups import left_cosets
    xs = left_cosets(p_glc, e.members)
    ys = left_cosets(p_lkc, d.members)
    total = 0
    for m in range(l.order):
        right = p_glc.encode((0, l.inv[m], 0))
        left = p_lkc.encode((l.inv[m], 0, 0))
        fx = sum(1 for cs in xs if p_glc.mul(right, cs[0]) in set(cs))
        fy = sum(1 for cs in ys if p_lkc.mul(left, cs[0]) in set(cs))
        total += fx * fy
    assert total % l.order == 0
    return total // l.order


def test_dress_oracle_free_class_point_count():
    # free classes: |X x_L Y| = |X| |Y| / |L|, all orbits accounted for
    for l in (C2, C3):
        e = triple_subgroup(C2, l, C2, [0])
        d = triple_subgroup(l, C2, C2, [0])
        r = dress_oracle(e, d)
        pgkc = 2 * 2 * 2
        covered = sum(int(coeff) * (pgkc // len(rep))
                      for rep, coeff in r.coeffs.items())
        x_size = 2 * l.order * 2
        y_size = l.order * 2 * 2
        assert covered == x_size * y_size // l.order


def test_dress_oracle_point_partition():
    # orbit sizes of the result partition the middle quotient exactly
    g, l, k, c = C2, C2, C2, C2
    pgkc = g.order * k.order * c.order
    for e in triple_classes(g, l, c)[:6]:
        for d in triple_classes(l, k, c)[:6]:
            r = dress_oracle(e, d)
            covered = sum(int(coeff) * (pgkc // len(rep))
                          for rep, coeff in r.coeffs.items())
            assert covered == _middle_quotient_size(e, d)


def test_d_theta_zeta_identity_case():
    iden = dress_identity(C2, C2)
    d = d_theta_zeta(C2, C2, identity_hom(C2), trivial_hom(C2, C2))
    assert {d.canonical_rep(): Fraction(1)} == iden.coeffs


def test_d_theta_zeta_twisted():
    zeta = GroupHom(C2, C2, (0, 1))  # the isomorphism onto Z(C2)
    d = d_theta_zeta(C2, C2, identity_hom(C2), zeta)
    assert d.order == 4
    p = d.triple
    assert set(d.members) == {p.encode(((x + cc) % 2, x, cc))
                              for x in range(2) for cc in range(2)}


def test_d_theta_zeta_inversion_projections():
    auts, _, _ = automorphisms(C4)
    inv = next(a for a in auts if a.images == (0, 3, 2, 1))
    d = d_theta_zeta(C4, C2, inv, trivial_hom(C2, C4))
    assert d.proj(0) == tuple(range(4))
    assert d.proj(1) == tuple(range(4))
    assert d.kern(0) == (0,)
    assert d.kern(1) == (0,)


def test_d_theta_zeta_validation():
    s3 = make_group("symmetric3")
    not_auto = GroupHom(s3, s3, (0,) * 6)
    with pytest.raises(NotAutomorphism):
        d_theta_zeta(s3, C2, not_auto, trivial_hom(C2, s3))
    noncentral = GroupHom(C2, s3, (0, 2))  # lands on a transposition
    with pytest.raises(NotCentral):
        d_theta_zeta(s3, C2, identity_hom(s3), noncentral)


def test_admissible_kernels_of_identity_stabilizer():
    d = d_theta_zeta(C2, C2, identity_hom(C2), trivial_hom(C2, C2))
    kernels = admissible_kernel_check(d, 4)
    p = d.triple
    c_part = tuple(sorted(p.encode((0, 0, cc)) for cc in range(2)))
    assert (0,) in kernels
    assert c_part in kernels
    # D itself is not injective on the third coordinate
    assert d.members not in kernels
    assert all(len(k) <= 2 for k in kernels)


def test_admissible_kernel_check_requires_graph_form():
    t = _full_triple(C2, C2, C2)
    with pytest.raises(PreconditionViolated):
        admissible_kernel_check(t, 4)


def test_p3_trivial_forces_trivial_kernel():
    # with p3(D) = 1 the only p3-injective subgroup is the trivial one
    p = product_group(C2, C2, C2)
    diag = tuple(sorted(p.encode((a, a, 0)) for a in range(2)))
    d = triple_subgroup(C2, C2, C2, diag)
    from bisetkit.dress import p3_injective_subgroups
    assert p3_injective_subgroups(d) == [(0,)]


def test_decomposable_witness_soundness():
    # the full subgroup of C2 x C2 x C2 factors through the trivial group
    d = _full_triple(C2, C2, C2)
    witness = is_star_decomposable(d, order_bound=1)
    assert witness is not None
    assert witness["k"].order == 1
    rebuilt = dress_compose(
        DressElement(C2, witness["k"], C2,
                     {witness["a_members"]: Fraction(1)}),
        DressElement(witness["k"], C2, C2,
                     {witness["b_members"]: Fraction(1)}))
    assert d.canonical_rep() in rebuilt.coeffs


def test_not_decomposable_twisted_diagonals():
    d2 = d_theta_zeta(C2, C2, identity_hom(C2), trivial_hom(C2, C2))
    assert is_star_decomposable(d2, order_bound=1) is None
    auts3, _, _ = automorphisms(C3)
    ident3 = next(a for a in auts3 if a.images == (0, 1, 2))
    d3 = d_theta_zeta(C3, C2, ident3, trivial_hom(C2, C3))
    assert is_star_decomposable(d3, order_bound=2) is None


def test_decomposability_needs_full_projections():
    # {(1, h, 1)} projects onto H but not onto G = C2
    p = product_group(C2, C2, C2)
    d = triple_subgroup(C2, C2, C2, [p.encode((0, h, 0)) for h in range(2)])
    with pytest.raises(PreconditionViolated):
        is_star_decomposable(d, order_bound=1)


def _composes_to(d, witness):
    """Whether D is a summand of the witness's A composed with its B."""
    got = dress_compose_members(d.g, witness["k"], d.k, d.c,
                                witness["a_members"], witness["b_members"])
    return d.canonical_rep() in got


@pytest.mark.parametrize("name", ["D16", "C16"])
def test_star_decomposable_beyond_catalog(name):
    # the middle groups are subquotients of G x C, so no catalog bounds them
    g = resolve_group(name)
    d = d_theta_zeta(g, C1, identity_hom(g), trivial_hom(C1, g))
    witness = is_star_decomposable(d, order_bound=16)
    assert witness is not None and witness["k"].order == 16
    assert _composes_to(d, witness)
    assert is_star_decomposable(d, order_bound=15) is None


def _catalog_star_search(d, order_bound):
    """The search through every catalog group of order up to the bound, with
    every class of G x K x C onto G and of K x H x C onto H."""
    g, h, c = d.g, d.k, d.c
    d_canon = d.canonical_rep()
    for n in range(1, order_bound + 1):
        for k in groups_of_order(n):
            sides = []
            for factors, pos, x in (((g, k, c), 0, g), ((k, h, c), 1, h)):
                p = product_group(*factors)
                sides.append([m for m in (cls.representative.members
                                          for cls in subgroup_classes(p))
                              if len({p.decode(t)[pos] for t in m}) == x.order])
            for a in sides[0]:
                for b in sides[1]:
                    if d_canon in dress_compose_members(g, k, h, c, a, b):
                        return k
    return None


# (G, H, C, bound, number of classes D <= G x H x C with p1(D) = G and
# p2(D) = H). The bound is max(min(|G|, |H|) - 1, 1), 390 classes in all,
# except in the last case: at bound |G| = 4 some D need C4, the second of
# the two subquotients of order 4 of C4 x C2.
_ORACLE_CASES = [
    ("C2", "V4", "C4", 1, 44), ("C4", "C4", "C4", 3, 48), ("C3", "V4", "V4", 2, 29),
    ("S3", "S3", "C2", 5, 11), ("C4", "V4", "C4", 3, 64), ("V4", "C2", "V4", 1, 176),
    ("C3", "C3", "C3", 2, 18), ("C4", "C4", "C2", 4, 16)]


@pytest.mark.parametrize("names,bound,count", [(t[:3], t[3], t[4]) for t in _ORACLE_CASES],
                         ids=["-".join(t[:3]) + f"-{t[3]}" for t in _ORACLE_CASES])
def test_star_decomposable_matches_catalog_search(names, bound, count):
    g, h, c = (resolve_group(n) for n in names)
    checked = 0
    for d in triple_classes(g, h, c):
        if len(d.proj(0)) != g.order or len(d.proj(1)) != h.order:
            continue
        witness = is_star_decomposable(d, order_bound=bound)
        expect = _catalog_star_search(d, bound)
        assert (witness is None) == (expect is None), d.members
        assert witness is None or _composes_to(d, witness)
        checked += 1
    assert checked == count


@pytest.mark.parametrize("names", [
    ("C4", "V4", "C2"), ("C2", "C2", "C3"), ("S3", "S3", "C2"),
    ("V4", "V4", "C2"), ("C1", "C2", "C2"), ("C2", "V4", "C2"), ("C2", "C6", "C3"),
    ("C3", "C2", "C3")])
def test_no_bridge_matches_cyclic_extension(names):
    # oracle: the cyclic-extension lattice of G x H x C, filtered by
    # p1 = G, p2 = H, k1 = k2 = 1; it shares no code with Goursat or all_homs
    g, h, c = (resolve_group(n) for n in names)
    p = product_group(g, h, c)
    want = []
    for m in _enumerate_subgroups(p):
        trips = [p.decode(t) for t in m]
        if (len({t[0] for t in trips}) == g.order and len({t[1] for t in trips}) == h.order
                and not any(t[0] and not t[1] and not t[2] for t in trips)
                and not any(t[1] and not t[0] and not t[2] for t in trips)):
            want.append(list(m))
    p_hc = product_group(h, c)
    scanned = sum(1 for m in _enumerate_subgroups(p_hc) if len(m) % g.order == 0
                  and len({p_hc.decode(t)[0] for t in m}) == h.order)
    rep = no_bridge_check(g, h, c)
    assert rep["bridges"] == sorted(want)
    assert rep["sections_scanned"] == scanned
    assert rep["passed"] is not want


def test_no_bridge_unequal_orders():
    # the corollary is about groups of equal order; C2 and V4 are bridged
    rep = no_bridge_check(C2, V4, C2)
    assert len(rep["bridges"]) == 6
    assert rep["passed"] is False


def test_counterexample_transcript():
    tr = counterexample_check()
    assert tr["verdict"] == "NOT DECOMPOSABLE"
    assert tr["T"]["order"] == 16
    assert tr["tau"]["kernel_order"] == 2
    assert tr["tau"]["surjective"]
    assert tr["D"]["order"] == 16
    assert len(tr["order4_candidates"]) == 4
    assert not any(c["normal_in_D"] for c in tr["order4_candidates"])
    assert tr["admissible_kernels_bound7"] == []
    assert tr["decomposable"] is False


def test_no_bridge_c4_v4():
    for n in (2, 3):
        rep = no_bridge_check(C4, V4, make_group("cyclic", n))
        assert rep["passed"]
        assert rep["c_prime"]
        assert not rep["isomorphic"]


def test_counterexample_audit_survives_optimize(tmp_path):
    # python -O strips assert statements; the audit steps must not be ones.
    # With every subgroup "normal", an order-4 candidate kernel turns normal
    # in D, which the audit rules out.
    code = textwrap.dedent("""
        import bisetkit.dress as dress
        from bisetkit.errors import AuditFailed
        dress.is_normal = lambda g, members, within=None: True
        try:
            dress.counterexample_check()
        except AuditFailed:
            raise SystemExit(0)
        raise SystemExit("no AuditFailed under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_bridge_contrast_finds_counterexample_d():
    q8 = make_group("quaternion8")
    d8 = make_group("dihedral", 8)
    rep = no_bridge_check(q8, d8, C4)
    assert not rep["c_prime"]
    assert not rep["passed"]
    tr = counterexample_check()
    p = product_group(q8, d8, C4)
    d_members = sorted(p.encode(tuple(t)) for t in tr["D"]["members"])
    assert d_members in [sorted(b) for b in rep["bridges"]]


def test_no_bridge_isomorphic_groups_do_not_raise():
    # the diagonal bridges isomorphic groups; that is not a corollary violation
    rep = no_bridge_check(C2, C2, C3)
    assert rep["isomorphic"]
    assert not rep["passed"]
