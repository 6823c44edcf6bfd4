"""Double Burnside group elements and their composition.

An element of RB(H, G) is a sparse rational combination of conjugacy classes
of subgroups L <= H x G, each class standing for the transitive biset
(H x G)/L. Composition over the middle group is the Mackey formula

    (HxG)/L o (GxK)/M  =  sum over g in p2(L)\\G/p1(M) of (HxK)/(L * (g,1)M(g,1)^-1)

where * is the composition-of-relations star product. RB is the shifted
functor RB_C at C = C1, and L <= H x G has the same member integers as
L x 1 <= H x G x C1. So an RB class is a dress.TripleSubgroup and an RB
element a dress.DressElement, both with c = C1; compose_transitive is
dress.dress_compose_members at C1, compose_bisets is dress.bilinear_compose
over it, and compose_oracle is dress.dress_oracle. The oracle builds the
actual finite sets and decomposes orbits directly; it is the ground truth the
formula is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dress import (
    DressElement,
    TripleSubgroup,
    bilinear_compose,
    dress_compose_members,
    dress_identity,
    dress_oracle,
    triple_classes,
)
from .errors import (
    FactorMismatch,
    InterfaceMismatch,
    MiddleMismatch,
    NotNormal,
    NotSubgroup,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    canonical_subgroup_rep,
    is_subgroup_members,
    make_group,
    product_group,
    quotient_group,
    sub_as_group,
    subgroup,
)

C1 = make_group("cyclic", 1)


def biset_class(left: FiniteGroup, right: FiniteGroup,
                members: Sequence[int]) -> TripleSubgroup:
    """The class of the transitive biset (left x right)/L, L given by members."""
    p = product_group(left, right)
    ms = sorted(set(members))
    if not is_subgroup_members(p, ms):
        raise NotSubgroup(f"{ms} is not a subgroup of {p.label}")
    return TripleSubgroup(left, right, C1, canonical_subgroup_rep(p, ms))


def element_of(cls: TripleSubgroup, coeff=1) -> DressElement:
    c = Fraction(coeff)
    return DressElement(cls.g, cls.k, cls.c, {cls.members: c} if c else {})


def zero_element(left: FiniteGroup, right: FiniteGroup) -> DressElement:
    return DressElement(left, right, C1, {})


def identity_biset(g: FiniteGroup) -> DressElement:
    """The class of the diagonal Delta(G) <= G x G with coefficient 1."""
    return dress_identity(g, C1)


def all_transitive_classes(left: FiniteGroup, right: FiniteGroup) -> list[TripleSubgroup]:
    return triple_classes(left, right, C1)


# ---------------------------------------------------------------------------
# Projections inside a two-factor product
# ---------------------------------------------------------------------------

def pair_projections(left: FiniteGroup, right: FiniteGroup,
                     members: Sequence[int]):
    """(p1, k1, p2, k2) of L <= left x right as sorted member tuples."""
    p = product_group(left, right)
    p1, p2 = set(), set()
    k1, k2 = set(), set()
    for m in members:
        a, b = p.decode(m)
        p1.add(a)
        p2.add(b)
        if b == 0:
            k1.add(a)
        if a == 0:
            k2.add(b)
    return tuple(sorted(p1)), tuple(sorted(k1)), tuple(sorted(p2)), tuple(sorted(k2))


# ---------------------------------------------------------------------------
# Goursat data and the Bouc decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoursatData:
    """The five-tuple (D, C, B, A, f) encoding L <= H x G.

    D = p1(L), C = k1(L), B = p2(L), A = k2(L) and f : B/A -> D/C is the
    isomorphism sending bA to dC whenever (d, b) lies in L.
    """

    d: Subgroup
    c: Subgroup
    b: Subgroup
    a: Subgroup
    f: GroupHom  # from B/A group to D/C group
    b_quot: FiniteGroup
    b_proj: GroupHom  # B group -> B/A group
    d_quot: FiniteGroup
    d_proj: GroupHom  # D group -> D/C group


def goursat_data(left: FiniteGroup, right: FiniteGroup,
                 members: Sequence[int]) -> GoursatData:
    p = product_group(left, right)
    p1, k1, p2, k2 = pair_projections(left, right, members)
    d = subgroup(left, p1, check=False)
    c = subgroup(left, k1, check=False)
    b = subgroup(right, p2, check=False)
    a = subgroup(right, k2, check=False)
    d_grp, d_incl = sub_as_group(d)
    b_grp, b_incl = sub_as_group(b)
    c_local = subgroup(d_grp, [d.members.index(x) for x in c.members], check=False)
    a_local = subgroup(b_grp, [b.members.index(x) for x in a.members], check=False)
    d_quot, d_proj = quotient_group(d_grp, c_local)
    b_quot, b_proj = quotient_group(b_grp, a_local)
    # f(bA) = dC for any (d, b) in L
    d_index = {x: i for i, x in enumerate(d.members)}
    b_index = {x: i for i, x in enumerate(b.members)}
    images = [None] * b_quot.order
    for m in members:
        dd, bb = p.decode(m)
        images[b_proj(b_index[bb])] = d_proj(d_index[dd])
    f = GroupHom(b_quot, d_quot, tuple(images))
    return GoursatData(d, c, b, a, f, b_quot, b_proj, d_quot, d_proj)


def goursat_reconstruct(left: FiniteGroup, right: FiniteGroup,
                        gd: GoursatData) -> tuple[int, ...]:
    """Members of the subgroup of left x right encoded by gd."""
    p = product_group(left, right)
    d_index = {x: i for i, x in enumerate(gd.d.members)}
    b_index = {x: i for i, x in enumerate(gd.b.members)}
    out = []
    for dd in gd.d.members:
        dq = gd.d_proj(d_index[dd])
        for bb in gd.b.members:
            if gd.f(gd.b_proj(b_index[bb])) == dq:
                out.append(p.encode((dd, bb)))
    return tuple(sorted(out))


def elementary_biset(kind: str, *, parent: Optional[FiniteGroup] = None,
                     sub: Optional[Subgroup] = None,
                     iso: Optional[GroupHom] = None) -> TripleSubgroup:
    """One of the five elementary classes: ind, res, inf, def, iso.

    ind/res take a subgroup (the biset runs between the ambient group and the
    subgroup viewed as its own group); inf/def take a normal subgroup of
    ``parent`` and run between parent and parent/sub; iso takes a bijective
    GroupHom f and yields the class of {(f(b), b)}.
    """
    if kind == "iso":
        assert iso is not None and iso.is_bijective()
        left, right = iso.codomain, iso.domain
        p = product_group(left, right)
        members = sorted(p.encode((iso(b), b)) for b in range(right.order))
        return TripleSubgroup(left, right, C1, canonical_subgroup_rep(p, tuple(members)))
    if kind in ("ind", "res"):
        assert sub is not None
        g = sub.parent
        s_grp, incl = sub_as_group(sub)
        if kind == "ind":
            left, right = g, s_grp
            pairs = [(incl(i), i) for i in range(s_grp.order)]
        else:
            left, right = s_grp, g
            pairs = [(i, incl(i)) for i in range(s_grp.order)]
        p = product_group(left, right)
        members = sorted(p.encode(t) for t in pairs)
        return TripleSubgroup(left, right, C1, canonical_subgroup_rep(p, tuple(members)))
    if kind in ("inf", "def"):
        assert parent is not None and sub is not None and sub.parent is parent
        from .groups import is_normal
        if not is_normal(parent, sub.members):
            raise NotNormal(f"{kind} needs a normal subgroup")
        q, proj = quotient_group(parent, sub)
        if kind == "inf":
            left, right = parent, q
            pairs = [(x, proj(x)) for x in range(parent.order)]
        else:
            left, right = q, parent
            pairs = [(proj(x), x) for x in range(parent.order)]
        p = product_group(left, right)
        members = sorted(set(p.encode(t) for t in pairs))
        return TripleSubgroup(left, right, C1, canonical_subgroup_rep(p, tuple(members)))
    raise ValueError(f"unknown elementary biset kind {kind!r}")


def bouc_decompose(x: TripleSubgroup) -> list[TripleSubgroup]:
    """Five-term word Ind, Inf, Iso(f), Def, Res composing back to x."""
    gd = goursat_data(x.g, x.k, x.members)
    ind = elementary_biset("ind", sub=gd.d)
    d_grp, _ = sub_as_group(gd.d)
    c_local = subgroup(d_grp, [gd.d.members.index(v) for v in gd.c.members],
                       check=False)
    inf = elementary_biset("inf", parent=d_grp, sub=c_local)
    iso = elementary_biset("iso", iso=gd.f)
    b_grp, _ = sub_as_group(gd.b)
    a_local = subgroup(b_grp, [gd.b.members.index(v) for v in gd.a.members],
                       check=False)
    de = elementary_biset("def", parent=b_grp, sub=a_local)
    res = elementary_biset("res", sub=gd.b)
    return [ind, inf, iso, de, res]


def recompose(word: Sequence[TripleSubgroup]) -> DressElement:
    """Left-to-right fold of a word of classes with compose_bisets."""
    if not word:
        raise InterfaceMismatch("empty composition word")
    acc = element_of(word[0])
    for nxt in word[1:]:
        if acc.k is not nxt.g:
            raise InterfaceMismatch(
                f"cannot chain ({acc.g.label},{acc.k.label}) with "
                f"({nxt.g.label},{nxt.k.label})")
        acc = compose_bisets(acc, element_of(nxt))
    return acc


# ---------------------------------------------------------------------------
# Composition: Mackey formula and set-theoretic oracle
# ---------------------------------------------------------------------------

def compose_transitive(h: FiniteGroup, g: FiniteGroup, k: FiniteGroup,
                       l_members: Sequence[int],
                       m_members: Sequence[int]) -> DressElement:
    """Mackey composition of (HxG)/L with (GxK)/M: the shifted rule at C1."""
    return DressElement(h, k, C1, dress_compose_members(h, g, k, C1, l_members, m_members))


def compose_bisets(x: DressElement, y: DressElement) -> DressElement:
    """Bilinear extension of the Mackey formula; middle groups must be identical."""
    if x.k is not y.g:
        raise MiddleMismatch(f"middle mismatch: {x.k.label} vs {y.g.label}")
    if x.c is not C1 or y.c is not C1:
        raise FactorMismatch("compose_bisets composes elements of RB, at C = C1")
    h, g, k = x.g, x.k, y.k
    return bilinear_compose(
        x, y, lambda lrep, mrep: compose_transitive(h, g, k, lrep, mrep).coeffs)


def compose_oracle(x: TripleSubgroup, y: TripleSubgroup) -> DressElement:
    """Set-theoretic composition: build X x Y, quotient by the middle action,
    decompose the resulting (H x K)-set into transitive classes by stabilizers.
    This is the shifted oracle at C1.
    """
    if x.k is not y.g:
        raise MiddleMismatch("oracle: middle mismatch")
    return dress_oracle(x, y)


# ---------------------------------------------------------------------------
# External product, opposite, hat
# ---------------------------------------------------------------------------

def external_product(x: DressElement, y: DressElement) -> DressElement:
    """x times y over (H x H', G x G'); stabilizers multiply componentwise."""
    h, g = x.g, x.k
    h2, g2 = y.g, y.k
    hh = product_group(h, h2)
    gg = product_group(g, g2)
    phg, ph2g2 = product_group(h, g), product_group(h2, g2)
    p = product_group(hh, gg)
    out: dict[tuple[int, ...], Fraction] = {}
    for lrep, a in x.coeffs.items():
        l_pairs = [phg.decode(m) for m in lrep]
        for mrep, b in y.coeffs.items():
            m_pairs = [ph2g2.decode(m) for m in mrep]
            members = sorted(
                p.encode((hh.encode((u1, u2)), gg.encode((v1, v2))))
                for u1, v1 in l_pairs for u2, v2 in m_pairs)
            rep = canonical_subgroup_rep(p, tuple(members))
            c = a * b
            nv = out.get(rep, Fraction(0)) + c
            if nv:
                out[rep] = nv
            else:
                out.pop(rep, None)
    return DressElement(hh, gg, C1, out)


def opposite(x: DressElement) -> DressElement:
    """Flip (h, g) pairs; an (H, G)-biset becomes a (G, H)-biset."""
    h, g = x.g, x.k
    phg = product_group(h, g)
    pgh = product_group(g, h)
    out: dict[tuple[int, ...], Fraction] = {}
    for lrep, a in x.coeffs.items():
        members = sorted(pgh.encode(tuple(reversed(phg.decode(m)))) for m in lrep)
        rep = canonical_subgroup_rep(pgh, tuple(members))
        out[rep] = out.get(rep, Fraction(0)) + a
    return DressElement(g, h, C1, out)


def hat_right(x: DressElement) -> DressElement:
    """View an (G, H)-biset as a (G x H, 1)-biset; stabilizers are unchanged."""
    pgh = product_group(x.g, x.k)
    p = product_group(pgh, C1)
    out: dict[tuple[int, ...], Fraction] = {}
    for lrep, a in x.coeffs.items():
        members = tuple(sorted(p.encode((m, 0)) for m in lrep))
        rep = canonical_subgroup_rep(p, members)
        out[rep] = out.get(rep, Fraction(0)) + a
    return DressElement(pgh, C1, C1, out)
