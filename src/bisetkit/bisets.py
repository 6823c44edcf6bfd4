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

Every class the module constructs (the five elementary bisets, the factors of
a Bouc word, and the classes of opposite, hat_right and external_product) is
the class of a subgroup listed by its pairs, built by one helper,
_graph_class. The Bouc word of L is read off one Goursat pass: Ind and Res
are the graphs of the inclusions of D = p1(L) and B = p2(L), Inf and Def
those of the projections onto D/C and B/A, and Iso that of f : B/A -> D/C.
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
    NotSubgroup,
    PreconditionViolated,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _section_quotient,
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
# Goursat data, graph classes and the Bouc decomposition
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
    b_proj: GroupHom  # B group -> B/A group
    d_proj: GroupHom  # D group -> D/C group


def goursat_data(left: FiniteGroup, right: FiniteGroup,
                 members: Sequence[int]) -> GoursatData:
    t = TripleSubgroup(left, right, C1, tuple(members))
    d = subgroup(left, t.proj(0), check=False)
    c = subgroup(left, t.kern(0), check=False)
    b = subgroup(right, t.proj(1), check=False)
    a = subgroup(right, t.kern(1), check=False)
    d_proj = _section_quotient(left, d.members, c.members)
    b_proj = _section_quotient(right, b.members, a.members)
    d_index = {x: i for i, x in enumerate(d.members)}
    b_index = {x: i for i, x in enumerate(b.members)}
    # f(bA) = dC for any (d, b) in L
    images = [None] * b_proj.codomain.order
    for dd, bb, _ in t.decoded:
        images[b_proj(b_index[bb])] = d_proj(d_index[dd])
    f = GroupHom(b_proj.codomain, d_proj.codomain, tuple(images))
    return GoursatData(d, c, b, a, f, b_proj, d_proj)


def _graph_class(left: FiniteGroup, right: FiniteGroup, pairs) -> TripleSubgroup:
    """The class of the subgroup {(l, r)} of left x right listed by ``pairs``.

    The caller vouches that the pairs form a subgroup (graphs of
    homomorphisms and images of subgroups under isomorphisms do), so unlike
    biset_class this runs no subgroup check.
    """
    p = product_group(left, right)
    return TripleSubgroup(left, right, C1,
                          canonical_subgroup_rep(p, [p.encode(t) for t in pairs]))


def _hom_class(hom: GroupHom, image_left: bool) -> TripleSubgroup:
    """The class of the graph of ``hom``: {(hom(x), x)} <= codomain x domain
    if image_left, else {(x, hom(x))} <= domain x codomain."""
    xs = range(hom.domain.order)
    if image_left:
        return _graph_class(hom.codomain, hom.domain, ((hom(x), x) for x in xs))
    return _graph_class(hom.domain, hom.codomain, ((x, hom(x)) for x in xs))


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
        if iso is None or not iso.is_bijective():
            raise PreconditionViolated("iso needs a bijective GroupHom")
        return _hom_class(iso, image_left=True)
    if kind in ("ind", "res"):
        if sub is None:
            raise PreconditionViolated(f"{kind} needs a subgroup")
        _, incl = sub_as_group(sub)
        return _hom_class(incl, image_left=kind == "ind")
    if kind in ("inf", "def"):
        if parent is None or sub is None or sub.parent is not parent:
            raise PreconditionViolated(f"{kind} needs a subgroup of its parent")
        _, proj = quotient_group(parent, sub)
        return _hom_class(proj, image_left=kind == "def")
    raise ValueError(f"unknown elementary biset kind {kind!r}")


def bouc_decompose(x: TripleSubgroup) -> list[TripleSubgroup]:
    """Five-term word Ind, Inf, Iso(f), Def, Res composing back to x, read
    off the Goursat data: the inclusions of D and B, the projections onto
    D/C and B/A, and f."""
    gd = goursat_data(x.g, x.k, x.members)
    _, d_incl = sub_as_group(gd.d)
    _, b_incl = sub_as_group(gd.b)
    return [_hom_class(d_incl, image_left=True),
            _hom_class(gd.d_proj, image_left=False),
            _hom_class(gd.f, image_left=True),
            _hom_class(gd.b_proj, image_left=True),
            _hom_class(b_incl, image_left=False)]


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
    hh = product_group(x.g, y.g)
    gg = product_group(x.k, y.k)
    phg, ph2g2 = product_group(x.g, x.k), product_group(y.g, y.k)
    out = zero_element(hh, gg)
    for lrep, a in x.coeffs.items():
        l_pairs = [phg.decode(m) for m in lrep]
        for mrep, b in y.coeffs.items():
            m_pairs = [ph2g2.decode(m) for m in mrep]
            pairs = ((hh.encode((u1, u2)), gg.encode((v1, v2)))
                     for u1, v1 in l_pairs for u2, v2 in m_pairs)
            out = out + element_of(_graph_class(hh, gg, pairs), a * b)
    return out


def opposite(x: DressElement) -> DressElement:
    """Flip (h, g) pairs; an (H, G)-biset becomes a (G, H)-biset."""
    phg = product_group(x.g, x.k)
    out = zero_element(x.k, x.g)
    for lrep, a in x.coeffs.items():
        pairs = (phg.decode(m)[::-1] for m in lrep)
        out = out + element_of(_graph_class(x.k, x.g, pairs), a)
    return out


def hat_right(x: DressElement) -> DressElement:
    """View an (G, H)-biset as a (G x H, 1)-biset; stabilizers are unchanged."""
    pgh = product_group(x.g, x.k)
    out = zero_element(pgh, C1)
    for lrep, a in x.coeffs.items():
        out = out + element_of(_graph_class(pgh, C1, ((m, 0) for m in lrep)), a)
    return out
