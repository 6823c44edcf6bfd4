"""Double Burnside group elements and their composition.

An element of RB(H, G) is a sparse rational combination of conjugacy classes
of subgroups L <= H x G, each class standing for the transitive biset
(H x G)/L. Composition over the middle group is the Mackey formula

    (HxG)/L o (GxK)/M  =  sum over g in p2(L)\\G/p1(M) of (HxK)/(L * (g,1)M(g,1)^-1)

where * is the composition-of-relations star product. RB is the shifted
functor RB_C at C = C1, and L <= H x G has the same member integers as
L x 1 <= H x G x C1, so compose_transitive is dress.dress_compose_members at
C1 and compose_oracle is dress.dress_oracle at C1. The oracle builds the
actual finite sets and decomposes orbits directly; it is the ground truth the
formula is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dress import TripleSubgroup, dress_compose_members, dress_oracle
from .errors import InterfaceMismatch, MiddleMismatch, NotNormal, NotSubgroup
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


@dataclass(frozen=True)
class BisetClass:
    """Conjugacy class of a stabilizer L <= H x G, i.e. a transitive biset."""

    left: FiniteGroup
    right: FiniteGroup
    rep: tuple[int, ...]  # canonical class representative, members of H x G

    @property
    def product(self) -> FiniteGroup:
        return product_group(self.left, self.right)

    def __repr__(self) -> str:
        return f"BisetClass(({self.left.label},{self.right.label})/{list(self.rep)})"


def biset_class(left: FiniteGroup, right: FiniteGroup,
                members: Sequence[int]) -> BisetClass:
    p = product_group(left, right)
    ms = sorted(set(members))
    if not is_subgroup_members(p, ms):
        raise NotSubgroup(f"{ms} is not a subgroup of {p.label}")
    return BisetClass(left, right, canonical_subgroup_rep(p, ms))


@dataclass
class BurnsideElement:
    """Sparse rational combination of BisetClass reps over a fixed (H, G)."""

    left: FiniteGroup
    right: FiniteGroup
    coeffs: dict[tuple[int, ...], Fraction]

    @property
    def product(self) -> FiniteGroup:
        return product_group(self.left, self.right)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BurnsideElement)
                and self.left is other.left and self.right is other.right
                and self.coeffs == other.coeffs)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        assert self.left is other.left and self.right is other.right
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, Fraction(0)) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return BurnsideElement(self.left, self.right, out)

    def scale(self, c) -> "BurnsideElement":
        c = Fraction(c)
        if not c:
            return BurnsideElement(self.left, self.right, {})
        return BurnsideElement(self.left, self.right,
                               {k: c * v for k, v in self.coeffs.items()})

    def __repr__(self) -> str:
        terms = ", ".join(f"{v}*{list(k)}" for k, v in sorted(self.coeffs.items()))
        return f"RB({self.left.label},{self.right.label})[{terms}]"


def element_of(cls: BisetClass, coeff=1) -> BurnsideElement:
    c = Fraction(coeff)
    return BurnsideElement(cls.left, cls.right, {cls.rep: c} if c else {})


def zero_element(left: FiniteGroup, right: FiniteGroup) -> BurnsideElement:
    return BurnsideElement(left, right, {})


def identity_biset(g: FiniteGroup) -> BurnsideElement:
    """The class of the diagonal Delta(G) <= G x G with coefficient 1."""
    p = product_group(g, g)
    members = sorted(p.encode((a, a)) for a in range(g.order))
    return element_of(BisetClass(g, g, canonical_subgroup_rep(p, tuple(members))))


def all_transitive_classes(left: FiniteGroup, right: FiniteGroup) -> list[BisetClass]:
    from .groups import subgroup_classes
    p = product_group(left, right)
    return [BisetClass(left, right, c.representative.members)
            for c in subgroup_classes(p)]


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
                     iso: Optional[GroupHom] = None) -> BisetClass:
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
        return BisetClass(left, right, canonical_subgroup_rep(p, tuple(members)))
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
        return BisetClass(left, right, canonical_subgroup_rep(p, tuple(members)))
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
        return BisetClass(left, right, canonical_subgroup_rep(p, tuple(members)))
    raise ValueError(f"unknown elementary biset kind {kind!r}")


def bouc_decompose(x: BisetClass) -> list[BisetClass]:
    """Five-term word Ind, Inf, Iso(f), Def, Res composing back to x."""
    gd = goursat_data(x.left, x.right, x.rep)
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


def recompose(word: Sequence[BisetClass]) -> BurnsideElement:
    """Left-to-right fold of a word of classes with compose_bisets."""
    if not word:
        raise InterfaceMismatch("empty composition word")
    acc = element_of(word[0])
    for nxt in word[1:]:
        if acc.right is not nxt.left:
            raise InterfaceMismatch(
                f"cannot chain ({acc.left.label},{acc.right.label}) with "
                f"({nxt.left.label},{nxt.right.label})")
        acc = compose_bisets(acc, element_of(nxt))
    return acc


# ---------------------------------------------------------------------------
# Composition: Mackey formula and set-theoretic oracle
# ---------------------------------------------------------------------------

def compose_transitive(h: FiniteGroup, g: FiniteGroup, k: FiniteGroup,
                       l_members: Sequence[int],
                       m_members: Sequence[int]) -> BurnsideElement:
    """Mackey composition of (HxG)/L with (GxK)/M: the shifted rule at C1."""
    return BurnsideElement(h, k, dress_compose_members(
        h, g, k, _trivial_group(), l_members, m_members))


def compose_bisets(x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the Mackey formula; middle groups must be identical."""
    if x.right is not y.left:
        raise MiddleMismatch(
            f"middle mismatch: {x.right.label} vs {y.left.label}")
    h, g, k = x.left, x.right, y.right
    total = zero_element(h, k)
    for lrep, a in x.coeffs.items():
        for mrep, b in y.coeffs.items():
            piece = compose_transitive(h, g, k, lrep, mrep)
            total = total + piece.scale(a * b)
    return total


def compose_oracle(x: BisetClass, y: BisetClass) -> BurnsideElement:
    """Set-theoretic composition: build X x Y, quotient by the middle action,
    decompose the resulting (H x K)-set into transitive classes by stabilizers.
    This is the shifted oracle at C1.
    """
    if x.right is not y.left:
        raise MiddleMismatch("oracle: middle mismatch")
    one = _trivial_group()
    got = dress_oracle(TripleSubgroup(x.left, x.right, one, x.rep),
                       TripleSubgroup(y.left, y.right, one, y.rep))
    return BurnsideElement(x.left, y.right, got.coeffs)


# ---------------------------------------------------------------------------
# External product, opposite, hat
# ---------------------------------------------------------------------------

def external_product(x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
    """x times y over (H x H', G x G'); stabilizers multiply componentwise."""
    h, g = x.left, x.right
    h2, g2 = y.left, y.right
    hh = product_group(h, h2)
    gg = product_group(g, g2)
    phg, ph2g2 = x.product, y.product
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
    return BurnsideElement(hh, gg, out)


def opposite(x: BurnsideElement) -> BurnsideElement:
    """Flip (h, g) pairs; an (H, G)-biset becomes a (G, H)-biset."""
    h, g = x.left, x.right
    phg = x.product
    pgh = product_group(g, h)
    out: dict[tuple[int, ...], Fraction] = {}
    for lrep, a in x.coeffs.items():
        members = sorted(pgh.encode(tuple(reversed(phg.decode(m)))) for m in lrep)
        rep = canonical_subgroup_rep(pgh, tuple(members))
        out[rep] = out.get(rep, Fraction(0)) + a
    return BurnsideElement(g, h, out)


def hat_right(x: BurnsideElement) -> BurnsideElement:
    """View an (G, H)-biset as a (G x H, 1)-biset; stabilizers are unchanged."""
    one = _trivial_group()
    pgh = x.product
    p = product_group(pgh, one)
    out: dict[tuple[int, ...], Fraction] = {}
    for lrep, a in x.coeffs.items():
        members = tuple(sorted(p.encode((m, 0)) for m in lrep))
        rep = canonical_subgroup_rep(p, members)
        out[rep] = out.get(rep, Fraction(0)) + a
    return BurnsideElement(pgh, one, out)


def _trivial_group() -> FiniteGroup:
    return make_group("cyclic", 1)
