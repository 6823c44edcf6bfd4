"""The shifted Burnside functor RB_C: triple subgroups and their composition.

Elements of RB_C(G x K) are combinations of classes of subgroups of G x K x C.
Composition carries a diagonal action of C and obeys a three-set Mackey
formula: the composite of (GxLxC)/E and (LxKxC)/D decomposes over double
cosets of p23(E) \\ (L x C) / p13(D) with stabilizers E * shifted D, where

    E * D = {(g, k, c) : exists l with (g, l, c) in E and (l, k, c) in D}.

One loop, _shifted_stars, yields these shifted star products; the Mackey
formula, star_triple and the decomposability search all read them from it.

RB is the case C = C1: L <= H x G and L x 1 <= H x G x C1 have the same
member integers, so an RB class is a TripleSubgroup and an RB element a
DressElement, both with c = C1. dress_compose_members and dress_oracle at C1
are the Mackey formula and the orbit oracle behind bisets.compose_transitive
and bisets.compose_oracle, and bilinear_compose extends both products.

The module also hosts the factorization machinery: the middle groups,
factor classes and graph-form classes that Bouc's factorization allows (read
by the rb/rbc ideals too), the decomposability search with its kernel-shape
pruning, the quaternion/dihedral counterexample for |C| = 4 and the bridge
scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    AuditFailed,
    FactorMismatch,
    FoundBridge,
    NotCentral,
    NotAutomorphism,
    NotSubgroup,
    OracleInconsistent,
    OrderBound,
    PreconditionViolated,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    _goursat_subgroups,
    _memo,
    canonical_subgroup_rep,
    center,
    closure,
    double_cosets,
    generating_sequence,
    is_isomorphic,
    is_normal,
    is_subgroup_members,
    left_cosets,
    make_group,
    product_group,
    quotient_group,
    sub_as_group,
    subgroup,
    subgroup_classes,
    subgroups,
    subquotients_below,
)

ORACLE_POINT_BOUND = 1 << 20


@dataclass(frozen=True)
class TripleSubgroup:
    """A subgroup of G x K x C with its projections and kernels on demand."""

    g: FiniteGroup
    k: FiniteGroup
    c: FiniteGroup
    members: tuple[int, ...]

    @property
    def triple(self) -> FiniteGroup:
        return product_group(self.g, self.k, self.c)

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def decoded(self) -> list[tuple[int, int, int]]:
        """The members as (g, k, c) triples, decoded once per instance."""
        p = self.triple
        return [p.decode(m) for m in self.members]

    def proj(self, i: int) -> tuple[int, ...]:
        return tuple(sorted({t[i] for t in self.decoded}))

    def kern(self, i: int) -> tuple[int, ...]:
        others = [j for j in range(3) if j != i]
        return tuple(sorted({t[i] for t in self.decoded
                             if all(t[j] == 0 for j in others)}))

    def canonical_rep(self) -> tuple[int, ...]:
        return canonical_subgroup_rep(self.triple, self.members)

    def __repr__(self) -> str:
        return (f"TripleSubgroup(({self.g.label},{self.k.label},{self.c.label}),"
                f" order {self.order})")


def triple_subgroup(g: FiniteGroup, k: FiniteGroup, c: FiniteGroup,
                    members: Sequence[int]) -> TripleSubgroup:
    p = product_group(g, k, c)
    ms = tuple(sorted(set(members)))
    if not is_subgroup_members(p, ms):
        raise NotSubgroup(f"{list(ms)} is not a subgroup of {p.label}")
    return TripleSubgroup(g, k, c, ms)


def triple_classes(g: FiniteGroup, k: FiniteGroup, c: FiniteGroup) -> list[TripleSubgroup]:
    p = product_group(g, k, c)
    return [TripleSubgroup(g, k, c, cls.representative.members)
            for cls in subgroup_classes(p)]


@dataclass
class DressElement:
    """Sparse rational combination of triple subgroup classes for fixed (G, K, C)."""

    g: FiniteGroup
    k: FiniteGroup
    c: FiniteGroup
    coeffs: dict[tuple[int, ...], Fraction]

    def __eq__(self, other) -> bool:
        return (isinstance(other, DressElement) and self.g is other.g
                and self.k is other.k and self.c is other.c
                and self.coeffs == other.coeffs)

    def __add__(self, other: "DressElement") -> "DressElement":
        if not (self.g is other.g and self.k is other.k and self.c is other.c):
            raise FactorMismatch("cannot add elements over different groups")
        out = dict(self.coeffs)
        for kk, v in other.coeffs.items():
            nv = out.get(kk, Fraction(0)) + v
            if nv:
                out[kk] = nv
            else:
                out.pop(kk, None)
        return DressElement(self.g, self.k, self.c, out)

    def scale(self, a) -> "DressElement":
        a = Fraction(a)
        return DressElement(self.g, self.k, self.c,
                            {kk: a * v for kk, v in self.coeffs.items()} if a else {})

    def __repr__(self) -> str:
        terms = ", ".join(f"{v}*{list(kk)}" for kk, v in sorted(self.coeffs.items()))
        return f"RBC({self.g.label},{self.k.label};{self.c.label})[{terms}]"


def dress_identity(g: FiniteGroup, c: FiniteGroup) -> DressElement:
    """The class of Delta(G) x C, the identity of RB_C(G x G)."""
    p = product_group(g, g, c)
    members = tuple(sorted(p.encode((a, a, cc))
                           for a in range(g.order) for cc in range(c.order)))
    rep = canonical_subgroup_rep(p, members)
    return DressElement(g, g, c, {rep: Fraction(1)})


# ---------------------------------------------------------------------------
# Star product and Mackey composition
# ---------------------------------------------------------------------------

def star_triple(e: TripleSubgroup, d: TripleSubgroup) -> TripleSubgroup:
    """E * D over a shared middle factor and shared C; verified to be a subgroup."""
    if e.k is not d.g or e.c is not d.c:
        raise FactorMismatch("star_triple: factors do not chain")
    # the double coset of the identity comes first, and its shift is trivial
    _, star = next(_shifted_stars(e.g, e.k, d.k, e.c, e.members, d.members))
    out = TripleSubgroup(e.g, d.k, e.c, tuple(sorted(star)))
    _audit(is_subgroup_members(out.triple, out.members), "star product not a subgroup")
    return out


def _shifted_stars(g: FiniteGroup, l: FiniteGroup, k: FiniteGroup, c: FiniteGroup,
                   e_members: Sequence[int], d_members: Sequence[int]):
    """Yield ((l0, c0), members of E * D shifted by (l0, 1, c0)) for each
    double coset rep (l0, c0) of p23(E) \\ L x C / p13(D), in the order of
    double_cosets; the members are indices of G x K x C.

    E and D are decoded once. For each rep, D is conjugated by (l0, 1, c0)
    through the L and C tables and bucketed by its (l, c) pair, so the star
    product is one lookup per member of E.
    """
    p_glc = product_group(g, l, c)
    p_lkc = product_group(l, k, c)
    p_lc = product_group(l, c)
    co = c.order
    kc = k.order * co
    # row-major indices: (l, c) in L x C is l*|C| + c, (g, k, c) in G x K x C
    # is g*|K||C| + k*|C| + c
    e_trips = [p_glc.decode(m) for m in e_members]
    d_trips = [p_lkc.decode(m) for m in d_members]
    e_keys = [(ll * co + cc, gg * kc + cc) for gg, ll, cc in e_trips]
    p23e = subgroup(p_lc, {lc for lc, _ in e_keys}, check=False)
    p13d = subgroup(p_lc, {ll * co + cc for ll, _, cc in d_trips}, check=False)
    tl, il, tc, ic = l.table, l.inv, c.table, c.inv
    for rep in double_cosets(p_lc, p23e, p13d):
        l0, c0 = divmod(rep, co)
        l0i, c0i = il[l0], ic[c0]
        by_lc: dict[int, list[int]] = {}
        for ll, kk, cc in d_trips:
            key = tl[tl[l0][ll]][l0i] * co + tc[tc[c0][cc]][c0i]
            by_lc.setdefault(key, []).append(kk * co)
        star = set()
        for lc, base in e_keys:
            for kc_part in by_lc.get(lc, ()):
                star.add(base + kc_part)
        yield (l0, c0), star


def dress_compose_members(g: FiniteGroup, l: FiniteGroup, k: FiniteGroup,
                          c: FiniteGroup, e_members: Sequence[int],
                          d_members: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
    """Transitive three-set Mackey rule; returns class rep -> multiplicity.

    One class per shifted star product. At C = C1 this is the Mackey formula
    of RB: L <= H x G and L x 1 <= H x G x C1 have the same member integers.
    """
    p_gkc = product_group(g, k, c)
    out: dict[tuple[int, ...], Fraction] = {}
    for _, star in _shifted_stars(g, l, k, c, e_members, d_members):
        crep = canonical_subgroup_rep(p_gkc, star)
        out[crep] = out.get(crep, Fraction(0)) + 1
    return out


def dress_compose(x: DressElement, y: DressElement) -> DressElement:
    """Bilinear extension of the three-set Mackey formula."""
    if x.k is not y.g or x.c is not y.c:
        raise FactorMismatch("dress_compose: factors do not chain")
    g, l, k, c = x.g, x.k, y.k, x.c
    return bilinear_compose(
        x, y, lambda erep, drep: dress_compose_members(g, l, k, c, erep, drep))


def bilinear_compose(x: DressElement, y: DressElement, pair) -> DressElement:
    """Extend a transitive product bilinearly; ``pair(erep, drep)`` maps two
    class reps to {class rep: multiplicity}. The caller checks the factors."""
    out: dict[tuple[int, ...], Fraction] = {}
    zero = Fraction(0)
    for erep, a in x.coeffs.items():
        for drep, b in y.coeffs.items():
            ab = a * b
            for crep, coeff in pair(erep, drep).items():
                nv = out.get(crep, zero) + ab * coeff
                if nv:
                    out[crep] = nv
                else:
                    out.pop(crep, None)
    return DressElement(x.g, y.k, x.c, out)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def dress_oracle(e: TripleSubgroup, d: TripleSubgroup) -> DressElement:
    """Set-level composite with the diagonal C action, decomposed by orbits.

    Builds the cosets, quotients by the middle L-orbit relation, then splits
    the G x K x C action (g,k,c)[x, y] = [(g,1,c)x, (1,k,c)y] into transitive
    pieces by computing stabilizers directly. At C = C1 it is the orbit
    oracle of RB composition.
    """
    if e.k is not d.g or e.c is not d.c:
        raise FactorMismatch("dress_oracle: factors do not chain")
    g, l, k, c = e.g, e.k, d.k, e.c
    p_glc = product_group(g, l, c)
    p_lkc = product_group(l, k, c)
    p_gkc = product_group(g, k, c)

    xs = left_cosets(p_glc, e.members)
    ys = left_cosets(p_lkc, d.members)
    nx, ny = len(xs), len(ys)
    if nx * ny > ORACLE_POINT_BOUND:
        raise OrderBound("dress oracle point bound exceeded")
    x_of = [0] * p_glc.order
    for i, cs in enumerate(xs):
        for m in cs:
            x_of[m] = i
    y_of = [0] * p_lkc.order
    for i, cs in enumerate(ys):
        for m in cs:
            y_of[m] = i

    def xact(trip: tuple[int, int, int]) -> list[int]:
        s = p_glc.encode(trip)
        return [x_of[p_glc.table[s][cs[0]]] for cs in xs]

    def yact(trip: tuple[int, int, int]) -> list[int]:
        s = p_lkc.encode(trip)
        return [y_of[p_lkc.table[s][cs[0]]] for cs in ys]

    uf = _UnionFind(nx * ny)
    for m in generating_sequence(l):
        xrow = xact((0, l.inv[m], 0))
        yrow = yact((l.inv[m], 0, 0))
        for i in range(nx):
            base, nbase = i * ny, xrow[i] * ny
            for j in range(ny):
                uf.union(base + j, nbase + yrow[j])

    class_of: dict[int, int] = {}
    reps: list[int] = []
    for pt in range(nx * ny):
        r = uf.find(pt)
        if r not in class_of:
            class_of[r] = len(reps)
            reps.append(r)

    # action tables for single-factor moves
    gx = {gg: xact((gg, 0, 0)) for gg in range(g.order)}
    cx = {cc: xact((0, 0, cc)) for cc in range(c.order)}
    ky = {kk: yact((0, kk, 0)) for kk in range(k.order)}
    cy = {cc: yact((0, 0, cc)) for cc in range(c.order)}

    def act(gg: int, kk: int, cc: int, cls_id: int) -> int:
        pt = reps[cls_id]
        i, j = divmod(pt, ny)
        i2 = gx[gg][cx[cc][i]]
        j2 = ky[kk][cy[cc][j]]
        return class_of[uf.find(i2 * ny + j2)]

    ncls = len(reps)
    seen = [False] * ncls
    out: dict[tuple[int, ...], Fraction] = {}
    gens = ([(gg, 0, 0) for gg in generating_sequence(g)]
            + [(0, kk, 0) for kk in generating_sequence(k)]
            + [(0, 0, cc) for cc in generating_sequence(c)])
    for c0 in range(ncls):
        if seen[c0]:
            continue
        orbit = {c0}
        frontier = [c0]
        while frontier:
            cur = frontier.pop()
            for gg, kk, cc in gens:
                nxt = act(gg, kk, cc, cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        for cid in orbit:
            seen[cid] = True
        stab = []
        for gg in range(g.order):
            for kk in range(k.order):
                for cc in range(c.order):
                    if act(gg, kk, cc, c0) == c0:
                        stab.append(p_gkc.encode((gg, kk, cc)))
        if len(stab) * len(orbit) != p_gkc.order:
            raise OracleInconsistent(
                f"orbit of size {len(orbit)} with stabilizer of order "
                f"{len(stab)} in a group of order {p_gkc.order}")
        rep = canonical_subgroup_rep(p_gkc, tuple(sorted(stab)))
        out[rep] = out.get(rep, Fraction(0)) + 1
    return DressElement(g, k, c, out)


# ---------------------------------------------------------------------------
# Twisted diagonals D_{theta, zeta}
# ---------------------------------------------------------------------------

def d_theta_zeta(g: FiniteGroup, c: FiniteGroup, theta: GroupHom,
                 zeta: GroupHom) -> TripleSubgroup:
    """{(theta(x) zeta(cc), x, cc)}: full first and second projections,
    trivial first and second kernels, order |G| |C|."""
    if not (theta.domain is g and theta.codomain is g and theta.is_bijective()
            and theta.is_hom()):
        raise NotAutomorphism("theta must be an automorphism of G")
    if not (zeta.domain is c and zeta.codomain is g and zeta.is_hom()):
        raise NotCentral("zeta must map C into G")
    zg = set(center(g))
    if not all(zeta(x) in zg for x in range(c.order)):
        raise NotCentral("zeta must land in the center of G")
    p = product_group(g, g, c)
    members = tuple(sorted(
        p.encode((g.mul(theta(x), zeta(cc)), x, cc))
        for x in range(g.order) for cc in range(c.order)))
    out = TripleSubgroup(g, g, c, members)
    _audit(out.order == g.order * c.order, "D_theta,zeta must have order |G| |C|")
    _audit(out.proj(0) == tuple(range(g.order)), "p1(D_theta,zeta) must be G")
    _audit(out.proj(1) == tuple(range(g.order)), "p2(D_theta,zeta) must be G")
    _audit(out.kern(0) == (0,) and out.kern(1) == (0,),
           "k1 and k2 of D_theta,zeta must be trivial")
    return out


def _audit(ok: bool, fact: str) -> None:
    """A checked step of a construction; unlike assert, it survives -O."""
    if not ok:
        raise AuditFailed(fact)


def trivial_hom(c: FiniteGroup, g: FiniteGroup) -> GroupHom:
    return GroupHom(c, g, (0,) * c.order)


# ---------------------------------------------------------------------------
# Middle groups from Bouc's factorization
# ---------------------------------------------------------------------------
#
# Proof of the rule, by Bouc's Goursat factorization of a transitive biset
# (Bouc, Biset Functors for Finite Groups, LNM 1990) applied to RB(X x C, K).
# Read a = [X x K x C / E] as an (X x C, K)-biset: a = a' u, with u in
# RB(K', K), a' in RB_C(X x K') and K' = p_K(E)/k_K(E), where k_K(E) =
# {k : (1, k, 1) in E}. K' is isomorphic to p_{X x C}(E)/k_{X x C}(E), a
# subquotient of X x C, and |K'| < |K| unless p_K(E) = K and k_K(E) = 1.
# The unit RB -> RB_C inflates along C -> 1, so the RB_C product with the
# image of u is the biset composite (dress_identity is the image of
# Delta(X)), and a b = a' (u b) factors through K' for every b; likewise on
# the right, with K'' = p_K(D)/k_K(D) for b = [K x Y x C / D]. By induction
# on |K|, every product through a group of order below the bound lies in the
# products through middle_groups of the pairs from factor_classes.
#
# The rb/rbc ideal of H is read off the same factorization. Call E <= H x H x C
# in graph form when p_H(E) = H and k_H(E) = 1 on both H sides, with k_1(E) =
# {h : (h, 1, 1) in E} and k_2(E) = {h : (1, h, 1) in E}.
# (a) A class not in graph form lies in the ideal: on a side where p_H(E) < H
#     or k_H(E) > 1, q(E) = p_H(E)/k_H(E) has order below |H|, and the
#     factorization above, read on that side, writes [E] as a product through
#     q(E).
# (b) Every term of the product of E <= H x K x C and D <= K x H x C is a class
#     E * D', D' the conjugate of D by some (l0, 1, c0). p_1(E * D') <= p_1(E),
#     and k_1(E * D') >= k_1(E) because (1, 1, 1) lies in D'. Conjugating by
#     (l0, 1, c0) fixes p_H(D) and k_H(D), so p_2(E * D') <= p_2(D) and
#     k_2(E * D') >= k_2(D). So a term is in graph form only if E is in graph
#     form on its H side and D on its H side; every other product is a sum of
#     classes from (a).
# So the ideal is spanned by the classes not in graph form, and by the products
# of the factor_classes pairs in graph form on both H sides (graph_form_classes
# of H x K x C and K x H x C) restricted to the graph-form columns. At C = C1
# no such pair exists through |K| < |H|: E <= H x K with full projections and
# trivial kernels on both sides is, by Goursat, the graph of an isomorphism
# H -> K. So the rb ideal is spanned by the classes not in graph form.

def middle_groups(x: FiniteGroup, c: FiniteGroup, bound: int) -> list[FiniteGroup]:
    """The subquotients of X x C of order below ``bound``, one per
    isomorphism type: all a morphism of RB_C at X factors through. At C = C1
    they are the section classes of X itself, which its Goursat lattice fills."""
    return subquotients_below(product_group(x, c) if c.order > 1 else x, bound)


def factor_classes(g: FiniteGroup, k: FiniteGroup, h: FiniteGroup,
                   c: FiniteGroup) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The class reps whose Goursat quotient on the K side is K itself:
    E <= G x K x C with p_K(E) = K and k_K(E) = 1, and D <= K x H x C with
    p_K(D) = K and k_K(D) = 1, in subgroup_classes order. A pair with a
    smaller quotient composes through a smaller subquotient."""
    lefts = [rep for rep in _class_reps(g, k, c) if _y_graph(rep, k.order, c.order)]
    rights = [rep for rep in _class_reps(k, h, c) if _x_graph(rep, k.order, h.order, c.order)]
    return lefts, rights


def graph_form_classes(x: FiniteGroup, y: FiniteGroup,
                       c: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The class reps E <= X x Y x C in graph form: p_X(E) = X, k_X(E) = 1,
    p_Y(E) = Y and k_Y(E) = 1, in subgroup_classes order."""
    return _memo(product_group(x, y, c), "graph_form_classes", lambda: tuple(
        rep for rep in _class_reps(x, y, c)
        if _x_graph(rep, x.order, y.order, c.order) and _y_graph(rep, y.order, c.order)),
        bound=True)  # equal tables can split into different factors


def _class_reps(x: FiniteGroup, y: FiniteGroup, c: FiniteGroup):
    return (cls.representative.members for cls in subgroup_classes(product_group(x, y, c)))


# Goursat tests on the member integers of E <= X x Y x C, where (x, y, z) is
# (x*|Y| + y)*|C| + z: p_X(E) = X and k_X(E) = {x : (x, 1, 1) in E} = 1, and
# p_Y(E) = Y and k_Y(E) = {y : (1, y, 1) in E} = 1.
def _x_graph(members: Sequence[int], xo: int, yo: int, co: int) -> bool:
    yc = yo * co
    return len({m // yc for m in members}) == xo and sum(m % yc == 0 for m in members) == 1


def _y_graph(members: Sequence[int], yo: int, co: int) -> bool:
    return (len({m // co % yo for m in members}) == yo
            and sum(m < yo * co and m % co == 0 for m in members) == 1)


# ---------------------------------------------------------------------------
# Kernel-shape analysis and decomposability
# ---------------------------------------------------------------------------

def _graph_form(d: TripleSubgroup) -> bool:
    return (_x_graph(d.members, d.g.order, d.k.order, d.c.order)
            and _y_graph(d.members, d.k.order, d.c.order))


def p3_injective_subgroups(d: TripleSubgroup) -> list[tuple[int, ...]]:
    """Subgroups N <= D whose members have pairwise distinct third coordinates."""
    p = d.triple
    d_sub = subgroup(p, d.members, check=False)
    d_grp, incl = sub_as_group(d_sub)
    out = []
    for s in subgroups(d_grp):
        members = tuple(incl(i) for i in s.members)
        thirds = {p.decode(m)[2] for m in members}
        if len(thirds) == len(members):
            out.append(tuple(sorted(members)))
    return out


def admissible_kernel_check(d: TripleSubgroup, max_index_bound: int) -> list[tuple[int, ...]]:
    """Candidate kernels N of the factorization morphism: subgroups of D that
    are injective on the third coordinate, normal in D, with [D:N] within the
    bound. Requires D in graph form (full p1, p2 and trivial k1, k2)."""
    if not _graph_form(d):
        raise PreconditionViolated("admissible_kernel_check needs graph form")
    p = d.triple
    out = []
    for members in p3_injective_subgroups(d):
        if d.order // len(members) > max_index_bound:
            continue
        if is_normal(p, members, within=d.members):
            out.append(members)
    return sorted(out, key=lambda m: (len(m), m))


def is_star_decomposable(d: TripleSubgroup, order_bound: int) -> Optional[dict]:
    """Search for K, A <= G x K x C, B <= K x H x C and a shift with
    D conjugate to A * shifted B; None if no witness exists. D must project
    onto G and onto H, so A projects onto G and B onto H.

    K runs over middle_groups(G, C, bound + 1), and (A, B) over the pairs of
    factor_classes(G, K, H, C) onto G and onto H. A witness through K of
    least order has p_K(A) = K and k_K(A) = 1, and so for B: otherwise
    Bouc's factorization A = A' u (see above) makes D a transitive summand,
    a shifted star, of A' times a summand of u B, through a smaller K'. So K
    is isomorphic to p_{G x C}(A)/k_{G x C}(A), a subquotient of G x C.

    When D is in graph form, the kernel-shape constraint applies: any
    factorization morphism kernel N is injective on the third coordinate,
    normal in D, with D/N embedding in a section of K. So |K| >= [D:N] for
    some admissible N, and smaller orders are skipped.
    """
    g, h, c = d.g, d.k, d.c
    if d.proj(0) != tuple(range(g.order)) or d.proj(1) != tuple(range(h.order)):
        raise PreconditionViolated("is_star_decomposable needs p1(D) = G and p2(D) = H")
    p_ghc = d.triple
    d_canon = d.canonical_rep()

    first = 1
    if _graph_form(d):
        first = min((d.order // len(n) for n in admissible_kernel_check(d, order_bound)),
                    default=order_bound + 1)
    if first > order_bound:
        return None

    go, ho, co = g.order, h.order, c.order  # (x, y, z) is (x*|Y| + y)*|C| + z
    for kgrp in middle_groups(g, c, order_bound + 1):
        if kgrp.order < first:
            continue
        kc = kgrp.order * co
        lefts, rights = factor_classes(g, kgrp, h, c)
        lefts = [a for a in lefts if len({x // kc for x in a}) == go]
        rights = [b for b in rights if len({x // co % ho for x in b}) == ho]
        for a_members in lefts:
            for b_members in rights:
                for shift, star in _shifted_stars(g, kgrp, h, c, a_members, b_members):
                    if len(star) == d.order and canonical_subgroup_rep(p_ghc, star) == d_canon:
                        return {"k": kgrp, "a_members": a_members,
                                "b_members": b_members, "shift": shift}
    return None


# ---------------------------------------------------------------------------
# The counterexample at |C| = 4 and the prime-order bridge scan
# ---------------------------------------------------------------------------

def counterexample_check() -> dict:
    """Construct the order-16 subgroup of Q8 x D8 x C4 that factors through
    no group of order < 8, verifying every intermediate fact; hard-errors on
    any mismatch. Returns a JSON-ready transcript."""
    g = make_group("quaternion8")
    h = make_group("dihedral", 8)
    c = make_group("cyclic", 4)
    transcript: dict = {"groups": {"G": g.label, "H": h.label, "C": c.label}}

    # generators of D8: a of order 4, b of order 2 outside <a>, b a b^-1 = a^-1
    a = next(x for x in range(h.order) if h.element_order(x) == 4)
    a_sub = set(closure(h, [a]))
    b = next(x for x in range(h.order)
             if h.element_order(x) == 2 and x not in a_sub)
    _audit(h.conj(b, a) == h.inverse(a), "b a b^-1 = a^-1 in D8")
    cc = 1  # generator of C4
    p_hc = product_group(h, c)
    alpha = p_hc.encode((a, c.mul(cc, cc)))
    beta = p_hc.encode((b, cc))
    t1 = closure(p_hc, [alpha])
    t2 = closure(p_hc, [beta])
    _audit(len(t1) == 4 and len(t2) == 4, "T1 and T2 must have order 4")
    _audit(is_normal(p_hc, t1), "T1 must be normal in H x C")
    _audit(set(t1) & set(t2) == {0}, "T1 and T2 must meet trivially")
    _audit(p_hc.conj(beta, alpha) == p_hc.inverse(alpha),
           "beta alpha beta^-1 = alpha^-1")
    t_members = closure(p_hc, [alpha, beta])
    _audit(len(t_members) == 16, "T must have order 16")
    _audit(set(t_members) == {p_hc.mul(x, y) for x in t1 for y in t2},
           "T must be T1 T2")
    transcript["T"] = {"order": 16, "alpha": list(p_hc.decode(alpha)),
                       "beta": list(p_hc.decode(beta))}

    # tau: T -> Q8 with kernel generated by alpha^2 beta^2
    ker_gen = p_hc.mul(p_hc.power(alpha, 2), p_hc.power(beta, 2))
    t_sub = subgroup(p_hc, t_members, check=False)
    t_grp, t_incl = sub_as_group(t_sub)
    local = {m: i for i, m in enumerate(t_sub.members)}
    ker_local = closure(t_grp, [local[ker_gen]])
    _audit(len(ker_local) == 2, "alpha^2 beta^2 must have order 2")
    q, proj = quotient_group(t_grp, subgroup(t_grp, ker_local, check=False))
    iso = is_isomorphic(q, g)
    _audit(iso is not None, "T / <alpha^2 beta^2> must be Q8")
    tau = proj.then(iso)
    _audit(tau.kernel_members() == tuple(sorted(ker_local)),
           "ker tau must be <alpha^2 beta^2>")
    transcript["tau"] = {
        "kernel_order": 2,
        "kernel_generator": list(p_hc.decode(ker_gen)),
        "surjective": len(set(tau.images)) == g.order,
        "images": [[list(p_hc.decode(t_incl(i))), tau(i)]
                   for i in range(t_grp.order)],
    }

    p_ghc = product_group(g, h, c)
    members = []
    for i in range(t_grp.order):
        hh, ccc = p_hc.decode(t_incl(i))
        members.append(p_ghc.encode((tau(i), hh, ccc)))
    d = triple_subgroup(g, h, c, members)
    _audit(d.order == 16, "D must have order 16")
    _audit(d.proj(0) == tuple(range(8)), "p1(D) must be all of Q8")
    _audit(d.proj(1) == tuple(range(8)), "p2(D) must be all of D8")
    _audit(d.kern(0) == (0,) and d.kern(1) == (0,), "k1 and k2 of D must be trivial")
    transcript["D"] = {"order": d.order,
                       "members": [list(p_ghc.decode(m)) for m in d.members]}

    # the four elements with third coordinate exactly the generator c; each
    # order-4 candidate kernel is generated by one of them, none normal in D
    four = [m for m in d.members if p_ghc.decode(m)[2] == cc]
    candidates = []
    for m in four:
        n = closure(p_ghc, [m])
        _audit(len(n) == 4, "candidate kernel must have order 4")
        thirds = {p_ghc.decode(x)[2] for x in n}
        _audit(len(thirds) == 4, "candidate kernel must be p3-injective")
        candidates.append({
            "generator": list(p_ghc.decode(m)),
            "normal_in_D": is_normal(p_ghc, n, within=d.members),
        })
    _audit(len(four) == 4, "exactly four order-4 third-coordinate elements")
    _audit(not any(x["normal_in_D"] for x in candidates),
           "no order-4 candidate kernel may be normal in D")
    transcript["order4_candidates"] = candidates

    admissible = admissible_kernel_check(d, 7)
    _audit(admissible == [], "no admissible kernel of index <= 7 may exist")
    transcript["admissible_kernels_bound7"] = []

    witness = is_star_decomposable(d, order_bound=7)
    _audit(witness is None, "D must not factor through order < 8")
    transcript["decomposable"] = False
    transcript["verdict"] = "NOT DECOMPOSABLE"
    return transcript


def no_bridge_check(g: FiniteGroup, h: FiniteGroup, c: FiniteGroup) -> dict:
    """Scan for D <= G x H x C with full projections and trivial kernels.

    Such D are graphs of surjections from a subgroup S of H x C onto G: in
    Goursat's terms, the subgroups of G x (H x C) whose section on the G side
    is (G, 1), kept when they project onto H and meet 1 x H x 1 trivially.
    ``sections_scanned`` counts the S that project onto H with |G| dividing
    |S|. With |C| prime and G, H non-isomorphic of equal order, finding one
    contradicts the isomorphism corollary: FoundBridge.
    """
    p_hc = product_group(h, c)
    c_prime = _is_prime(c.order)
    isomorphic = is_isomorphic(g, h) is not None
    scanned = sum(1 for s in subgroups(p_hc) if s.order % g.order == 0
                  and len({p_hc.decode(m)[0] for m in s.members}) == h.order)
    # an index of G x (H x C) is already the index of G x H x C
    bridges = sorted(members for members in _goursat_subgroups(
        g, p_hc, {g.order: [(tuple(range(g.order)), (0,))]})
        if _y_graph(members, h.order, c.order))
    report = {
        "groups": {"G": g.label, "H": h.label, "C": c.label},
        "c_prime": c_prime,
        "isomorphic": isomorphic,
        "sections_scanned": scanned,
        "bridges": [list(b) for b in bridges],
        "passed": not bridges,
    }
    if c_prime and bridges and not isomorphic and g.order == h.order:
        # a bridge between non-isomorphic groups of equal order would
        # falsify the corollary
        raise FoundBridge(f"bridge found for ({g.label}, {h.label}, {c.label}): "
                          f"{bridges[0]}")
    return report


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
