"""Quotient algebras of Green backends and the seed classifications.

A backend presents each hom-space A(H x G) by a finite ordered basis. The
ideal of morphisms factoring through strictly smaller groups is spanned by
the basis elements known to factor (unit rows, rb and rbc only) and by
products of spanning elements through the backend's middle groups, which
each backend yields as sparse integer rows over its columns of A(H x H): the
conjugacy classes of H x H for rq and crc, the subgroup classes of H x H x C
for rb and rbc. Exact ranks give the quotient. The first row through each
middle group is checked against the same product computed another way: the
orbit oracle for rb and rbc, the composition of class functions for rq and
crc.

For rbc, A(H x K) = RB(H x K x C), and rb is rbc at C = C1. By Bouc's
Goursat factorization, every class of H x H x C not in graph form (full
projections and trivial kernels on both H sides) is a unit row, and the
rest of the ideal is spanned by the products of the dress.factor_classes
pairs in graph form on both H sides, restricted to the graph-form columns,
through dress.middle_groups, the subquotients of H x C of order below |H|.
The proofs sit next to those functions. At C = C1 there is no such pair, so
rb composes only the checked first pair through each middle group.

rq keeps only the cyclic subquotients of H. By Artin's induction theorem,
kR_Q(H x K) is spanned by the images of the bisets [H x K / L] with L
cyclic, and Bouc's factorization sends each through q(L) = p_K(L)/k_K(L):
a quotient of the cyclic p_K(L), isomorphic to p_H(L)/k_H(L), so a cyclic
subquotient of H of order at most |K|. Linearization RB -> kR_Q is a
morphism of Green biset functors, so that factorization holds in kR_Q. For
crc, C1 alone suffices: every chi x psi in R_C(H x H) composes through it.

Backends: rb (double Burnside), rq (rational representations in the Artin
basis), crc (complex representations by irreducible characters), rbc (the
Yoneda-Dress shift of rb at a fixed group C). rb and rbc multiply basis
classes by the Mackey formula, and basis class i is the sparse row {i: 1}.
rq and crc share one composition of class functions, their ideal rows compose
(rational) class indicators, and a basis element is its dense character.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .bisets import compose_transitive
from .characters import (
    CharacterVector,
    character_table,
    compose_characters,
    perm_character_members,
    rq_class_index_map,
    rq_cyclic_basis,
)
from . import dress
from .dress import TripleSubgroup, dress_compose_members, dress_oracle
from .errors import (AuditFailed, NotDivisor, OracleInconsistent, OrderBound,
                     PreconditionViolated)
from .groups import (
    FiniteGroup,
    _memo,
    automorphisms,
    canonical_subgroup_rep,
    class_index_map,
    conjugacy_classes,
    make_group,
    product_group,
    subgroup_classes,
)
from .linalg import RowSpace


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class CRCBackend:
    """Complex representations; basis = irreducible characters of the product."""

    name = "crc"

    def middle_groups(self, h) -> list[FiniteGroup]:
        """The groups K the ideal of A(H x H) composes through: C1 alone.
        R_C(H x H) has the basis chi x psi over chi, psi in Irr(H), and chi x
        psi is the composite through C1 of chi in R_C(H x 1) and psi in
        R_C(1 x H). So for |H| > 1 the ideal is all of R_C(H x H), spanned
        through C1, and for H = C1 it is zero."""
        return [make_group("cyclic", 1)] if h.order > 1 else []

    def basis_labels(self, h, g) -> list[str]:
        p = product_group(h, g)
        return [f"chi{i}" for i in range(len(character_table(p)))]

    def basis_vector(self, h, g, i) -> list:
        p = product_group(h, g)
        return list(character_table(p)[i].values)

    def compose(self, h, g, k, beta, alpha) -> list:
        """Compose class-function coordinates; rational values stay Fractions."""
        tm = CharacterVector(product_group(h, g), tuple(beta))
        tn = CharacterVector(product_group(g, k), tuple(alpha))
        return list(compose_characters(tm, tn, h, g, k).values)

    def class_keys(self, p) -> tuple[int, ...]:
        return class_index_map(p)

    def unit_rows(self, h) -> tuple:
        return ()

    def ideal_rows(self, h, k):
        """((a, b), row) pairs: row = |K| times the composite of the indicators
        of classes a of H x K and b of K x H, as {class of H x H: int}."""
        keys_hk = self.class_keys(product_group(h, k))
        keys_kh = self.class_keys(product_group(k, h))
        ho, ko = h.order, k.order  # row-major: (x, y) in X x Y is x*|Y| + y
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for col, cls in enumerate(conjugacy_classes(product_group(h, h))):
            hh, kk = divmod(cls[0], ho)
            for gg in range(ko):
                row = rows.setdefault((keys_hk[hh * ko + gg], keys_kh[gg * ho + kk]), {})
                row[col] = row.get(col, 0) + 1
        return rows.items()

    def row_width(self, h) -> int:
        """Columns of an ideal row: the conjugacy classes of H x H."""
        return len(conjugacy_classes(product_group(h, h)))

    def is_product_row(self, h, k, pair, row) -> bool:
        """Whether row is |K| times compose of the indicators of pair's classes."""
        beta, alpha = ([Fraction(int(self.class_keys(p)[cls[0]] == key))
                        for cls in conjugacy_classes(p)]
                       for p, key in zip((product_group(h, k), product_group(k, h)), pair))
        dense = self.compose(h, k, h, beta, alpha)
        return [k.order * x for x in dense] == [row.get(c, 0) for c in range(len(dense))]


class RQBackend(CRCBackend):
    """kR_Q in the Artin basis. Coordinates are the values of permutation
    characters, all Fractions, so composition is the crc one over Q."""

    name = "rq"

    def middle_groups(self, h) -> list[FiniteGroup]:
        """The cyclic subquotients of H of order below |H|, one per
        isomorphism type (the module docstring has the proof)."""
        return [k for k in dress.middle_groups(h, make_group("cyclic", 1), h.order)
                if any(k.element_order(x) == k.order for x in range(k.order))]

    def class_keys(self, p) -> tuple[int, ...]:
        return rq_class_index_map(p)  # rational classes span the Artin basis

    def basis_labels(self, h, g) -> list[tuple[int, ...]]:
        p = product_group(h, g)
        return [c.representative.members for c in rq_cyclic_basis(p)]

    def basis_vector(self, h, g, i) -> list[Fraction]:
        p = product_group(h, g)
        rep = self.basis_labels(h, g)[i]
        return list(perm_character_members(p, rep).values)


class RBCBackend:
    """The Yoneda-Dress shift RB_C: A(H x G) = RB(H x G x C), composed with x^d."""

    name = "rbc"

    def __init__(self, c: FiniteGroup):
        self.c = c

    def middle_groups(self, h) -> list[FiniteGroup]:
        return dress.middle_groups(h, self.c, h.order)

    def _index(self, h, g) -> dict[tuple[int, ...], int]:
        """Class rep -> basis index, memoized per table of the product group."""
        p = product_group(h, g, self.c)
        return _memo(p, "class_rep_index", lambda: {
            cls.representative.members: i for i, cls in enumerate(subgroup_classes(p))})

    def basis_labels(self, h, g) -> list[tuple[int, ...]]:
        return list(self._index(h, g))

    def row_width(self, h) -> int:
        """Columns of an ideal row: the subgroup classes of H x H x C."""
        return len(self._index(h, h))

    def basis_vector(self, h, g, i) -> dict[int, int]:
        return {i: 1}

    def compose_pair(self, h, g, k, lrep, mrep) -> dict[tuple[int, ...], Fraction]:
        """The product of two basis classes, as class rep -> multiplicity."""
        return dress_compose_members(h, g, k, self.c, lrep, mrep)

    def is_product_row(self, h, k, pair, row) -> bool:
        """Whether row is the orbit oracle's product of pair's two classes,
        read back through the class index of H x H x C."""
        lrep, mrep = pair
        prod = dress_oracle(TripleSubgroup(h, k, self.c, lrep),
                            TripleSubgroup(k, h, self.c, mrep))
        index = self._index(h, h)
        return {index[rep]: v for rep, v in prod.coeffs.items()} == row

    def unit_rows(self, h) -> list[int]:
        """The classes of H x H x C not in graph form, each in the ideal by
        fact (a) next to dress.factor_classes."""
        graph = set(dress.graph_form_classes(h, h, self.c))
        return [i for rep, i in self._index(h, h).items() if rep not in graph]

    def ideal_rows(self, h, k):
        """((lrep, mrep), product of those basis classes as {basis index: int}):
        the first pair of dress.factor_classes in full, then, by fact (b), only
        the pairs in graph form on both H sides, restricted to the graph-form
        columns; at C = C1 there are none."""
        index = self._index(h, h)
        lefts, rights = dress.factor_classes(h, k, h, self.c)
        yield (lefts[0], rights[0]), self._product_row(h, k, lefts[0], rights[0])
        graph = {index[rep] for rep in dress.graph_form_classes(h, h, self.c)}
        for pair in itertools.product(dress.graph_form_classes(h, k, self.c),
                                      dress.graph_form_classes(k, h, self.c)):
            yield pair, {i: v for i, v in self._product_row(h, k, *pair).items() if i in graph}

    def _product_row(self, h, k, lrep, mrep) -> dict[int, int]:
        index = self._index(h, h)
        return {index[rep]: int(v) for rep, v in self.compose_pair(h, k, h, lrep, mrep).items()}


class RBBackend(RBCBackend):
    """A(H x G) = RB(H, G), the shift RB_C at C = C1: coordinates are
    coefficients over subgroup classes of H x G."""

    name = "rb"

    def __init__(self):
        super().__init__(make_group("cyclic", 1))

    # The same product as the inherited dress_compose_members at C1, routed
    # through bisets.compose_transitive: the traced ahat benchmark requires
    # rb items to reach that function.
    def compose_pair(self, h, g, k, lrep, mrep) -> dict[tuple[int, ...], Fraction]:
        return compose_transitive(h, g, k, lrep, mrep).coeffs


def get_backend(name: str, c: Optional[FiniteGroup] = None):
    if name == "rb":
        return RBBackend()
    if name == "rq":
        return RQBackend()
    if name == "crc":
        return CRCBackend()
    if name == "rbc":
        if c is None:
            raise PreconditionViolated("the rbc backend needs the shift group C")
        return RBCBackend(c)
    raise ValueError(f"unknown backend {name!r}")


# ---------------------------------------------------------------------------
# Ideal span and quotient dimension
# ---------------------------------------------------------------------------

@dataclass
class IdealReport:
    backend: str
    group: str
    ambient_dim: int
    ideal_dim: int
    quotient_dim: int
    quotient_basis: list

    def to_json_dict(self) -> dict:
        return {
            "backend": self.backend,
            "group": self.group,
            "ambient": self.ambient_dim,
            "ideal": self.ideal_dim,
            "quotient": self.quotient_dim,
            "basis": [str(list(b)) if isinstance(b, tuple) else str(b)
                      for b in self.quotient_basis],
        }


def _ideal_rowspace(backend, h: FiniteGroup) -> RowSpace:
    """Reduced row space of the backend's unit rows {i: 1} and of the distinct
    generator rows through its middle groups. The first row through each K
    must equal the backend's independent product of its pair: the orbit
    oracle for rb and rbc, the composition of class functions for rq and
    crc."""
    space = RowSpace(backend.row_width(h))
    for i in backend.unit_rows(h):
        space.add({i: 1})
    seen_rows: set = set()
    for k in backend.middle_groups(h):
        for n_row, (pair, row) in enumerate(backend.ideal_rows(h, k)):
            if n_row == 0 and not backend.is_product_row(h, k, pair, row):
                raise OracleInconsistent(
                    f"{backend.name}: row {pair} through {k.label} is not the product")
            key = tuple(sorted(row.items()))
            if key in seen_rows:
                continue
            seen_rows.add(key)
            space.add(row)
    return space


def ideal_span(backend, h: FiniteGroup) -> IdealReport:
    """Ideal of morphisms factoring through strictly smaller groups.

    The ideal is spanned by the products of basis classes (rb, rbc) or of
    (rational) class indicators (crc, rq) of A(H x K) and A(K x H), for each
    middle group K of the backend: one subquotient of H x C of order below
    |H| per isomorphism type for rbc (rb and rq at C = C1), and C1 for crc.
    Bilinearity makes this span the whole submodule.
    Quotient basis labels are the ambient basis elements that stay independent
    modulo the span, scanned in order: the rows {i: 1} for rb and rbc, the
    dense characters for crc and rq.
    """
    space = _ideal_rowspace(backend, h)
    ideal_dim = space.rank
    labels = backend.basis_labels(h, h)
    ambient = len(labels)
    quotient_basis = []
    for i, lab in enumerate(labels):
        if space.add(backend.basis_vector(h, h, i)):
            quotient_basis.append(lab)
    if len(quotient_basis) != ambient - ideal_dim:
        raise AuditFailed(f"{backend.name}: the ideal of {h.label} escaped the ambient module")
    return IdealReport(backend.name, h.label, ambient, ideal_dim,
                       ambient - ideal_dim, quotient_basis)


# ---------------------------------------------------------------------------
# Unit groups, their characters, primitivity
# ---------------------------------------------------------------------------

def units_mod(m: int) -> list[int]:
    return [t for t in range(1, m + 1) if gcd(t, m) == 1] if m > 1 else [1]


def _unit_group_structure(m: int) -> list[tuple[int, int]]:
    """Independent generators of (Z/mZ)^x as (generator, order) pairs via CRT."""
    if m <= 2:
        return []
    factors = []
    mm = m
    p = 2
    while p * p <= mm:
        if mm % p == 0:
            k = 0
            while mm % p == 0:
                mm //= p
                k += 1
            factors.append((p, k))
        p += 1
    if mm > 1:
        factors.append((mm, 1))
    gens: list[tuple[int, int]] = []
    for p, k in factors:
        q = p ** k
        rest = m // q
        # component generators of U(p^k), lifted to 1 mod rest by CRT
        comp_gens: list[tuple[int, int]] = []
        if p == 2:
            if k == 2:
                comp_gens = [(3, 2)]
            elif k >= 3:
                comp_gens = [(q - 1, 2), (3, 2 ** (k - 2))]
        else:
            phi = q - p ** (k - 1)
            for g in range(2, q):
                if gcd(g, p) == 1:
                    o, x = 1, g % q
                    while x != 1:
                        x = x * g % q
                        o += 1
                    if o == phi:
                        comp_gens = [(g, phi)]
                        break
        for g, o in comp_gens:
            # CRT lift: t = g mod q, t = 1 mod rest
            t = _crt(g, q, 1, rest) if rest > 1 else g % m
            gens.append((t % m, o))
    return gens


def _crt(a: int, p: int, b: int, q: int) -> int:
    # x = a mod p, x = b mod q with gcd(p, q) = 1
    inv = pow(p, -1, q)
    return (a + p * ((b - a) * inv % q)) % (p * q)


@dataclass(frozen=True)
class UnitCharacter:
    """A linear character of (Z/mZ)^x: values[t] is the exponent k in zeta_e^k."""

    modulus: int
    exponent: int
    values: tuple[tuple[int, int], ...]  # sorted (unit, exponent-of-root) pairs

    def value_exponent(self, t: int) -> int:
        key = t % self.modulus
        if key == 0:
            key = self.modulus  # only reachable for modulus 1
        return dict(self.values)[key]

    def is_trivial_on(self, subset: Sequence[int]) -> bool:
        d = dict(self.values)
        return all(d[t % self.modulus] == 0 for t in subset)


def unit_characters(m: int) -> list[UnitCharacter]:
    """All phi(m) linear characters of the unit group, deterministic order."""
    units = units_mod(m)
    gens = _unit_group_structure(m)
    e = 1
    for _, o in gens:
        e = e * o // gcd(e, o)
    if not gens:
        return [UnitCharacter(m, 1, tuple((u, 0) for u in units))]
    # discrete logs: every unit is a product of generator powers, exponents found by BFS
    logs = {1: tuple(0 for _ in gens)}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        lx = logs[x]
        for i, (g, o) in enumerate(gens):
            y = x * g % m
            if y not in logs:
                le = list(lx)
                le[i] = (le[i] + 1) % o
                logs[y] = tuple(le)
                frontier.append(y)
    if len(logs) != len(units):
        raise AuditFailed(f"unit group of {m}: generators incomplete")
    out = []
    for choices in itertools.product(*[range(o) for _, o in gens]):
        vals = []
        for u in units:
            lu = logs[u]
            k = sum(c * l * (e // o) for c, l, (_, o) in zip(choices, lu, gens)) % e
            vals.append((u, k))
        out.append(UnitCharacter(m, e, tuple(sorted(vals))))
    if len(out) != len(units):
        raise AuditFailed(f"unit group of {m}: {len(out)} characters, {len(units)} units")
    out.sort(key=lambda ch: tuple(k for _, k in ch.values))
    return out


def kernel_of_reduction(m: int, n: int) -> list[int]:
    """Ker of (Z/mZ)^x -> (Z/nZ)^x, i.e. units congruent to 1 mod n."""
    if m % n:
        raise NotDivisor(f"{n} does not divide {m}")
    return [t for t in units_mod(m) if t % n == 1 % n]


def primitive_characters(m: int) -> list[UnitCharacter]:
    """Characters nontrivial on every Ker pi_{m,n} for proper divisors n.

    A trivial kernel (possible, e.g. m=6, n=3) admits no such character, so it
    empties the list, matching the vanishing of the quotient algebra.
    """
    kernels = [kernel_of_reduction(m, n) for n in range(1, m) if m % n == 0]
    return [ch for ch in unit_characters(m)
            if not any(ch.is_trivial_on(ker) for ker in kernels)]


def xn_ideal_dim(m: int) -> int:
    """Dimension of the ideal generated by all x_n inside the unit group algebra."""
    units = units_mod(m)
    pos = {u: i for i, u in enumerate(units)}
    space = RowSpace(len(units))
    for n in range(1, m):
        if m % n:
            continue
        ker = kernel_of_reduction(m, n)
        for u in units:  # u * ker is a coset: its members are distinct
            space.add({pos[u * t % m]: 1 for t in ker})
    return space.rank


def ell_kernel_dim_from_span(h: FiniteGroup) -> int:
    """dim Ker(ell_H) computed from the rq backend ideal span.

    ell_H sends the unit group algebra onto the quotient algebra via the
    twisted diagonal classes; its kernel is the intersection of the diagonal
    span with the ideal: dim(D cap I) = dim I + dim D - dim(I + D).
    """
    backend = RQBackend()
    space = _ideal_rowspace(backend, h)
    ideal_rank = space.rank
    p = product_group(h, h)
    diags = _diagonal_reps(h)
    for rep in diags:
        space.add(list(perm_character_members(p, rep).values))
    return ideal_rank + len(diags) - space.rank


def _diagonal_reps(h: FiniteGroup) -> list[tuple[int, ...]]:
    """Twisted diagonals Delta_sigma(H) over automorphisms, as class reps."""
    p = product_group(h, h)
    auts, _, _ = automorphisms(h)
    seen = []
    for a in auts:
        members = tuple(sorted(p.encode((x, a(x))) for x in range(h.order)))
        rep = canonical_subgroup_rep(p, members)
        if rep not in seen:
            seen.append(rep)
    seen.sort()
    return seen


# ---------------------------------------------------------------------------
# Seeds for kR_Q
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Seed:
    """A classified pair (C_m, chi) with chi a primitive unit character."""

    m: int
    character: UnitCharacter


def seeds_kRQ(max_m: int) -> list[Seed]:
    """One seed per primitive character of (Z/mZ)^x for each m <= max_m."""
    if max_m > 64:
        raise OrderBound("seeds_kRQ capped at m <= 64")
    return [Seed(m, ch) for m in range(1, max_m + 1) for ch in primitive_characters(m)]


# ---------------------------------------------------------------------------
# Out(H) comparison and the complex product span
# ---------------------------------------------------------------------------

def check_out_iso(h: FiniteGroup) -> dict:
    """Compare the rb quotient with ROut(H): dimension and basis classes."""
    backend = RBBackend()
    report = ideal_span(backend, h)
    _, _, out_order = automorphisms(h)
    diag = _diagonal_reps(h)
    basis_set = sorted(report.quotient_basis)
    return {
        "group": h.label,
        "quotient_dim": report.quotient_dim,
        "out_order": out_order,
        "match": report.quotient_dim == out_order and basis_set == diag,
        "quotient_basis": basis_set,
        "diagonal_classes": diag,
    }


CRC_SPAN_ORDER_CAP = 256


def crc_product_span(g: FiniteGroup, k: FiniteGroup) -> dict:
    """Rank of {chi tensor psi} inside class functions of G x K vs class count.

    Each class of G x K must be one pair of classes of G and K, every pair
    once. The product rows are then the Kronecker product of the two factor
    tables up to a permutation of columns, and rank(A (x) B) = rank A rank B
    over any field, so only the factor tables are reduced.
    """
    if g.order * k.order > CRC_SPAN_ORDER_CAP:
        raise OrderBound(f"|{g.label}x{k.label}| = {g.order * k.order} "
                         f"exceeds bound {CRC_SPAN_ORDER_CAP}")
    p = product_group(g, k)
    classes_p = conjugacy_classes(p)
    cg = class_index_map(g)
    ck = class_index_map(k)
    pairs = {(cg[a], ck[b]) for a, b in (p.decode(cls[0]) for cls in classes_p)}
    n_g, n_k = len(conjugacy_classes(g)), len(conjugacy_classes(k))
    if not len(pairs) == len(classes_p) == n_g * n_k:
        raise AuditFailed(f"classes of {p.label}: {len(classes_p)} classes give "
                          f"{len(pairs)} distinct pairs of {n_g} x {n_k}")
    rank = _table_rank(g) * _table_rank(k)
    target = len(classes_p)
    return {
        "groups": (g.label, k.label),
        "product_rank": rank,
        "target_dim": target,
        "match": rank == target,
    }


def _table_rank(g: FiniteGroup) -> int:
    space = RowSpace(len(conjugacy_classes(g)))
    for chi in character_table(g):
        space.add(chi.values)
    return space.rank
