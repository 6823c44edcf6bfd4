"""Exact character arithmetic over cyclotomic fields.

Covers permutation characters, the linearization of Burnside elements,
Artin-induction coefficients on abelian groups, composition of characters of
bimodules over a middle group, and full complex character tables of small
groups. A class function holds one value per conjugacy class: a Fraction
where the value is rational and a CyclotomicNumber where it is not, so a
rational class function is already the Fraction vector that the linear
algebra and the rq backend use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cyclotomic import Cyc, hermitian_gram, sort_key
from .errors import (
    CharacterTableError,
    FactorMismatch,
    MiddleMismatch,
    NonRationalValues,
    NotAbelian,
    NotSubgroup,
    OrderBound,
    PreconditionViolated,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    SubgroupClass,
    _memo,
    all_homs,
    canonical_subgroup_rep,
    class_index_map,
    closure,
    conjugacy_classes,
    derived_subgroup,
    left_cosets,
    make_group,
    mobius_int,
    product_group,
    quotient_group,
    sub_as_group,
    subgroup,
    subgroup_classes,
)
from .linalg import RowSpace

CHARACTER_TABLE_BOUND = 64


@dataclass
class CharacterVector:
    """A class function on ``group``; one value per conjugacy class.

    A value is a Fraction when it is rational and a Cyc when it is not."""

    group: FiniteGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(conjugacy_classes(self.group)):
            raise PreconditionViolated(
                f"{len(self.values)} values for {len(conjugacy_classes(self.group))} "
                f"classes of {self.group.label}")

    def value_at_element(self, a: int):
        return self.values[class_index_map(self.group)[a]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharacterVector) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __add__(self, other: "CharacterVector") -> "CharacterVector":
        _same_group(self, other)
        return CharacterVector(self.group,
                               tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "CharacterVector") -> "CharacterVector":
        _same_group(self, other)
        return CharacterVector(self.group,
                               tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "CharacterVector":
        return CharacterVector(self.group, tuple(v * c for v in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def is_rational(self) -> bool:
        return not any(isinstance(v, Cyc) for v in self.values)

    def rational_values(self) -> tuple[Fraction, ...]:
        if not self.is_rational():
            raise NonRationalValues("character has irrational values")
        return self.values

    def degree(self) -> Fraction:
        if isinstance(self.values[0], Cyc):
            raise NonRationalValues("class function has an irrational degree")
        return self.values[0]

    def __repr__(self) -> str:
        return f"Char({self.group.label}, {list(self.values)})"


def _same_group(a: CharacterVector, b: CharacterVector) -> None:
    if a.group is not b.group:
        raise FactorMismatch(
            f"class functions on {a.group.label} and {b.group.label}")


def zero_character(g: FiniteGroup) -> CharacterVector:
    return CharacterVector(g, (Fraction(0),) * len(conjugacy_classes(g)))


def inner_product(a: CharacterVector, b: CharacterVector):
    """<a, b> = (1/|G|) sum |class| a(g) conj(b(g))."""
    _same_group(a, b)
    g = a.group
    total = Fraction(0)
    for cls, va, vb in zip(conjugacy_classes(g), a.values, b.values):
        if va and vb:
            total = total + va * vb.conjugate() * len(cls)
    return total * Fraction(1, g.order)


# ---------------------------------------------------------------------------
# Permutation characters and linearization
# ---------------------------------------------------------------------------

def perm_character(g: FiniteGroup, c: Subgroup) -> CharacterVector:
    """Character of the action on G/C: value at x = #fixed cosets."""
    if c.parent is not g:
        raise NotSubgroup(f"perm_character: the subgroup is not one of {g.label}")
    vals = []
    cosets = left_cosets(g, c.members)
    t, inv = g.table, g.inv
    mset = c.member_set()
    for cls in conjugacy_classes(g):
        x = cls[0]
        fixed = 0
        for cs in cosets:
            r = cs[0]
            if t[t[inv[r]][x]][r] in mset:
                fixed += 1
        vals.append(Fraction(fixed))
    return CharacterVector(g, tuple(vals))


def perm_character_members(g: FiniteGroup, members: Sequence[int]) -> CharacterVector:
    return perm_character(g, subgroup(g, tuple(members), check=False))


def biset_character(x) -> CharacterVector:
    """Linearization: the permutation character of an RB element x (a
    DressElement at C = C1) on its product group x.g x x.k."""
    if x.c.order != 1:
        raise PreconditionViolated("biset_character needs an element of RB, at C = C1")
    p = product_group(x.g, x.k)
    out = zero_character(p)
    for rep, coeff in sorted(x.coeffs.items()):
        out = out + perm_character_members(p, rep).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# Artin coefficients on abelian groups
# ---------------------------------------------------------------------------

@dataclass
class RQElement:
    """Coordinates over the Artin basis: one rational per cyclic subgroup class."""

    group: FiniteGroup
    coeffs: dict[tuple[int, ...], Fraction]  # class rep members -> coefficient

    def coefficient(self, members: Sequence[int]) -> Fraction:
        return self.coeffs.get(canonical_subgroup_rep(self.group, tuple(sorted(members))),
                               Fraction(0))


def cyclic_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All cyclic subgroups as sorted member tuples, deterministic order."""
    return _memo(g, "cyclic_subgroups", lambda: sorted(
        {closure(g, [a]) for a in range(g.order)}, key=lambda m: (len(m), m)))


def rq_cyclic_basis(g: FiniteGroup) -> list[SubgroupClass]:
    """Conjugacy classes of cyclic subgroups, the Artin basis indexing."""
    def build() -> list[SubgroupClass]:
        reps: dict[tuple[int, ...], set] = {}
        for m in cyclic_subgroups(g):
            reps.setdefault(canonical_subgroup_rep(g, m), set()).add(m)
        return [SubgroupClass(Subgroup(g, rep), tuple(sorted(reps[rep])))
                for rep in sorted(reps, key=lambda m: (len(m), m))]
    return _memo(g, "rq_cyclic_basis", build, bound=True)


def rq_class_index_map(g: FiniteGroup) -> tuple[int, ...]:
    """Element x -> index in rq_cyclic_basis of the class of <x>, its rational class."""
    def build() -> tuple[int, ...]:
        index = {m: i for i, cls in enumerate(rq_cyclic_basis(g)) for m in cls.members}
        return tuple(index[closure(g, [x])] for x in range(g.order))
    return _memo(g, "rq_class_index_map", build)


def artin_coefficients(tau: CharacterVector) -> RQElement:
    """Exact Artin-basis coordinates of a rational character on an abelian group.

    For each cyclic C the coefficient is
        (1/[G:C]) * sum over cyclic overgroups C* of mu([C*:C]) tau(z*)
    with z* any generator of C*; rationality of tau makes the choice immaterial.
    """
    g = tau.group
    if not g.is_abelian:
        raise NotAbelian("artin_coefficients needs an abelian group")
    rat = tau.rational_values()  # raises NonRationalValues when inapplicable
    cls_index = class_index_map(g)
    cyc = cyclic_subgroups(g)
    generator_of = {}
    for m in cyc:
        zs = [a for a in m if g.element_order(a) == len(m)]
        generator_of[m] = zs[0]
    out: dict[tuple[int, ...], Fraction] = {}
    for c in cyc:
        cset = set(c)
        q = Fraction(0)
        for cstar in cyc:
            if len(cstar) % len(c) == 0 and cset.issubset(cstar):
                mu = mobius_int(len(cstar) // len(c))
                if mu:
                    q += mu * rat[cls_index[generator_of[cstar]]]
        q /= Fraction(g.order, len(c))
        if q:
            out[c] = q
    return RQElement(g, out)


def expand_artin(elem: RQElement) -> CharacterVector:
    out = zero_character(elem.group)
    for members, coeff in sorted(elem.coeffs.items()):
        out = out + perm_character_members(elem.group, members).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# Composition over a middle group
# ---------------------------------------------------------------------------

def compose_characters(tau_m: CharacterVector, tau_n: CharacterVector,
                       h: FiniteGroup, g: FiniteGroup, k: FiniteGroup) -> CharacterVector:
    """Character of the bimodule tensor over the middle group:

        tau(h, k) = (1/|G|) sum over g of tau_m(h, g) tau_n(g, k).

    tau_m lives on H x G and tau_n on G x K; the result lives on H x K.
    """
    phg = product_group(h, g)
    pgk = product_group(g, k)
    if tau_m.group is not phg or tau_n.group is not pgk:
        raise MiddleMismatch("characters do not live on the expected products")
    phk = product_group(h, k)
    idx_m = class_index_map(phg)
    idx_n = class_index_map(pgk)
    vals = []
    inv_g = Fraction(1, g.order)
    zero = Fraction(0)
    for cls in conjugacy_classes(phk):
        hh, kk = phk.decode(cls[0])
        acc = zero
        for gg in range(g.order):
            vm = tau_m.values[idx_m[phg.encode((hh, gg))]]
            if vm:
                vn = tau_n.values[idx_n[pgk.encode((gg, kk))]]
                if vn:
                    acc = acc + vm * vn
        vals.append(acc * inv_g)
    return CharacterVector(phk, tuple(vals))


# ---------------------------------------------------------------------------
# Character tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _roots_of_unity(e: int) -> tuple:
    """zeta_e^j for j = 0 .. e - 1."""
    return tuple(Cyc.root_of_unity(e, j) for j in range(e))


def _abelian_linear_characters(g: FiniteGroup) -> list[CharacterVector]:
    """All |G| linear characters of an abelian group: the homomorphisms
    G -> C_e with e = exp G, element j of C_e read as zeta_e^j."""
    e = g.exponent
    roots = _roots_of_unity(e)
    classes = conjugacy_classes(g)
    found = [CharacterVector(g, tuple(roots[hom(cls[0])] for cls in classes))
             for hom in all_homs(g, make_group("cyclic", e))]
    if len(found) != g.order:
        raise CharacterTableError(f"dual group of {g.label}: got {len(found)}")
    return found


def linear_characters(g: FiniteGroup) -> tuple[CharacterVector, ...]:
    """Linear characters of any group, lifted from G/[G,G]."""
    def build() -> tuple[CharacterVector, ...]:
        if g.is_abelian:
            return tuple(_abelian_linear_characters(g))
        der = derived_subgroup(g)
        q, proj = quotient_group(g, subgroup(g, der, check=False))
        classes = conjugacy_classes(g)
        return tuple(CharacterVector(g, tuple(chi.value_at_element(proj(cls[0]))
                                              for cls in classes))
                     for chi in _abelian_linear_characters(q))
    return _memo(g, "linear_characters", build, bound=True)


def induced_character(g: FiniteGroup, s: Subgroup, lam: CharacterVector) -> CharacterVector:
    """Induction of a character of the subgroup s (given on sub_as_group(s))."""
    s_grp, incl = sub_as_group(s)
    if lam.group is not s_grp:
        raise PreconditionViolated("induced_character needs a character of sub_as_group(s)")
    local = {m: i for i, m in enumerate(s.members)}
    t, inv = g.table, g.inv
    vals = []
    scale = Fraction(1, len(s.members))
    for cls in conjugacy_classes(g):
        x = cls[0]
        acc = Fraction(0)
        for r in range(g.order):
            y = t[t[inv[r]][x]][r]
            li = local.get(y)
            if li is not None:
                v = lam.value_at_element(li)
                if v:
                    acc = acc + v
        vals.append(acc * scale)
    return CharacterVector(g, tuple(vals))


def _char_sort_key(chi: CharacterVector, e: int):
    return (chi.degree(), tuple(sort_key(v, e) for v in chi.values))


def character_table(g: FiniteGroup) -> list[CharacterVector]:
    """The irreducible complex characters, exactly.

    A direct product's table is built from its factors' tables: the
    irreducibles of G1 x ... x Gn are the products chi_1(x_1)...chi_n(x_n).
    Any other group takes its linear characters, lifted from the
    abelianization, straight into the table: distinct homomorphisms are
    irreducible and pairwise orthogonal. The rest are peeled off inductions of
    linear characters of subgroups, induced one subgroup class at a time in
    decreasing order until the table is full. Every group this toolkit builds
    is a direct product of cyclic, dihedral and catalog groups, all monomial,
    and in a monomial group every irreducible is induced from a linear
    character of a subgroup, so the peel finds them all.
    Verified on exit: the count, orthogonality in int numerators over
    Z[zeta_e] with e = exp G (so a value that is not an algebraic integer
    fails), and the degree equation; a failure raises CharacterTableError.
    """
    if g.order > CHARACTER_TABLE_BOUND:
        raise OrderBound(f"character table beyond bound: |{g.label}| = {g.order}")
    return _memo(g, "character_table", lambda: _irreducibles(g), bound=True)


def _irreducibles(g: FiniteGroup) -> list[CharacterVector]:
    """The verified, sorted irreducibles of :func:`character_table`."""
    r = len(conjugacy_classes(g))
    e = g.exponent
    irreducibles = _tensor_products(g) if g.factors else _peeled(g, r)
    if len(irreducibles) != r:
        raise CharacterTableError(
            f"character table of {g.label}: found {len(irreducibles)} of {r}")
    # |G| <a, b> against |G| delta_ab; <b, a> is the conjugate of <a, b>
    gram = hermitian_gram(e, [chi.values for chi in irreducibles],
                          [len(cls) for cls in conjugacy_classes(g)])
    if gram is None:
        raise CharacterTableError(
            f"character table of {g.label}: a value is not an algebraic integer")
    for (i, j), num in gram.items():
        if num[0] != (g.order if i == j else 0) or any(num[1:]):
            raise CharacterTableError(f"orthogonality fails for {g.label} at ({i},{j})")
    if sum(chi.degree() ** 2 for chi in irreducibles) != g.order:
        raise CharacterTableError(f"degree equation fails for {g.label}")
    irreducibles.sort(key=lambda c: _char_sort_key(c, e))
    return irreducibles


def _tensor_products(g: FiniteGroup) -> list[CharacterVector]:
    """The products chi_1(x_1)...chi_n(x_n) over the tables of the factors of
    a direct product, each factor read through its class_index_map."""
    comps = [g.decode(cls[0]) for cls in conjugacy_classes(g)]
    products = None
    for pos, f in enumerate(g.factors):
        idx = class_index_map(f)
        cols = [idx[x[pos]] for x in comps]
        reads = [[chi.values[c] for c in cols] for chi in character_table(f)]
        products = reads if products is None else [
            [a * b for a, b in zip(p, q)] for p in products for q in reads]
    return [CharacterVector(g, tuple(p)) for p in products]


def _peeled(g: FiniteGroup, r: int) -> list[CharacterVector]:
    """The linear characters, then the irreducibles peeled off inductions of
    linear characters, largest subgroups first, until there are r."""
    irreducibles = list(linear_characters(g))
    if len(irreducibles) == r:
        return irreducibles
    # stable: within one order, subgroup classes keep their order
    reps = sorted((cls.representative for cls in subgroup_classes(g)
                   if 1 < cls.representative.order < g.order), key=lambda s: -s.order)
    for s in reps:
        s_grp, _ = sub_as_group(s)
        for lam in linear_characters(s_grp):
            red = induced_character(g, s, lam)
            for chi in irreducibles:
                m = inner_product(red, chi)
                if m:
                    red = red - chi.scale(m)
            # red is a character orthogonal to every one found, so its norm
            # is 1 exactly when it is a new irreducible
            if not red.is_zero() and inner_product(red, red) == 1:
                irreducibles.append(red)
                if len(irreducibles) == r:
                    return irreducibles
    return irreducibles


# ---------------------------------------------------------------------------
# Kernel of the linearization on B(G)
# ---------------------------------------------------------------------------

def lin_kernel(g: FiniteGroup) -> list[list[Fraction]]:
    """Basis of {c : sum_L c_L perm_char(G/L) = 0} over subgroup classes of G."""
    if g.order > CHARACTER_TABLE_BOUND:
        raise OrderBound(f"lin_kernel beyond bound: {g.order}")
    classes = subgroup_classes(g)
    rows = [perm_character(g, cls.representative).values for cls in classes]
    # kernel vectors c with c^T rows = 0: the nullspace of the transpose
    space = RowSpace(len(classes))
    for j in range(len(rows[0])):
        space.add([row[j] for row in rows])
    return space.nullspace()
