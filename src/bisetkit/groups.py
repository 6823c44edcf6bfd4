"""Exact finite-group arithmetic on explicit multiplication tables.

Elements of a group of order n are the integers 0..n-1, with 0 the identity.
Constructors enumerate elements canonically: identity first, then generator
words in breadth-first (length-lex) order, so element indices are reproducible
across runs. Groups are immutable, and derived data is computed once through
:func:`_memo` into one of two stores. Data that depends only on the table
(element orders, conjugacy classes, canonical representatives, double cosets,
the subgroup lattice as member tuples and class ids) goes to the table memo,
one dict shared by every group with an equal table. Values that hold the group
itself (its Subgroup list, automorphisms, character table, the subgroups and
quotients labelled after it, and the isomorphism classes of its section
quotients) go to the group's own memo.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from . import cache as _cache
from .errors import (
    AuditFailed,
    InvalidTable,
    MiddleMismatch,
    NotNormal,
    NotSubgroup,
    OrderBound,
    PreconditionViolated,
)

DEFAULT_ORDER_BOUND = 256
BRUTEFORCE_BOUND = 16

_T = TypeVar("_T")
# table -> its table memo; see _memo
_TABLE_MEMOS: dict = {}


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b. Index 0 is the identity.
    Products built by :func:`product_group` carry their factor list and decode
    indices row-major, e.g. (g, h) <-> g*|H| + h.
    """

    __slots__ = ("label", "order", "table", "inv", "factors", "_strides",
                 "_group_memo", "_table_memo")

    def __init__(self, label: str, table: Sequence[Sequence[int]],
                 factors: Optional[tuple["FiniteGroup", ...]] = None):
        self.label = label
        # a tuple of tuples is immutable already, so groups can share one
        if not (isinstance(table, tuple) and all(type(r) is tuple for r in table)):
            table = tuple(map(tuple, table))
        self.table = table
        self.order = len(self.table)
        try:
            self.inv = tuple(row.index(0) for row in self.table)
        except ValueError:
            raise InvalidTable(f"{label}: some element has no inverse") from None
        self.factors = factors
        if factors is not None:
            strides = []
            acc = 1
            for f in reversed(factors):
                strides.append(acc)
                acc *= f.order
            self._strides = tuple(reversed(strides))
        else:
            self._strides = None
        self._group_memo: dict = {}
        self._table_memo: dict = _TABLE_MEMOS.setdefault(table, {})

    # -- arithmetic --------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.table[self.table[g][a]][self.inv[g]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv[a], -k
        r = 0
        while k:
            if k & 1:
                r = self.table[r][a]
            a = self.table[a][a]
            k >>= 1
        return r

    def element_order(self, a: int) -> int:
        return _memo(self, "element_orders", self._element_orders)[a]

    def _element_orders(self) -> tuple[int, ...]:
        orders = []
        for x in range(self.order):
            n, y = 1, x
            while y != 0:
                y = self.table[y][x]
                n += 1
            orders.append(n)
        return tuple(orders)

    @property
    def exponent(self) -> int:
        return _memo(self, "exponent", lambda: math.lcm(
            *(self.element_order(a) for a in range(self.order))))

    @property
    def is_abelian(self) -> bool:
        # abelian exactly when the table equals its transpose
        return _memo(self, "is_abelian", lambda: self.table == tuple(zip(*self.table)))

    # -- product index maps ------------------------------------------------

    def encode(self, comps: Sequence[int]) -> int:
        if self._strides is None:
            raise PreconditionViolated(f"{self.label} is not a product group")
        return sum(c * s for c, s in zip(comps, self._strides))

    def decode(self, x: int) -> tuple[int, ...]:
        if self.factors is None:
            raise PreconditionViolated(f"{self.label} is not a product group")
        out = []
        for f, s in zip(self.factors, self._strides):
            q, x = divmod(x, s)
            out.append(q)
        return tuple(out)

    # -- identity / caching ------------------------------------------------

    @property
    def fingerprint(self) -> str:
        # the table is a tuple of int tuples, so its repr is injective
        return _memo(self, "fingerprint",
                     lambda: hashlib.sha256(repr(self.table).encode()).hexdigest())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _memo(g: FiniteGroup, key: str, compute: Callable[[], _T], bound: bool = False) -> _T:
    """The value ``compute()`` stored under ``key`` for G, computed once.

    By default it goes to the table memo, which every group with an equal
    table shares, so it may hold only data: ints, tuples, member lists, class
    ids and dicts keyed by member tuples. A value that holds G itself (a
    Subgroup, GroupHom, CharacterVector, or a group labelled after G) is
    stored with ``bound`` in G's own memo. A keyed memo is a dict stored here
    with ``compute=dict``. No other module reads either store directly.
    """
    store = g._group_memo if bound else g._table_memo
    got = store.get(key)
    if got is None:
        got = store[key] = compute()
    return got


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_table(table: Sequence[Sequence[int]]) -> None:
    """Raise InvalidTable unless ``table`` is a group table with identity 0.

    Checks: squareness, identity row/column, Latin square, two-sided inverses,
    and associativity. Associativity uses Light's test (middle element drawn
    from a generating set), which is sufficient and keeps the check quadratic.
    """
    n = len(table)
    if n == 0:
        raise InvalidTable("empty table")
    rng = range(n)
    for i, row in enumerate(table):
        if len(row) != n:
            raise InvalidTable(f"row {i} has length {len(row)}, expected {n}")
        if any(not (0 <= x < n) for x in row):
            raise InvalidTable(f"row {i} has out-of-range entries")
    for a in rng:
        if table[0][a] != a or table[a][0] != a:
            raise InvalidTable("index 0 is not a two-sided identity")
    for a in rng:
        if len(set(table[a])) != n:
            raise InvalidTable(f"row {a} is not a permutation")
        if len({table[b][a] for b in rng}) != n:
            raise InvalidTable(f"column {a} is not a permutation")
    for a in rng:
        if not any(table[a][b] == 0 for b in rng):
            raise InvalidTable(f"element {a} has no inverse")
    # Light's associativity test over a generating set.
    gens: list[int] = []
    reached = {0}
    for a in rng:
        if a not in reached:
            gens.append(a)
            frontier = [a]
            while frontier:
                x = frontier.pop()
                for g in list(reached) + gens:
                    for y in (table[x][g], table[g][x]):
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
    for m in gens:
        for x in rng:
            xm = table[x][m]
            rowx = table[x]
            for y in rng:
                if rowx[table[m][y]] != table[xm][y]:
                    raise InvalidTable(
                        f"associativity fails at ({x},{m},{y})")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _from_model(label: str, identity, gens: Sequence, mul: Callable) -> FiniteGroup:
    """Enumerate a group breadth-first from a concrete element model.

    Discovery order is the canonical element order: identity, then words in
    the generators by increasing length with ties broken by discovery.
    """
    elems = [identity]
    index = {identity: 0}
    i = 0
    while i < len(elems):
        x = elems[i]
        for g in gens:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
        i += 1
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(label, table)


_MAKE_MEMO: dict = {}


def make_group(kind: str, param=None) -> FiniteGroup:
    """Build a canonical small group.

    Kinds: ``cyclic`` (param n), ``dihedral`` (param = group order 2n),
    ``quaternion8``, ``klein4``, ``symmetric3``, ``alternating4``,
    ``dicyclic3``, ``from_table`` (param = table rows, fully validated).
    """
    if kind == "from_table":
        key = ("from_table", tuple(tuple(r) for r in param))
    else:
        key = (kind, param)
    got = _MAKE_MEMO.get(key)
    if got is not None:
        return got

    if kind == "cyclic":
        n = int(param)
        if n < 1:
            raise InvalidTable("cyclic order must be positive")
        g = _from_model(f"C{n}", 0, [1 % n], lambda a, b: (a + b) % n)
    elif kind == "dihedral":
        order = int(param)
        if order < 2 or order % 2:
            raise InvalidTable("dihedral order must be even and >= 2")
        n = order // 2

        def dmul(p, q):
            r1, f1 = p
            r2, f2 = q
            return ((r1 + (r2 if f1 == 0 else -r2)) % n, f1 ^ f2)

        g = _from_model(f"D{order}", (0, 0), [(1 % n, 0), (0, 1)], dmul)
    elif kind == "quaternion8":
        # units +-1,+-i,+-j,+-k as (sign, axis); x=i, y=j
        axis_mul = {
            (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
            (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
            (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
            (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
            (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
        }

        def qmul(p, q):
            s1, a1 = p
            s2, a2 = q
            s3, a3 = axis_mul[(a1, a2)]
            return ((s1 + s2 + s3) % 2, a3)

        g = _from_model("Q8", (0, 0), [(0, 1), (0, 2)], qmul)
    elif kind == "klein4":
        g = _from_model("V4", (0, 0), [(1, 0), (0, 1)],
                        lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))
    elif kind == "symmetric3":
        def pmul(p, q):
            return tuple(p[q[i]] for i in range(3))

        g = _from_model("S3", (0, 1, 2), [(1, 2, 0), (1, 0, 2)], pmul)
    elif kind == "alternating4":
        def pmul4(p, q):
            return tuple(p[q[i]] for i in range(4))

        g = _from_model("A4", (0, 1, 2, 3), [(1, 2, 0, 3), (1, 0, 3, 2)], pmul4)
    elif kind == "dicyclic3":
        # <a, b | a^6 = 1, b^2 = a^3, b a b^-1 = a^-1>, elements (i, eps)
        def dcmul(p, q):
            i, e1 = p
            j, e2 = q
            if e1 == 0:
                return ((i + j) % 6, e2)
            if e2 == 0:
                return ((i - j) % 6, 1)
            return ((i - j + 3) % 6, 0)

        g = _from_model("Dic3", (0, 0), [(1, 0), (0, 1)], dcmul)
    elif kind == "from_table":
        table = [list(map(int, row)) for row in param]
        validate_table(table)
        g = FiniteGroup("table", table)
    else:
        raise ValueError(f"unknown group kind {kind!r}")

    _MAKE_MEMO[key] = g
    return g


_PRODUCT_MEMO: dict = {}


def product_group(*factors: FiniteGroup) -> FiniteGroup:
    """Direct product with row-major index maps; memoized on factor identity.

    The table depends only on the factor tables, so it is folded once per
    tuple of them and kept in the first factor's table memo: a fresh product
    of groups whose tables are already known (a subgroup or quotient from a
    Bouc round trip) gets the table object of the equal product, and with it
    every table memo, while its label, factors and decode stay its own. An
    order-1 factor changes neither the row-major indices nor the table, so
    such a product gets the table object of the product of its other factors,
    while still decoding to one component per factor.
    """
    if not factors:
        raise PreconditionViolated("product_group needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    got = _PRODUCT_MEMO.get(factors)
    if got is not None:
        return got
    label = "x".join(f.label for f in factors)
    rest = [f for f in factors if f.order > 1]
    if len(rest) < len(factors):
        base = product_group(*rest) if rest else factors[0]
        g = FiniteGroup(label, base.table, factors=factors)
        _PRODUCT_MEMO[factors] = g
        return g
    folds = _memo(factors[0], "products", dict)
    key = tuple(f.table for f in factors[1:])
    table = folds.get(key)
    if table is None:
        # (A x B) x C has the row-major encoding of A x B x C, so fold pairwise
        table = factors[0].table
        for f in factors[1:]:
            m = f.order
            table = tuple([tuple([r * m + s for r in ra for s in rb])
                           for ra in table for rb in f.table])
        folds[key] = table
    g = FiniteGroup(label, table, factors=factors)
    _PRODUCT_MEMO[factors] = g
    return g


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` as a sorted tuple of element indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or self.members[0] != 0:
            raise PreconditionViolated(
                f"a subgroup of {self.parent.label} must list the identity 0 first")

    @property
    def order(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({self.parent.label}, {list(self.members)})"


def subgroup(parent: FiniteGroup, members: Iterable[int],
             check: bool = True) -> Subgroup:
    ms = tuple(sorted(set(members)))
    if check and not is_subgroup_members(parent, ms):
        raise NotSubgroup(f"{list(ms)} is not a subgroup of {parent.label}")
    return Subgroup(parent, ms)


def is_subgroup_members(g: FiniteGroup, members: Sequence[int]) -> bool:
    """Whether ``members`` are the elements of a subgroup of G.

    A finite set closed under multiplication is a subgroup, so S is grown
    from greedy generators (see :func:`_greedy_closure`), and the check fails
    as soon as a product leaves S: O(|S| * #generators) products, not |S|^2.
    """
    s = set(members)
    if 0 not in s or g.order % len(s) or min(s) < 0 or max(s) >= g.order:
        return False
    # every member ends up in the closure, and the closure stays inside S
    return _greedy_closure(g, s, s) is not None


def closure(g: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by ``seed`` (finiteness supplies inverses)."""
    return tuple(sorted(_greedy_closure(g, seed)[1]))


def generating_sequence(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy small generating sequence, deterministic."""
    return _memo(g, "generating_sequence",
                 lambda: tuple(_greedy_closure(g, range(g.order))[0]))


def conjugate_members(g: FiniteGroup, members: Sequence[int], x: int) -> tuple[int, ...]:
    t, inv = g.table, g.inv
    xi = inv[x]
    return tuple(sorted(t[t[x][m]][xi] for m in members))


def normalizer_members(g: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    mset = set(members)
    sub_gens = _greedy_closure(g, members)[0]
    t, inv = g.table, g.inv
    out = []
    for x in range(g.order):
        xi = inv[x]
        if all(t[t[x][m]][xi] in mset for m in sub_gens):
            out.append(x)
    return tuple(out)


def _greedy_closure(g: FiniteGroup, members: Iterable[int],
                    inside: Optional[set] = None) -> Optional[tuple[list[int], set]]:
    """Greedy generators of the subgroup generated by ``members`` (each member
    not yet in the closure of the earlier ones, in the order given), and that
    subgroup as a set; None as soon as a product leaves ``inside``.

    The closure stays closed under right multiplication by the generators:
    a new generator multiplies the old elements, every generator the new ones.
    """
    t = g.table
    gens: list[int] = []
    have = {0}
    for a in members:
        if a in have:
            continue
        gens.append(a)
        todo = [t[x][a] for x in have]
        while todo:
            y = todo.pop()
            if y in have:
                continue
            if inside is not None and y not in inside:
                return None
            have.add(y)
            row = t[y]
            todo += [row[h] for h in gens]
    return gens, have


def is_normal(g: FiniteGroup, members: Sequence[int],
              within: Optional[Sequence[int]] = None) -> bool:
    """Whether the subgroup ``within`` (all of G by default) normalizes the
    subgroup ``members``, tested on greedy generators of both."""
    gens = generating_sequence(g) if within is None else _greedy_closure(g, within)[0]
    nset = set(members)
    return all(g.conj(x, y) in nset for y in _greedy_closure(g, members)[0] for x in gens)


def center(g: FiniteGroup) -> tuple[int, ...]:
    t = g.table
    return _memo(g, "center", lambda: tuple(
        a for a in range(g.order) if all(t[a][b] == t[b][a] for b in range(g.order))))


def is_solvable(g: FiniteGroup) -> bool:
    """Whether the derived series of G reaches the trivial group."""
    def build() -> bool:
        current = tuple(range(g.order))
        derived = _commutator_closure(g, current)
        while len(derived) < len(current):
            current, derived = derived, _commutator_closure(g, derived)
        return len(current) == 1
    return _memo(g, "is_solvable", build)


def derived_subgroup(g: FiniteGroup) -> tuple[int, ...]:
    return _commutator_closure(g, range(g.order))


def _commutator_closure(g: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    """[U, U] for the subgroup U = ``members``."""
    t, inv = g.table, g.inv
    comms = set()
    for i, a in enumerate(members):
        for b in members[:i]:
            comms.add(t[t[a][b]][t[inv[a]][inv[b]]])
    return closure(g, comms)


def subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by (size, member tuple).

    The member tuples come from :func:`_lattice`, once per table; only the
    Subgroup objects, which point at G, are made per group."""
    if g.order > DEFAULT_ORDER_BOUND:
        raise OrderBound(f"|{g.label}| = {g.order} exceeds bound {DEFAULT_ORDER_BOUND}")
    return _memo(g, "subgroups", lambda: [Subgroup(g, m) for m in _lattice(g)[0]],
                 bound=True)


def _lattice(g: FiniteGroup) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Member tuples of all subgroups, sorted by (size, members), and their
    conjugacy classes as index lists; once per table.

    Both are read from the disk cache, or computed together and stored in one
    file. On a cache miss, a product of two or more nontrivial factors is
    enumerated from Goursat data (:func:`_goursat_subgroups`), any other
    group by cyclic extension (:func:`_enumerate_subgroups`).
    """
    def build():
        cached = _cache.load_lattice(g.fingerprint, g.order)
        if cached is not None:
            return cached
        # an order-1 factor leaves the table alone, so splitting off only
        # nontrivial factors keeps the split from asking for G's own lattice
        factors = [f for f in g.factors or () if f.order > 1]
        member_lists = (_goursat_subgroups(product_group(*factors[:-1]), factors[-1])
                        if len(factors) > 1 else _enumerate_subgroups(g))
        buckets: dict[tuple[int, ...], list[int]] = {}
        for i, m in enumerate(member_lists):
            buckets.setdefault(canonical_subgroup_rep(g, m), []).append(i)
        # member_lists is sorted, so each bucket opens at its lex-least member
        # and the buckets come out ordered by (size, representative)
        class_ids = list(buckets.values())
        _cache.store_lattice(g.fingerprint, g.order,
                             [list(m) for m in member_lists], class_ids)
        return member_lists, class_ids
    return _memo(g, "lattice", build)


def _sections(g: FiniteGroup) -> dict[int, list[tuple[tuple, tuple]]]:
    """Pairs (S, N) of subgroups of G with N normal in S, keyed by |S:N|."""
    def build():
        subs = _lattice(g)[0]
        gens = [_greedy_closure(g, m)[0] for m in subs]
        out: dict[int, list[tuple[tuple, tuple]]] = {}
        for s, s_gens in zip(subs, gens):
            s_set = set(s)
            for n, n_gens in zip(subs, gens):
                if len(n) > len(s):
                    break
                if len(s) % len(n) or not s_set.issuperset(n):
                    continue
                n_set = set(n)
                if all(g.conj(x, y) in n_set for x in s_gens for y in n_gens):
                    out.setdefault(len(s) // len(n), []).append((s, n))
        return out
    return _memo(g, "_sections", build)


def _section_quotient(g: FiniteGroup, s: tuple[int, ...], n: tuple[int, ...]):
    """S/N as a group, and the coset index of each member of S in order."""
    grp, _ = sub_as_group(Subgroup(g, s))
    local = {x: i for i, x in enumerate(s)}
    q, proj = quotient_group(grp, Subgroup(grp, tuple(sorted(local[x] for x in n))))
    return q, proj.images


def section_classes(g: FiniteGroup, index: int) -> tuple[list[FiniteGroup], dict]:
    """The quotients S/N of the sections of G with |S:N| = ``index``, up to
    isomorphism; classed once per index and group.

    Returns one representative per class, the first quotient of its class in
    section order, and for each such section (S, N) the pair (class, witness),
    with witness an isomorphism from S/N (as :func:`_section_quotient` builds
    it) onto the representative.
    """
    memo = _memo(g, "section_classes", dict, bound=True)
    got = memo.get(index)
    if got is None:
        reps: list[FiniteGroup] = []
        witness: dict = {}
        for s, n in _sections(g).get(index, ()):
            q = _section_quotient(g, s, n)[0]
            for i, rep in enumerate(reps):
                phi = is_isomorphic(q, rep)
                if phi is not None:
                    break
            else:
                i, phi = len(reps), identity_hom(q)
                reps.append(q)
            witness[s, n] = (i, phi)
        got = memo[index] = (reps, witness)
    return got


def subquotients_below(g: FiniteGroup, bound: int) -> list[FiniteGroup]:
    """One group per isomorphism type of the subquotients of G of order below
    ``bound``, by order and then section order."""
    return [k for n in range(1, bound) for k in section_classes(g, n)[0]]


def _goursat_subgroups(a: FiniteGroup, b: FiniteGroup,
                       sec_a: Optional[dict] = None) -> list[tuple[int, ...]]:
    """Member tuples of the subgroups of A x B, (x, y) encoded as x*|B| + y,
    sorted by (size, members).

    Each subgroup is {(x, y) : x in S, y in T, theta(xN) = yM} for exactly
    one pair of sections N <| S <= A and M <| T <= B and one isomorphism
    theta: S/N -> T/M (Goursat's lemma). ``sec_a`` limits the A side to some
    of its sections, in the layout of :func:`_sections`. Both sides are read
    through :func:`section_classes`: theta runs over the isomorphisms between
    the two class representatives, found once per pair of classes.
    """
    nb = b.order
    sec_a = _sections(a) if sec_a is None else sec_a
    sec_b = _sections(b)
    # each s, t and block is sorted and y < nb, so each tuple is sorted too
    out = [tuple(x * nb + y for x in s for y in t)
           for s, _ in sec_a.get(1, ()) for t, _ in sec_b[1]]
    for index, pairs_b in sec_b.items():
        if index == 1 or index not in sec_a:
            continue
        reps_a, wit_a = section_classes(a, index)
        reps_b, wit_b = section_classes(b, index)
        # B's class -> the block lists of its sections, by representative element
        sides_b: dict[int, list[list[list[int]]]] = {}
        for t, m in pairs_b:
            j, psi = wit_b[t, m]
            blocks: list[list[int]] = [[] for _ in range(index)]
            for y, c in zip(t, _section_quotient(b, t, m)[1]):
                blocks[psi.images[c]].append(y)
            sides_b.setdefault(j, []).append(blocks)
        # A's class -> (isomorphisms onto B's class j as image tuples, j's blocks)
        isos: dict[int, list] = {}
        for s, n in sec_a[index]:
            i, phi = wit_a[s, n]
            if i not in isos:
                isos[i] = []
                for j, block_lists in sides_b.items():
                    iso = is_isomorphic(reps_a[i], reps_b[j])
                    if iso is not None:
                        isos[i].append(([iso.then(aut).images
                                         for aut in automorphisms(reps_b[j])[0]], block_lists))
            cosets = [phi.images[c] for c in _section_quotient(a, s, n)[1]]
            for thetas, block_lists in isos[i]:
                for theta in thetas:
                    for blocks in block_lists:
                        out.append(tuple(x * nb + y for x, c in zip(s, cosets)
                                         for y in blocks[theta[c]]))
    out.sort(key=lambda m: (len(m), m))
    return out


def _enumerate_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Member tuples of all subgroups, sorted by (size, members).

    :func:`subgroups` runs this on any group that is not a product of two or
    more nontrivial factors; for products it is the test oracle of
    :func:`_goursat_subgroups`. Uses layered cyclic extension: every
    discovered subgroup U is extended by each element of its normalizer,
    which reaches exactly the subgroups with a subnormal cyclic chain, i.e.
    all solvable subgroups. For a non-solvable parent we fall back to joining
    with cyclic subgroups to a fixpoint, which is complete for every finite
    group.
    """
    t = g.table
    if is_solvable(g):
        all_subs: dict[tuple, None] = {(0,): None}
        frontier = [(0,)]
        while frontier:
            next_frontier = []
            for u in frontier:
                uset = set(u)
                for x in normalizer_members(g, u):
                    if x in uset:
                        continue
                    # u is normal in <u, x>, so the closure is a coset union
                    v = set(u)
                    y = x
                    while y not in v:
                        v.update(t[m][y] for m in u)
                        y = t[y][x]
                    vt = tuple(sorted(v))
                    if vt not in all_subs:
                        all_subs[vt] = None
                        next_frontier.append(vt)
            frontier = next_frontier
        return sorted(all_subs, key=lambda m: (len(m), m))
    cyclics = sorted({closure(g, [a]) for a in range(g.order)})
    all_set = {(0,)} | set(cyclics)
    changed = True
    while changed:
        changed = False
        for u in sorted(all_set):
            for z in cyclics:
                v = closure(g, set(u) | set(z))
                if v not in all_set:
                    all_set.add(v)
                    changed = True
    return sorted(all_set, key=lambda m: (len(m), m))


def subgroups_bruteforce(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Oracle: enumerate all closed subsets containing 0 by bitmask scan."""
    if g.order > BRUTEFORCE_BOUND:
        raise OrderBound(f"brute-force oracle capped at order {BRUTEFORCE_BOUND}")
    n = g.order
    t = g.table
    out = []
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        if n % len(members):
            continue
        ok = True
        for a in members:
            row = t[a]
            for b in members:
                if not mask >> row[b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(members))
    out.sort(key=lambda m: (len(m), m))
    return out


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups; representative is the lex-least member."""

    representative: Subgroup
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def subgroup_classes(g: FiniteGroup) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups, ordered by (size, representative)."""
    subs = subgroups(g)
    return _memo(g, "subgroup_classes", lambda: [
        SubgroupClass(subs[ids[0]], tuple(subs[j].members for j in ids))
        for ids in _lattice(g)[1]], bound=True)


def canonical_subgroup_rep(g: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    """Lex-least member tuple in the conjugation orbit of ``members``."""
    ms = tuple(sorted(members))
    if g.is_abelian:
        return ms
    memo = _memo(g, "canon", dict)
    got = memo.get(ms)
    if got is not None:
        return got
    best = ms
    orbit = {ms}
    frontier = [ms]
    gens = generating_sequence(g)
    while frontier:
        m = frontier.pop()
        for x in gens:
            c = conjugate_members(g, m, x)
            if c not in orbit:
                orbit.add(c)
                frontier.append(c)
                if c < best:
                    best = c
    for m in orbit:
        memo[m] = best
    return best


# ---------------------------------------------------------------------------
# Cosets and double cosets
# ---------------------------------------------------------------------------

def left_cosets(g: FiniteGroup, members: Sequence[int]) -> list[tuple[int, ...]]:
    """Left cosets x*U, each sorted, listed by minimal element."""
    t = g.table
    seen = [False] * g.order
    out = []
    for x in range(g.order):
        if seen[x]:
            continue
        cs = tuple(sorted(t[x][m] for m in members))
        for y in cs:
            seen[y] = True
        out.append(cs)
    return out


def double_cosets(g: FiniteGroup, u: Subgroup, v: Subgroup) -> list[int]:
    """Least-index representatives of the double cosets U\\G/V."""
    if u.parent is not g or v.parent is not g:
        raise NotSubgroup("double_cosets: subgroups of a different parent")
    key = (u.members, v.members)
    memo = _memo(g, "double_cosets", dict)
    got = memo.get(key)
    if got is not None:
        return got
    t = g.table
    seen = [False] * g.order
    reps = []
    for x in range(g.order):
        if seen[x]:
            continue
        reps.append(x)
        for a in u.members:
            ax = t[a][x]
            row = t[ax]
            for b in v.members:
                seen[row[b]] = True
    memo[key] = reps
    return reps


# ---------------------------------------------------------------------------
# Quotients and subgroup-as-group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    """A homomorphism as the full image list, one codomain index per element."""

    domain: FiniteGroup
    codomain: FiniteGroup
    images: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_hom(self) -> bool:
        td, tc = self.domain.table, self.codomain.table
        im = self.images
        n = self.domain.order
        if im[0] != 0:
            return False
        return all(im[td[a][b]] == tc[im[a]][im[b]]
                   for a in range(n) for b in range(n))

    def is_bijective(self) -> bool:
        return len(set(self.images)) == self.domain.order == self.codomain.order

    def kernel_members(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.domain.order) if self.images[a] == 0)

    def inverse(self) -> "GroupHom":
        if not self.is_bijective():
            raise PreconditionViolated("only a bijective homomorphism has an inverse")
        inv = [0] * self.codomain.order
        for a, b in enumerate(self.images):
            inv[b] = a
        return GroupHom(self.codomain, self.domain, tuple(inv))

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite ``other . self`` (apply self first)."""
        if self.codomain is not other.domain:
            raise MiddleMismatch(f"{self.codomain.label} is not the domain "
                                 f"{other.domain.label} of the second map")
        return GroupHom(self.domain, other.codomain,
                        tuple(other.images[x] for x in self.images))


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(range(g.order)))


def sub_as_group(s: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """The subgroup as its own FiniteGroup plus the inclusion hom."""
    memo = _memo(s.parent, "sub_as_group", dict, bound=True)
    got = memo.get(s.members)
    if got is not None:
        return got
    local = {m: i for i, m in enumerate(s.members)}
    t = s.parent.table
    table = [[local[t[a][b]] for b in s.members] for a in s.members]
    grp = FiniteGroup(f"{s.parent.label}!{len(s.members)}.{s.members[1] if len(s.members) > 1 else 0}",
                      table)
    incl = GroupHom(grp, s.parent, s.members)
    memo[s.members] = (grp, incl)
    return grp, incl


def quotient_group(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; cosets ordered by least element."""
    if n.parent is not g:
        raise NotSubgroup("quotient_group: subgroup of a different parent")
    # only quotients by normal subgroups are stored, so a hit needs no scan
    memo = _memo(g, "quotient_group", dict, bound=True)
    got = memo.get(n.members)
    if got is not None:
        return got
    if not is_normal(g, n.members):
        raise NotNormal(f"{list(n.members)} is not normal in {g.label}")
    cosets = left_cosets(g, n.members)
    coset_of = [0] * g.order
    for i, cs in enumerate(cosets):
        for x in cs:
            coset_of[x] = i
    t = g.table
    table = [[coset_of[t[a[0]][b[0]]] for b in cosets] for a in cosets]
    q = FiniteGroup(f"{g.label}/{len(n.members)}", table)
    proj = GroupHom(g, q, tuple(coset_of))
    memo[n.members] = (q, proj)
    return q, proj


# ---------------------------------------------------------------------------
# Conjugacy classes of elements
# ---------------------------------------------------------------------------

def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Element conjugacy classes, each sorted, ordered by least element."""
    def build() -> list[tuple[int, ...]]:
        gens = generating_sequence(g)
        seen = [False] * g.order
        classes = []
        for a in range(g.order):
            if seen[a]:
                continue
            orbit = {a}
            frontier = [a]
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = g.conj(s, x)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            cls = tuple(sorted(orbit))
            for y in cls:
                seen[y] = True
            classes.append(cls)
        return classes
    return _memo(g, "conjugacy_classes", build)


def class_index_map(g: FiniteGroup) -> tuple[int, ...]:
    def build() -> tuple[int, ...]:
        idx = [0] * g.order
        for i, cls in enumerate(conjugacy_classes(g)):
            for x in cls:
                idx[x] = i
        return tuple(idx)
    return _memo(g, "class_index_map", build)


# ---------------------------------------------------------------------------
# Homomorphism enumeration, automorphisms, isomorphism testing
# ---------------------------------------------------------------------------

def _word_plan(g: FiniteGroup, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """BFS derivations (element, predecessor, generator position) covering G."""
    known = {0}
    plan = []
    order = [0]
    i = 0
    while i < len(order):
        x = order[i]
        for j, s in enumerate(gens):
            y = g.table[x][s]
            if y not in known:
                known.add(y)
                order.append(y)
                plan.append((y, x, j))
        i += 1
    if len(known) != g.order:
        raise PreconditionViolated(f"gens do not generate {g.label}")
    return plan


def _induced_map(g: FiniteGroup, h: FiniteGroup, gens: Sequence[int],
                 plan: Sequence[tuple[int, int, int]],
                 images: Sequence[int]) -> list[int]:
    img = [0] * g.order
    for j, s in enumerate(gens):
        img[s] = images[j]
    th = h.table
    for y, x, j in plan:
        img[y] = th[img[x]][images[j]]
    return img


def _hom_candidates(g: FiniteGroup, h: FiniteGroup, gens: Sequence[int],
                    exact_order: bool) -> list[list[int]]:
    cands = []
    for s in gens:
        o = g.element_order(s)
        if exact_order:
            cs = [x for x in range(h.order) if h.element_order(x) == o]
        else:
            cs = [x for x in range(h.order) if o % h.element_order(x) == 0]
        cands.append(cs)
    return cands


def all_homs(g: FiniteGroup, h: FiniteGroup, *, bijective: bool = False,
             first_only: bool = False) -> list[GroupHom]:
    """Enumerate homomorphisms G -> H by generator images, fully verified."""
    gens = generating_sequence(g)
    if not gens:  # trivial G
        hom = GroupHom(g, h, (0,) * g.order)
        if bijective and h.order != 1:
            return []
        return [hom]
    plan = _word_plan(g, gens)
    cands = _hom_candidates(g, h, gens, exact_order=bijective)
    out: list[GroupHom] = []
    th = h.table

    def verify(img: list[int]) -> bool:
        tg = g.table
        n = g.order
        for a in range(n):
            ia = img[a]
            ra = tg[a]
            rh = th[ia]
            for b in range(n):
                if img[ra[b]] != rh[img[b]]:
                    return False
        return True

    for images in itertools.product(*cands):
        img = _induced_map(g, h, gens, plan, images)
        if bijective and len(set(img)) != h.order:
            continue
        if not verify(img):
            continue
        hom = GroupHom(g, h, tuple(img))
        out.append(hom)
        if first_only:
            return out
    return out


def automorphisms(g: FiniteGroup) -> tuple[list[GroupHom], list[GroupHom], int]:
    """All automorphisms, the inner ones, and |Out(G)|."""
    if g.order > DEFAULT_ORDER_BOUND:
        raise OrderBound(f"|{g.label}| exceeds bound {DEFAULT_ORDER_BOUND}")

    def build():
        auts = all_homs(g, g, bijective=True) if g.order != 1 else [identity_hom(g)]
        inner_images = set()
        inner = []
        for x in range(g.order):
            im = tuple(g.conj(x, a) for a in range(g.order))
            if im not in inner_images:
                inner_images.add(im)
                inner.append(GroupHom(g, g, im))
        if len(auts) % len(inner):
            raise AuditFailed(f"|Inn({g.label})| does not divide |Aut({g.label})|")
        return auts, inner, len(auts) // len(inner)
    return _memo(g, "automorphisms", build, bound=True)


def order_profile(g: FiniteGroup) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for a in range(g.order):
        o = g.element_order(a)
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Optional[GroupHom]:
    """An isomorphism G -> H if one exists, else None. Deterministic witness."""
    if g.order > DEFAULT_ORDER_BOUND or h.order > DEFAULT_ORDER_BOUND:
        raise OrderBound("isomorphism test beyond order bound")
    if g.order != h.order:
        return None
    if g.is_abelian != h.is_abelian:
        return None
    if order_profile(g) != order_profile(h):
        return None
    homs = all_homs(g, h, bijective=True, first_only=True)
    return homs[0] if homs else None


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------

def mobius_int(n: int) -> int:
    """Number-theoretic Moebius function."""
    if n < 1:
        raise ValueError("mobius_int needs n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result
