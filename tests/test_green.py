import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bisetkit
from bisetkit import dress
from bisetkit.acceptance import AllFactorPairs, OracleRB
from bisetkit.bisets import compose_bisets
from bisetkit.catalog import CATALOG_MAX_ORDER, group_by_name, groups_of_order, groups_up_to
from bisetkit.characters import character_table, perm_character_members
from bisetkit.dress import DressElement, TripleSubgroup, dress_identity, is_star_decomposable
from bisetkit.errors import NotDivisor, OrderBound
from bisetkit.green import (
    RBBackend,
    RBCBackend,
    RQBackend,
    CRCBackend,
    _ideal_rowspace,
    check_out_iso,
    crc_product_span,
    ell_kernel_dim_from_span,
    get_backend,
    ideal_span,
    kernel_of_reduction,
    primitive_characters,
    seeds_kRQ,
    unit_characters,
    units_mod,
    xn_ideal_dim,
)
from bisetkit.groups import class_index_map, conjugacy_classes, make_group, product_group
from bisetkit.linalg import RowSpace


def test_units_and_characters():
    assert units_mod(1) == [1]
    assert units_mod(8) == [1, 3, 5, 7]
    assert units_mod(12) == [1, 5, 7, 11]
    for m in range(1, 25):
        chars = unit_characters(m)
        assert len(chars) == len(units_mod(m))
        # characters are pairwise distinct
        assert len({c.values for c in chars}) == len(chars)


def test_unit_characters_multiplicative():
    for m in (5, 8, 9, 12, 15):
        units = units_mod(m)
        e_chars = unit_characters(m)
        for ch in e_chars:
            for a in units:
                for b in units:
                    lhs = ch.value_exponent(a * b % m)
                    rhs = (ch.value_exponent(a) + ch.value_exponent(b)) % ch.exponent
                    assert lhs == rhs


def test_kernel_of_reduction():
    assert kernel_of_reduction(12, 4) == [1, 5]
    assert kernel_of_reduction(12, 3) == [1, 7]
    assert kernel_of_reduction(10, 5) == [1]
    with pytest.raises(NotDivisor):
        kernel_of_reduction(6, 4)


def test_primitive_character_counts():
    assert len(primitive_characters(1)) == 1
    assert len(primitive_characters(2)) == 0
    assert len(primitive_characters(8)) == 2
    # m = 8: primitive characters are exactly those nontrivial at 5
    for ch in primitive_characters(8):
        assert ch.value_exponent(5) != 0
    assert len(primitive_characters(6)) == 0
    assert len(primitive_characters(10)) == 0  # Ker pi_{10,5} is trivial


def test_seed_counts_and_keys():
    seeds = seeds_kRQ(12)
    counts = {}
    for s in seeds:
        counts[s.m] = counts.get(s.m, 0) + 1
    assert counts.get(1) == 1
    assert 2 not in counts
    assert counts.get(3) == 1
    assert counts.get(6) is None
    assert counts.get(11) == 9
    # distinct seeds
    assert len(set(seeds)) == len(seeds)


def test_seeds_verify_against_ideal():
    for m in range(1, 17):
        assert ideal_span(RQBackend(), make_group("cyclic", m)).quotient_dim == \
            len(primitive_characters(m))


def test_rq_basis_and_compose_rows_are_fractions():
    # a rational value is a Fraction, never a Cyc, all through the rq backend
    rq = RQBackend()
    groups = [group_by_name(n) for n in ("C1", "C2", "C3", "V4", "S3")]

    def basis(h, g):
        return [rq.basis_vector(h, g, i) for i in range(len(rq.basis_labels(h, g)))]

    for h in groups:
        for g in groups:
            if g.order > 3:
                continue
            for k in groups:
                for beta in basis(h, g):
                    assert all(type(x) is Fraction for x in beta)
                    for alpha in basis(g, k):
                        got = rq.compose(h, g, k, beta, alpha)
                        assert all(type(x) is Fraction for x in got)


def test_ideal_span_rb_trivial_group():
    rep = ideal_span(RBBackend(), make_group("cyclic", 1))
    assert rep.ideal_dim == 0
    assert rep.quotient_dim == 1
    assert rep.ambient_dim == 1


def test_ideal_span_rb_c2():
    rep = ideal_span(RBBackend(), make_group("cyclic", 2))
    assert rep.ambient_dim == 5
    assert rep.quotient_dim == 1


def test_ideal_span_rb_klein():
    rep = ideal_span(RBBackend(), make_group("klein4"))
    assert rep.quotient_dim == 6


def test_check_out_iso_small():
    for name in ("C2", "C3", "V4"):
        rep = check_out_iso(group_by_name(name))
        assert rep["match"], rep


def test_ahat_rq_values():
    rq = RQBackend()
    assert ideal_span(rq, make_group("cyclic", 2)).quotient_dim == 0
    assert ideal_span(rq, make_group("cyclic", 4)).quotient_dim == 1
    assert ideal_span(rq, group_by_name("S3")).quotient_dim == 0


def test_ell_kernel_matches_xn_ideal():
    for m in (1, 2, 3, 4, 6):
        h = make_group("cyclic", m)
        assert ell_kernel_dim_from_span(h) == xn_ideal_dim(m)


def test_ideal_span_confirms_primitive_counts_m9_m10():
    # the direct span computation settles the seed counts where the
    # kernel-trivial degeneracy bites: C9 keeps 4 classes, C10 collapses to 0
    assert ideal_span(RQBackend(), make_group("cyclic", 9)).quotient_dim == 4
    assert len(primitive_characters(9)) == 4
    assert ideal_span(RQBackend(), make_group("cyclic", 10)).quotient_dim == 0
    assert len(primitive_characters(10)) == 0


def _dense_rowspace(backend, h):
    """The crc or rq ideal's row space the slow way: the dense compose of every
    pair of basis vectors through every smaller catalog group."""
    width = len(backend.basis_vector(h, h, 0))
    space, seen = RowSpace(width), set()
    for n in range(1, h.order):
        for k in groups_of_order(n):
            avecs = [backend.basis_vector(h, k, i) for i in range(len(backend.basis_labels(h, k)))]
            bvecs = [backend.basis_vector(k, h, j) for j in range(len(backend.basis_labels(k, h)))]
            for avec in avecs:
                for bvec in bvecs:
                    row = backend.compose(h, k, h, avec, bvec)
                    key = tuple(str(x) for x in row)
                    if key not in seen:
                        seen.add(key)
                        space.add(row)
    return space


# rbc cases whose catalog route is too slow for the suite (C4xC2 at C2: 21 s
# on a 2-CPU host); the all-pairs route through the subquotients of H x C
# stands in
_ALL_PAIRS_ONLY = {("C2", "C4xC2")}


def _slow_rowspace(backend, h):
    """The ideal's row space with no unit rows and every product in full:
    through every catalog group below |H| with rb's products from the orbit
    oracle, rbc's from the Mackey formula over every pair of classes (or over
    every factor-class pair through the subquotients, for _ALL_PAIRS_ONLY),
    and crc's and rq's from the dense compose."""
    if backend.name == "rb":
        return _ideal_rowspace(_OracleCatalogRB(), h)
    if backend.name == "rbc":
        slow = _AllPairsRBC if (backend.c.label, h.label) in _ALL_PAIRS_ONLY else _CatalogRBC
        return _ideal_rowspace(slow(backend.c), h)
    return _dense_rowspace(backend, h)


_C2, _C3, _C4, _V4 = (group_by_name(n) for n in ("C2", "C3", "C4", "V4"))
_EQUIVALENCE_CASES = (
    [(RBBackend(), h) for n in range(1, 7) for h in groups_of_order(n)]
    + [(RQBackend(), h) for n in range(1, 7) for h in groups_of_order(n)]
    + [(RBCBackend(c), h) for c in (_C2, _C3) for n in range(1, 7) for h in groups_of_order(n)]
    + [(RBCBackend(c), h) for c in (_C4, _V4) for n in range(1, 4) for h in groups_of_order(n)]
    + [(RBCBackend(c), group_by_name(h))
       for c, h in ((_C4, "C4"), (_C4, "C5"), (_V4, "C4"), (_V4, "V4"), (_C2, "C4xC2"))]
    + [(CRCBackend(), h) for n in range(1, 7) for h in groups_of_order(n)])


def _case_id(backend, h):
    """backend-H, with the shift group after an @ for rbc at any C but C2."""
    shift = f"@{backend.c.label}" if backend.name == "rbc" and backend.c.order != 2 else ""
    return f"{backend.name}{shift}-{h.label}"


@pytest.mark.parametrize("backend,h", _EQUIVALENCE_CASES,
                         ids=[_case_id(b, h) for b, h in _EQUIVALENCE_CASES])
def test_sparse_rows_span_the_dense_ideal(backend, h):
    sparse, dense = _ideal_rowspace(backend, h), _slow_rowspace(backend, h)
    assert sparse.rank == dense.rank
    assert all(dense.contains(row) for row in sparse.pivots.values())
    assert all(sparse.contains(row) for row in dense.pivots.values())
    assert all(type(x) is Fraction for row in sparse.pivots.values() for x in row.values())


def test_crc_beyond_character_table_bound():
    # crc composes through C1 but needs the character table of C17 x C17
    with pytest.raises(OrderBound):
        ideal_span(CRCBackend(), make_group("cyclic", 17))


class _CatalogIdeal:
    """Mixin: the ideal through every catalog group below |H|, and for rb and
    rbc with every pair of basis classes (the ideal before subquotients)."""

    def middle_groups(self, h):
        return [k for n in range(1, h.order) for k in groups_of_order(n)]

    def factor_classes(self, h, k):
        return list(self._index(h, k)), list(self._index(k, h))


class _CatalogRB(_CatalogIdeal, AllFactorPairs, RBBackend):
    pass


class _CatalogRQ(_CatalogIdeal, RQBackend):
    pass


class _CatalogCRC(_CatalogIdeal, CRCBackend):
    pass


class _CatalogRBC(_CatalogIdeal, AllFactorPairs, RBCBackend):
    pass


class _AllPairsRBC(AllFactorPairs, RBCBackend):
    pass


class _OracleCatalogRB(_CatalogIdeal, OracleRB):
    """The rb catalog ideal with every product taken from the orbit oracle."""


# rq runs to order 12, where its cyclic rule also drops V4 from D12, A4 and
# C6xC2, and S3 from D12 and Dic3
_SUBQUOTIENT_CASES = [(b, h) for b, top in (("rb", 8), ("rq", 12), ("crc", 8))
                      for n in range(1, top + 1) for h in groups_of_order(n)]


@pytest.mark.parametrize("name,h", _SUBQUOTIENT_CASES,
                         ids=[f"{b}-{h.label}" for b, h in _SUBQUOTIENT_CASES])
def test_subquotient_ideal_equals_catalog_ideal(name, h):
    restricted, full = {"rb": (RBBackend(), _CatalogRB()),
                        "rq": (RQBackend(), _CatalogRQ()),
                        "crc": (CRCBackend(), _CatalogCRC())}[name]
    sub, cat = _ideal_rowspace(restricted, h), _ideal_rowspace(full, h)
    assert sub.rank == cat.rank
    assert all(cat.contains(row) for row in sub.pivots.values())
    assert all(sub.contains(row) for row in cat.pivots.values())


def _graph_on_h_side(h, k, c, members, side):
    """Whether E <= H x K x C (side 0) or E <= K x H x C (side 1) has full
    projection and trivial kernel on its H side, read off decoded members."""
    e = TripleSubgroup(h, k, c, members) if side == 0 else TripleSubgroup(k, h, c, members)
    return e.proj(side) == tuple(range(h.order)) and e.kern(side) == (0,)


class _Counting:
    """Mixin: record the (K, lrep, mrep) of every compose_pair call."""

    def compose_pair(self, h, g, k, lrep, mrep):
        self.pairs.append((g, lrep, mrep))
        return super().compose_pair(h, g, k, lrep, mrep)


class _CountingRB(_Counting, RBBackend):
    pass


class _CountingRBC(_Counting, RBCBackend):
    pass


_COUNTING_CASES = ([(_CountingRB(), group_by_name(n)) for n in ("S3", "D8", "Q8")]
                   + [(_CountingRBC(c), group_by_name(n))
                      for c, n in ((_C2, "V4"), (_C2, "C4xC2"), (_C3, "C3"), (_C4, "C4"))])


@pytest.mark.parametrize("backend,h", _COUNTING_CASES,
                         ids=[_case_id(b, h) for b, h in _COUNTING_CASES])
def test_ideal_composes_first_pair_and_graph_form_pairs(backend, h):
    # per middle group K: the first factor-class pair, then only the pairs in
    # graph form on both H sides; at C = C1 (rb) exactly one pair per K
    backend.pairs = []
    _ideal_rowspace(backend, h)
    c, expected, n_all = backend.c, [], 0
    for k in backend.middle_groups(h):
        lefts, rights = dress.factor_classes(h, k, h, c)
        n_all += len(lefts) * len(rights)
        expected.append((k, lefts[0], rights[0]))
        expected += [(k, a, b) for a in lefts if _graph_on_h_side(h, k, c, a, 0)
                     for b in rights if _graph_on_h_side(h, k, c, b, 1)]
    assert backend.pairs == expected
    if backend.name == "rb":
        assert len(backend.pairs) == len(backend.middle_groups(h))
    else:
        assert len(backend.middle_groups(h)) < len(backend.pairs) < n_all


# (H, C): graph-form classes of H x H x C and how many of them
# is_star_decomposable(d, |H| - 1) decomposes, frozen from a run of the search
_TWO_ROUTE_CASES = {("C2", "C2"): (4, 1), ("C3", "C2"): (4, 0), ("C4", "C2"): (8, 0),
                    ("V4", "C2"): (48, 18), ("S3", "C2"): (3, 0), ("C2", "C3"): (2, 0),
                    ("C3", "C3"): (12, 4), ("C2", "C4"): (7, 2), ("C4", "C4"): (22, 6)}


@pytest.mark.parametrize("name,c_name", list(_TWO_ROUTE_CASES),
                         ids=[f"{n}@{c}" for n, c in _TWO_ROUTE_CASES])
def test_rbc_quotient_counts_undecomposable_graph_form_classes(name, c_name):
    # two routes to the shifted quotient: the ideal's ranks, and the
    # decomposability search over the classes in graph form
    h, c = group_by_name(name), group_by_name(c_name)
    graph = [d for d in dress.triple_classes(h, h, c)
             if _graph_on_h_side(h, h, c, d.members, 0) and _graph_on_h_side(h, h, c, d.members, 1)]
    assert tuple(d.members for d in graph) == dress.graph_form_classes(h, h, c)
    decomposable = [d for d in graph if is_star_decomposable(d, h.order - 1) is not None]
    assert (len(graph), len(decomposable)) == _TWO_ROUTE_CASES[name, c_name]
    assert ideal_span(RBCBackend(c), h).quotient_dim == len(graph) - len(decomposable)


def test_rq_middle_groups_are_the_cyclic_subquotients():
    # exp(S3) = 6 = |S3|, so the rule must look for an element of order |K|
    d12 = group_by_name("D12")
    assert [k.order for k in RBBackend().middle_groups(d12)] == [1, 2, 3, 4, 6, 6]
    rq = RQBackend().middle_groups(d12)
    assert [k.order for k in rq] == [1, 2, 3, 6]
    assert all(k.is_abelian for k in rq)


# |Out(H)|, frozen from groups.automorphisms
_OUT_ORDERS = {"C16": 8, "D16": 4, "C4xC4": 96, "Q8xC2": 48}


@pytest.mark.parametrize("name", list(_OUT_ORDERS))
def test_check_out_iso_beyond_catalog(name):
    c2, c4 = make_group("cyclic", 2), make_group("cyclic", 4)
    h = {"C16": lambda: make_group("cyclic", 16), "D16": lambda: make_group("dihedral", 16),
         "C4xC4": lambda: product_group(c4, c4),
         "Q8xC2": lambda: product_group(group_by_name("Q8"), c2)}[name]()
    assert h.label == name
    rep = check_out_iso(h)
    assert rep["match"], rep
    assert rep["quotient_dim"] == _OUT_ORDERS[name]


# len(primitive_characters(m)), frozen from that oracle
_PRIMITIVE_COUNTS = {16: 4, 17: 15, 20: 3}


@pytest.mark.parametrize("m", sorted(_PRIMITIVE_COUNTS))
def test_rq_beyond_catalog(m):
    assert len(primitive_characters(m)) == _PRIMITIVE_COUNTS[m]
    assert ideal_span(RQBackend(), make_group("cyclic", m)).quotient_dim == \
        _PRIMITIVE_COUNTS[m]


def _coords(labels, x):
    """The coordinates of an RB element over the classes named by labels."""
    return {labels.index(rep): v for rep, v in x.coeffs.items()}


def test_identity_nonzero_in_quotient_rb():
    backend = RBBackend()
    for name in ("C2", "C3", "C4"):
        h = group_by_name(name)
        space = _ideal_rowspace(backend, h)
        labels = backend.basis_labels(h, h)
        assert not space.contains(_coords(labels, dress_identity(h, backend.c)))


def test_ideal_is_two_sided_spot():
    # closing the span under composition with ambient basis elements stays inside
    backend = RBBackend()
    h = make_group("cyclic", 3)
    space = _ideal_rowspace(backend, h)
    labels = backend.basis_labels(h, h)
    for row in list(space.pivots.values())[:4]:
        x = DressElement(h, h, backend.c, {labels[c]: v for c, v in row.items()})
        for rep in labels:
            b = DressElement(h, h, backend.c, {rep: Fraction(1)})
            assert space.contains(_coords(labels, compose_bisets(b, x)))
            assert space.contains(_coords(labels, compose_bisets(x, b)))


def test_crc_product_span_examples():
    c1 = make_group("cyclic", 1)
    c2 = make_group("cyclic", 2)
    s3 = group_by_name("S3")
    assert crc_product_span(c1, c1)["match"]
    rep = crc_product_span(c2, c2)
    assert (rep["product_rank"], rep["target_dim"]) == (4, 4)
    rep = crc_product_span(s3, c2)
    assert (rep["product_rank"], rep["target_dim"]) == (6, 6)
    with pytest.raises(OrderBound, match=r"^\|C17xC16\| = 272 exceeds bound 256$"):
        crc_product_span(make_group("cyclic", 17), make_group("cyclic", 16))


def _product_row_rank(g, k):
    """Rank of every product row chi x psi over the classes of G x K, by
    eliminating the whole |Irr G| |Irr K| by k(G x K) matrix."""
    p = product_group(g, k)
    cg, ck = class_index_map(g), class_index_map(k)
    cols = [(cg[a], ck[b]) for a, b in (p.decode(cls[0]) for cls in conjugacy_classes(p))]
    space = RowSpace(len(cols))
    for chi in character_table(g):
        for psi in character_table(k):
            space.add([chi.values[i] * psi.values[j] for i, j in cols])
    return space.rank


def test_crc_product_rank_equals_product_row_rank():
    # every criterion-6 pair: the rank read off the factor tables is the rank
    # of the product rows themselves
    groups = groups_up_to(CATALOG_MAX_ORDER)
    pairs = [(g, k) for g in groups for k in groups if g.order * k.order <= 36]
    assert len(pairs) == 210
    for g, k in pairs:
        rep = crc_product_span(g, k)
        assert rep["product_rank"] == _product_row_rank(g, k) == rep["target_dim"], (g, k)


def test_crc_backend_ahat_trivial_group():
    rep = ideal_span(CRCBackend(), make_group("cyclic", 1))
    assert rep.quotient_dim == 1


def test_crc_backend_ahat_vanishes_beyond_trivial():
    rep = ideal_span(CRCBackend(), make_group("cyclic", 2))
    assert rep.quotient_dim == 0
    rep = ideal_span(CRCBackend(), make_group("cyclic", 3))
    assert rep.quotient_dim == 0


def test_rbc_backend_quotient_contains_twisted_diagonals():
    c2 = make_group("cyclic", 2)
    backend = RBCBackend(c2)
    h = c2
    space = _ideal_rowspace(backend, h)
    # both D_{id, zeta} classes stay outside the ideal: the quotient is nonzero
    from bisetkit.dress import d_theta_zeta
    from bisetkit.groups import GroupHom, automorphisms
    auts, _, _ = automorphisms(h)
    labels = backend.basis_labels(h, h)
    for zeta_images in [(0, 0), (0, 1)]:
        zeta = GroupHom(c2, h, zeta_images)
        d = d_theta_zeta(h, c2, auts[0], zeta)
        vec = backend.basis_vector(h, h, labels.index(d.canonical_rep()))
        assert not space.contains(vec)
    rep = ideal_span(backend, h)
    assert rep.quotient_dim > 0


def test_backend_identity_laws():
    c2 = make_group("cyclic", 2)
    c3 = make_group("cyclic", 3)
    p = product_group(c2, c2)
    diag = tuple(sorted(p.encode((a, a)) for a in range(c2.order)))
    iden = list(perm_character_members(p, diag).values)  # the class of Delta(C2)
    for backend in (RQBackend(), CRCBackend()):
        for i in range(len(backend.basis_labels(c2, c3))):
            v = backend.basis_vector(c2, c3, i)
            assert backend.compose(c2, c2, c3, iden, v) == v
        for i in range(len(backend.basis_labels(c3, c2))):
            v = backend.basis_vector(c3, c2, i)
            assert backend.compose(c3, c2, c2, v, iden) == v


def test_backend_compose_associative_spot():
    c2 = make_group("cyclic", 2)
    backend = RQBackend()
    vs_ab = [backend.basis_vector(c2, c2, i) for i in range(len(backend.basis_labels(c2, c2)))]
    for a in vs_ab[:3]:
        for b in vs_ab[:3]:
            for c in vs_ab[:3]:
                ab = backend.compose(c2, c2, c2, a, b)
                bc = backend.compose(c2, c2, c2, b, c)
                assert backend.compose(c2, c2, c2, ab, c) == backend.compose(c2, c2, c2, a, bc)


def test_get_backend_dispatch():
    assert get_backend("rb").name == "rb"
    assert get_backend("rq").name == "rq"
    assert get_backend("crc").name == "crc"
    assert get_backend("rbc", make_group("cyclic", 2)).name == "rbc"
    with pytest.raises(ValueError):
        get_backend("nope")


def _run_optimized(code, cwd):
    """Run ``code`` under python -O; it must exit 0."""
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_rbc_backend_without_c_survives_optimize(tmp_path):
    # python -O strips assert statements; the missing-C check must not be one
    code = textwrap.dedent("""
        from bisetkit.errors import BisetkitError
        from bisetkit.green import get_backend
        try:
            get_backend("rbc")
        except BisetkitError:
            raise SystemExit(0)
        raise SystemExit("no BisetkitError under -O")
    """)
    _run_optimized(code, tmp_path)


def test_crc_class_check_survives_optimize(tmp_path):
    # a product whose class list merges two classes has fewer classes than
    # pairs of factor classes; the product rows would still have full rank
    # over the merged columns, so only the class check can catch it
    code = textwrap.dedent("""
        import bisetkit.green as green
        from bisetkit.errors import AuditFailed
        from bisetkit.groups import make_group

        real = green.conjugacy_classes

        def merged(g):
            classes = real(g)
            if not g.factors:
                return classes
            return [tuple(sorted(classes[0] + classes[1])), *classes[2:]]

        green.conjugacy_classes = merged
        try:
            green.crc_product_span(make_group("cyclic", 2), make_group("cyclic", 2))
        except AuditFailed:
            raise SystemExit(0)
        raise SystemExit("no AuditFailed under -O")
    """)
    _run_optimized(code, tmp_path)


def test_ideal_checks_survive_optimize(tmp_path):
    # the row width check, the per-K cross-check of the sparse rows and the
    # ambient check of ideal_span all raise typed errors under python -O; the
    # cross-check takes rb's product from the orbit oracle, so a Mackey rule
    # that drops a term is caught too
    code = textwrap.dedent("""
        from fractions import Fraction
        from bisetkit.errors import AuditFailed, OracleInconsistent, PreconditionViolated
        from bisetkit.green import RBBackend, RQBackend, ideal_span
        from bisetkit.groups import make_group
        from bisetkit.linalg import RowSpace

        class Miscounting(RBBackend):
            def ideal_rows(self, h, k):
                for pair, row in super().ideal_rows(h, k):
                    yield pair, {**row, 0: row.get(0, 0) + 1}

        class Lossy(RBBackend):
            def compose_pair(self, h, g, k, lrep, mrep):
                out = dict(super().compose_pair(h, g, k, lrep, mrep))
                del out[min(out)]
                return out

        class Escaping(RQBackend):
            def ideal_rows(self, h, k):
                yield from super().ideal_rows(h, k)
                yield None, {1: 1}  # (0, 1) alone; its rational class holds (0, 2)

        c2, c3, s3 = make_group("cyclic", 2), make_group("cyclic", 3), make_group("symmetric3")
        for exc, fn, arg in [(PreconditionViolated, RowSpace(3).add, [Fraction(1)]),
                             (OracleInconsistent, lambda h: ideal_span(Miscounting(), h), c3),
                             *[(OracleInconsistent, lambda h: ideal_span(Lossy(), h), h)
                               for h in (c2, c3, s3)],
                             (AuditFailed, lambda h: ideal_span(Escaping(), h), c3)]:
            try:
                fn(arg)
            except exc:
                continue
            raise SystemExit(f"no {exc.__name__} under -O")
    """)
    _run_optimized(code, tmp_path)
