import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisetkit
import bisetkit.cache as cache
import bisetkit.groups as groups
from bisetkit.bisets import (
    all_transitive_classes,
    biset_class,
    bouc_decompose,
    element_of,
    recompose,
)
from bisetkit.catalog import groups_up_to
from bisetkit.characters import CharacterVector, character_table
from bisetkit.dress import DressElement, TripleSubgroup, triple_subgroup
from bisetkit.errors import InvalidTable, NotNormal, NotSubgroup, OrderBound
from bisetkit.green import CRCBackend, RBBackend, RBCBackend, RQBackend, ideal_span
from bisetkit.groups import (
    _TABLE_MEMOS,
    DEFAULT_ORDER_BOUND,
    FiniteGroup,
    GroupHom,
    Subgroup,
    SubgroupClass,
    _enumerate_subgroups,
    _goursat_subgroups,
    _section_quotient,
    _sections,
    automorphisms,
    canonical_subgroup_rep,
    center,
    closure,
    conjugacy_classes,
    conjugate_members,
    double_cosets,
    is_isomorphic,
    is_normal,
    is_subgroup_members,
    left_cosets,
    make_group,
    mobius_int,
    product_group,
    quotient_group,
    section_classes,
    sub_as_group,
    subgroup,
    subgroup_classes,
    subgroups,
    subgroups_bruteforce,
    validate_table,
)


def test_trivial_group():
    g = make_group("cyclic", 1)
    assert g.order == 1
    assert g.table == ((0,),)


def test_quaternion_relations():
    q8 = make_group("quaternion8")
    x, y = 1, 2
    assert q8.power(x, 4) == 0
    assert q8.conj(y, x) == q8.inverse(x)
    assert q8.power(x, 2) == q8.power(y, 2)
    assert q8.power(x, 2) != 0


def test_dihedral8_order_profile():
    d8 = make_group("dihedral", 8)
    # oracle: count element orders directly from powers
    count4 = sum(1 for a in range(8) if d8.element_order(a) == 4)
    assert count4 == 2


@given(n=st.integers(min_value=1, max_value=24))
@settings(max_examples=20, deadline=None)
def test_cyclic_axioms(n):
    g = make_group("cyclic", n)
    validate_table(g.table)
    assert g.is_abelian


@given(n=st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_dihedral_axioms(n):
    g = make_group("dihedral", 2 * n)
    validate_table(g.table)
    assert g.order == 2 * n


def test_group_axioms_full_catalog():
    for g in groups_up_to(15):
        validate_table(g.table)


def test_validate_rejects_bad_tables():
    with pytest.raises(InvalidTable):
        validate_table([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(InvalidTable):
        validate_table([[1, 0], [0, 1]])  # 0 is not the identity
    # Latin square with identity but non-associative (a quasigroup)
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidTable):
        validate_table(bad)


def test_from_table_roundtrip():
    d8 = make_group("dihedral", 8)
    g = make_group("from_table", d8.table)
    assert g.table == d8.table


def test_product_group_identity_and_order():
    c1 = make_group("cyclic", 1)
    s3 = make_group("symmetric3")
    assert is_isomorphic(product_group(c1, s3), s3) is not None
    q8 = make_group("quaternion8")
    d8 = make_group("dihedral", 8)
    c4 = make_group("cyclic", 4)
    assert product_group(q8, product_group(d8, c4)).order == 256


def test_product_group_is_klein():
    c2 = make_group("cyclic", 2)
    assert is_isomorphic(product_group(c2, c2), make_group("klein4")) is not None


def test_product_group_index_maps():
    c4 = make_group("cyclic", 4)
    c2 = make_group("cyclic", 2)
    p = product_group(c4, c2)
    for a in range(4):
        for b in range(2):
            assert p.encode((a, b)) == a * 2 + b
            assert p.decode(a * 2 + b) == (a, b)


def test_order_one_factor_shares_the_table():
    c1 = make_group("cyclic", 1)
    c3 = make_group("cyclic", 3)
    s3 = make_group("symmetric3")
    padded = product_group(c3, c1, s3)
    plain = product_group(c3, s3)
    assert padded is not plain
    assert padded.table is plain.table
    assert padded.fingerprint == plain.fingerprint
    for a in range(3):
        for b in range(6):
            x = plain.encode((a, b))
            assert padded.decode(x) == (a, 0, b)
            assert padded.encode((a, 0, b)) == x
    assert product_group(c1, c1).table == c1.table


def test_product_table_is_componentwise():
    # the oracle multiplies decoded components factor by factor
    c2, c3 = make_group("cyclic", 2), make_group("cyclic", 3)
    s3, q8 = make_group("symmetric3"), make_group("quaternion8")
    v4 = product_group(c2, c2)
    for factors in [(c2, s3), (s3, c3), (q8, c3), (c2, c3, s3), (s3, c2, q8),
                    (v4, c3, c2)]:
        p = product_group(*factors)
        for a in range(p.order):
            da = p.decode(a)
            for b in range(p.order):
                db = p.decode(b)
                want = tuple(f.table[x][y] for f, x, y in zip(factors, da, db))
                assert p.table[a][b] == p.encode(want)


def test_fresh_subquotient_products_share_the_folded_table():
    # fresh parents, so their subgroup and quotient are new groups whose
    # tables equal those of C3 and V4
    s3 = FiniteGroup("S3f", make_group("symmetric3").table)
    q8 = FiniteGroup("Q8f", make_group("quaternion8").table)
    sub = sub_as_group(subgroup(s3, [0, 1, 3]))[0]
    quo = quotient_group(q8, subgroup(q8, [0, 3]))[0]
    c1, c2, c3, v4 = (make_group("cyclic", 1), make_group("cyclic", 2),
                      make_group("cyclic", 3), make_group("klein4"))
    assert (sub.table, quo.table) == (c3.table, v4.table)
    for fresh, known in [((sub, quo), (c3, v4)), ((quo, sub, c2), (v4, c3, c2)),
                         ((sub, c1, quo), (c3, v4))]:
        p, q = product_group(*fresh), product_group(*known)
        assert p is not q
        assert p.table is q.table
        assert conjugacy_classes(p) is conjugacy_classes(q)
        assert p.label == "x".join(f.label for f in fresh)
        assert p.factors == fresh
        for x in range(p.order):
            assert p.encode(p.decode(x)) == x
            assert len(p.decode(x)) == len(fresh)


def test_quotient_by_whole_group():
    s3 = make_group("symmetric3")
    q, proj = quotient_group(s3, subgroup(s3, range(6)))
    assert q.order == 1
    assert proj.is_hom()


def test_quotient_q8_by_center_is_klein():
    q8 = make_group("quaternion8")
    z = center(q8)
    assert len(z) == 2
    q, proj = quotient_group(q8, subgroup(q8, z))
    assert proj.is_hom()
    assert is_isomorphic(q, make_group("klein4")) is not None


def test_quotient_c4_by_c2():
    c4 = make_group("cyclic", 4)
    q, _ = quotient_group(c4, subgroup(c4, [0, 2]))
    assert is_isomorphic(q, make_group("cyclic", 2)) is not None


def test_quotient_rejects_non_normal():
    s3 = make_group("symmetric3")
    refl = closure(s3, [2])
    with pytest.raises(NotNormal):
        quotient_group(s3, subgroup(s3, refl))


def test_normality_through_generators_matches_every_conjugate():
    # D normalizes N iff x n x^-1 lies in N for every x in D and n in N
    for g in groups_up_to(12):
        subs = [s.members for s in subgroups(g)]
        for n in subs:
            nset = set(n)
            assert is_normal(g, n) == all(g.conj(x, y) in nset for x in range(g.order) for y in n)
            for d in subs:
                assert is_normal(g, n, within=d) == \
                    all(g.conj(x, y) in nset for x in d for y in n), (g.label, d, n)


def test_subgroup_counts():
    assert len(subgroups(make_group("cyclic", 1))) == 1
    assert len(subgroups(make_group("quaternion8"))) == 6
    v4 = make_group("klein4")
    assert len(subgroups(product_group(v4, v4))) == 67


def test_subgroups_match_bruteforce_oracle():
    for g in groups_up_to(15):
        fast = [s.members for s in subgroups(g)]
        brute = subgroups_bruteforce(g)
        assert fast == brute, g.label


def test_lagrange():
    for g in groups_up_to(12):
        for s in subgroups(g):
            assert g.order % s.order == 0


def test_subgroups_order_bound():
    with pytest.raises(OrderBound):
        subgroups(make_group("cyclic", DEFAULT_ORDER_BOUND + 1))


def test_subgroup_classes_counts():
    s3 = make_group("symmetric3")
    assert len(subgroups(s3)) == 6
    assert len(subgroup_classes(s3)) == 4
    d8 = make_group("dihedral", 8)
    assert len(subgroups(d8)) == 10
    assert len(subgroup_classes(d8)) == 8
    for g in groups_up_to(12):
        if g.is_abelian:
            assert len(subgroup_classes(g)) == len(subgroups(g))


def test_subgroup_classes_are_conjugation_orbits():
    # oracle: conjugate each subgroup by every element of the group
    small = list(groups_up_to(4))
    groups = list(groups_up_to(15)) + [product_group(a, b) for i, a in enumerate(small)
                                       for b in small[i:]]
    for g in groups:
        subs = [s.members for s in subgroups(g)]
        classes = subgroup_classes(g)
        seen = set()
        for cls in classes:
            orbit = {conjugate_members(g, cls.representative.members, x)
                     for x in range(g.order)}
            assert set(cls.members) == orbit, g.label
            assert cls.representative.members == min(orbit) == cls.members[0]
            assert not seen & orbit
            seen |= orbit
        assert seen == set(subs), g.label
        keys = [(c.representative.order, c.representative.members) for c in classes]
        assert keys == sorted(keys), g.label


def test_subgroup_class_representative_is_least():
    d8 = make_group("dihedral", 8)
    for cls in subgroup_classes(d8):
        assert cls.representative.members == min(cls.members)


def test_double_coset_examples():
    s3 = make_group("symmetric3")
    whole = subgroup(s3, range(6))
    triv = subgroup(s3, [0])
    assert double_cosets(s3, whole, whole) == [0]
    assert len(double_cosets(s3, triv, triv)) == 6
    t = subgroup(s3, closure(s3, [2]))
    # oracle: direct enumeration of the coset partition
    seen = set()
    reps = []
    for x in range(6):
        if x in seen:
            continue
        reps.append(x)
        for a in t.members:
            for b in t.members:
                seen.add(s3.mul(s3.mul(a, x), b))
    assert double_cosets(s3, t, t) == reps
    assert len(reps) == 2


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_double_cosets_partition(data):
    pool = groups_up_to(8)
    g = data.draw(st.sampled_from(pool))
    subs = subgroups(g)
    u = data.draw(st.sampled_from(subs))
    v = data.draw(st.sampled_from(subs))
    reps = double_cosets(g, u, v)
    total = set()
    sizes = 0
    for x in reps:
        coset = {g.mul(g.mul(a, x), b) for a in u.members for b in v.members}
        assert not (coset & total)
        total |= coset
        sizes += len(coset)
    assert sizes == g.order


def test_automorphism_counts():
    auts, inner, out = automorphisms(make_group("cyclic", 1))
    assert (len(auts), out) == (1, 1)
    auts, _, _ = automorphisms(make_group("klein4"))
    assert len(auts) == 6
    _, _, out4 = automorphisms(make_group("cyclic", 4))
    assert out4 == 2


def test_inner_automorphisms_match_center_index():
    for g in groups_up_to(12):
        _, inner, _ = automorphisms(g)
        assert len(inner) == g.order // len(center(g))


def test_automorphisms_are_homs():
    for g in [make_group("symmetric3"), make_group("quaternion8")]:
        auts, _, _ = automorphisms(g)
        for a in auts:
            assert a.is_hom() and a.is_bijective()


def test_is_isomorphic_reflexive_and_symmetric():
    for g in groups_up_to(8):
        w = is_isomorphic(g, g)
        assert w is not None and w.is_hom() and w.is_bijective()
    c2 = make_group("cyclic", 2)
    v4 = make_group("klein4")
    p = product_group(c2, c2)
    w = is_isomorphic(p, v4)
    assert w is not None
    assert is_isomorphic(v4, p) is not None
    assert w.inverse().is_hom()


def test_is_isomorphic_distinguishes():
    assert is_isomorphic(make_group("quaternion8"), make_group("dihedral", 8)) is None
    assert is_isomorphic(make_group("cyclic", 4), make_group("klein4")) is None


def _mobius_sieve(limit):
    mu = [0] * (limit + 1)
    mu[1] = 1
    for i in range(1, limit + 1):
        for j in range(2 * i, limit + 1, i):
            mu[j] -= mu[i]
    return mu


@given(n=st.integers(min_value=1, max_value=500))
@settings(max_examples=80, deadline=None)
def test_mobius_against_sieve(n):
    assert mobius_int(n) == _mobius_sieve(500)[n]


def test_mobius_examples():
    assert mobius_int(1) == 1
    assert mobius_int(4) == 0
    assert mobius_int(6) == 1


def test_sub_as_group_and_cosets():
    s3 = make_group("symmetric3")
    s = subgroup(s3, closure(s3, [1]))
    grp, incl = sub_as_group(s)
    assert grp.order == 3
    assert incl.is_hom()
    assert len(left_cosets(s3, s.members)) == 2


def test_left_cosets_listed_by_least_element():
    # quotient_group and dress_oracle index cosets in this order unsorted
    for g in (make_group("symmetric3"), make_group("dihedral", 8), make_group("quaternion8")):
        for s in subgroups(g):
            cosets = left_cosets(g, s.members)
            assert [cs[0] for cs in cosets] == sorted(min(cs) for cs in cosets)
            assert all(list(cs) == sorted(cs) for cs in cosets)
            assert sorted(x for cs in cosets for x in cs) == list(range(g.order))


def test_subgroup_rejects_non_subgroup():
    s3 = make_group("symmetric3")
    with pytest.raises(NotSubgroup):
        subgroup(s3, [0, 1])


def test_out_of_range_members_are_not_subgroups():
    # indices outside range(|G|) never reach the table: no IndexError, and no
    # negative index read from the end of a row
    c1, c2, c4 = make_group("cyclic", 1), make_group("cyclic", 2), make_group("cyclic", 4)
    for check in (lambda: biset_class(c2, c2, [0, 7]),
                  lambda: subgroup(c2, [0, 5]),
                  lambda: triple_subgroup(c2, c2, c1, [0, 9]),
                  lambda: subgroup(c4, [0, 2, -2, -4])):
        with pytest.raises(NotSubgroup):
            check()


def _is_subgroup_all_pairs(g: FiniteGroup, s: set) -> bool:
    """The definition: a finite set holding 0 and closed under products."""
    return 0 in s and all(g.table[a][b] in s for a in s for b in s)


def test_subgroup_check_matches_all_pairs_on_every_subset():
    by_label = {g.label: g for g in groups_up_to(8)}
    for label in ("C2", "C3", "C4", "V4", "S3", "C4xC2", "C2xC2xC2", "D8", "Q8"):
        g = by_label[label]
        found = 0
        for mask in range(1 << g.order):
            s = {x for x in range(g.order) if mask >> x & 1}
            got = is_subgroup_members(g, sorted(s))
            assert got == _is_subgroup_all_pairs(g, s), (label, sorted(s))
            found += got
        assert found == len(subgroups(g)), label


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_subgroup_check_matches_all_pairs_on_products(data):
    pool = groups_up_to(8)
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from([g for g in pool if a.order * g.order <= 64]))
    p = product_group(a, b)
    seed = data.draw(st.lists(st.integers(0, p.order - 1), min_size=1, max_size=3))
    s = set(closure(p, seed))
    assert is_subgroup_members(p, sorted(s))
    changed = [s - {data.draw(st.sampled_from(sorted(s)))}]
    if len(s) < p.order:
        changed.append(s | {data.draw(st.sampled_from(sorted(set(range(p.order)) - s)))})
    for t in changed:
        assert is_subgroup_members(p, sorted(t)) == _is_subgroup_all_pairs(p, t)


def _a5() -> FiniteGroup:
    """A5 from its table, the even permutations of 0..4."""
    index = {(0, 1, 2, 3, 4): 0}
    order = [(0, 1, 2, 3, 4)]
    gens = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]
    i = 0
    while i < len(order):
        x = order[i]
        for g in gens:
            y = tuple(x[g[j]] for j in range(5))
            if y not in index:
                index[y] = len(order)
                order.append(y)
        i += 1
    assert len(order) == 60
    table = [[index[tuple(a[b[j]] for j in range(5))] for b in order]
             for a in order]
    return make_group("from_table", table)


def test_nonsolvable_fallback_on_a5():
    # A5 is simple, so it is not a cyclic extension of any proper subgroup;
    # enumeration must detect non-solvability and switch to the join fixpoint
    a5 = _a5()
    from bisetkit.groups import is_solvable
    assert not is_solvable(a5)
    subs = subgroups(a5)
    assert len(subs) == 59  # classical count, includes A5 itself
    assert subs[-1].order == 60


def _relabelled(g: FiniteGroup, shift: int) -> list[list[int]]:
    """G's table with the elements 1..n-1 rotated by ``shift``: a group table
    of its own, so its memos start empty in this process."""
    n = g.order
    p = [0] + [(a - 1 + shift) % (n - 1) + 1 for a in range(1, n)]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[p[a]][p[b]] = p[g.table[a][b]]
    return table


def _in_fresh_process(code: str, cache_dir) -> list:
    """Run ``code`` in a new interpreter on ``cache_dir``; it prints one JSON value."""
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    prelude = ("import json\nimport bisetkit.cache as cache\n"
               f"cache.set_cache_dir({str(cache_dir)!r})\n")
    proc = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], env=env,
                          cwd=cache_dir, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def test_lattice_disk_cache_roundtrip(tmp_path):
    previous = cache.cache_dir()
    cache.set_cache_dir(str(tmp_path))
    try:
        table = _relabelled(make_group("dihedral", 12), 5)
        g = FiniteGroup("D12r", table)
        subs = subgroups(g)
        classes = subgroup_classes(g)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["order"] == 12
        assert doc["hash"] == g.fingerprint
        assert doc["subgroups"] == [list(s.members) for s in subs]
        assert all(isinstance(ids, list) for ids in doc["classes"])
    finally:
        cache.set_cache_dir(str(previous) if previous else None)
    # an equal table in a fresh process must load from disk and store nothing
    loaded, members, n_classes = _in_fresh_process(f"""
        from bisetkit.groups import FiniteGroup, subgroup_classes, subgroups
        loads = []
        load = cache.load_lattice

        def counted_load(*a):
            got = load(*a)
            loads.append(got is not None)
            return got
        cache.load_lattice = counted_load
        cache.store_lattice = lambda *a: loads.append("stored")
        g = FiniteGroup("D12", {table!r})
        members = [list(s.members) for s in subgroups(g)]
        print(json.dumps([loads, members, len(subgroup_classes(g))]))
    """, tmp_path)
    assert loaded == [True]
    assert members == [list(s.members) for s in subs]
    assert n_classes == len(classes)


def test_lattice_miss_writes_one_file_with_classes(tmp_path, monkeypatch):
    previous = cache.cache_dir()
    cache.set_cache_dir(str(tmp_path))
    stores = []
    store = cache.store_lattice
    monkeypatch.setattr(cache, "store_lattice", lambda *a: stores.append(a) or store(*a))
    try:
        table = _relabelled(make_group("dihedral", 12), 7)
        g = FiniteGroup("D12a", table)
        subgroups(g)
        n_classes = len(subgroup_classes(g))
        assert len(stores) == 1 and stores[0][3] is not None
    finally:
        cache.set_cache_dir(str(previous) if previous else None)
    # a file without classes is a miss, recomputed and written again
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["classes"]
    path.write_text(json.dumps(doc))
    n_classes2, n_stores = _in_fresh_process(f"""
        from bisetkit.groups import FiniteGroup, subgroup_classes
        stores = []
        store = cache.store_lattice
        cache.store_lattice = lambda *a: stores.append(a) or store(*a)
        n_classes = len(subgroup_classes(FiniteGroup("D12b", {table!r})))
        print(json.dumps([n_classes, len(stores)]))
    """, tmp_path)
    assert (n_classes2, n_stores) == (n_classes, 1)
    assert "classes" in json.loads(path.read_text())
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _goursat_products():
    """Catalog pairs with |G x K| <= 64, triples H x K x C with |H|, |K| <= 4
    and C in {C1, C2, C3}, and the non-solvable A5 x C2."""
    cat = groups_up_to(15)
    pairs = [(g, k) for i, g in enumerate(cat) for k in cat[i:]
             if g.order * k.order <= 64]
    small = [g for g in cat if g.order <= 4]
    triples = [(h, k, make_group("cyclic", n))
               for h in small for k in small for n in (1, 2, 3)]
    return [product_group(*f) for f in pairs + triples] \
        + [product_group(_a5(), make_group("cyclic", 2))]


def test_goursat_lattice_matches_cyclic_extension():
    for p in _goursat_products():
        want = _enumerate_subgroups(p)
        if all(f.order > 1 for f in p.factors):
            a, b = product_group(*p.factors[:-1]), p.factors[-1]
            assert _goursat_subgroups(a, b) == want, p.label
        assert [s.members for s in subgroups(p)] == want, p.label
        classes: dict = {}
        for m in want:
            classes.setdefault(canonical_subgroup_rep(p, m), []).append(m)
        assert [list(c.members) for c in subgroup_classes(p)] == list(classes.values()), p.label


@pytest.mark.parametrize("name", ["S3", "D8", "Q8", "A4", "C4xC2", "D12"])
def test_section_classes_partition_the_section_quotients(name):
    from bisetkit.catalog import group_by_name
    g = group_by_name(name)
    for index, pairs in _sections(g).items():
        reps, witness = section_classes(g, index)
        assert all(is_isomorphic(a, b) is None for i, a in enumerate(reps) for b in reps[:i])
        assert set(witness) == set(pairs)
        for s, n in pairs:
            q = _section_quotient(g, s, n)[0]
            assert [i for i, r in enumerate(reps) if is_isomorphic(q, r)] == [witness[s, n][0]]
            phi = witness[s, n][1]
            assert phi.domain is q and phi.codomain is reps[witness[s, n][0]]
            assert phi.is_hom() and phi.is_bijective()


def test_goursat_lattice_matches_bruteforce():
    products = {id(p.table): p for p in _goursat_products() if p.order <= 16}
    for p in products.values():
        assert [s.members for s in subgroups(p)] == subgroups_bruteforce(p), p.label


def test_order_one_factor_shares_the_lattice(monkeypatch):
    h = FiniteGroup("S3c", make_group("symmetric3").table)
    k = FiniteGroup("C4c", make_group("cyclic", 4).table)
    plain = subgroups(product_group(h, k))
    calls = []
    for name in ("store_lattice", "load_lattice"):
        real = getattr(cache, name)
        monkeypatch.setattr(cache, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    padded = product_group(h, k, make_group("cyclic", 1))
    subs = subgroups(padded)
    assert calls == []
    assert [s.members for s in subs] == [s.members for s in plain]
    assert all(s.parent is padded for s in subs)
    assert len(subgroup_classes(padded)) == len(subgroup_classes(product_group(h, k)))


def test_equal_tables_share_table_memos_only():
    table = _relabelled(make_group("symmetric3"), 2)
    a, b = FiniteGroup("S3a", table), FiniteGroup("S3b", table)
    assert conjugacy_classes(a) is conjugacy_classes(b)
    subs_a, subs_b = subgroups(a), subgroups(b)
    assert all(x.members is y.members for x, y in zip(subs_a, subs_b))
    for m in (s.members for s in subs_a):
        assert canonical_subgroup_rep(a, m) is canonical_subgroup_rep(b, m)
    # values that hold the group stay with each group
    assert subs_a is not subs_b
    assert all(s.parent is b for s in subs_b)
    assert all(c.representative.parent is b for c in subgroup_classes(b))
    assert automorphisms(b)[0][0].domain is b
    assert character_table(b)[0].group is b
    assert sub_as_group(subs_a[1])[0].label.startswith("S3a!")
    assert sub_as_group(subs_b[1])[0].label.startswith("S3b!")


def _holds_no_group_value(value, seen: set) -> bool:
    """Whether ``value``, walked through containers, holds no group-bound object."""
    if id(value) in seen:
        return True
    seen.add(id(value))
    bound = (FiniteGroup, Subgroup, SubgroupClass, GroupHom, CharacterVector,
             TripleSubgroup, DressElement)
    if isinstance(value, bound):
        return False
    if isinstance(value, dict):
        return all(_holds_no_group_value(k, seen) and _holds_no_group_value(v, seen)
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(_holds_no_group_value(x, seen) for x in value)
    return True


def test_table_memos_hold_only_data():
    c2, c3, s3 = (make_group("cyclic", 2), make_group("cyclic", 3),
                  make_group("symmetric3"))
    for backend in (RBBackend(), RQBackend(), CRCBackend(), RBCBackend(c2)):
        for h in (c3, s3):
            ideal_span(backend, h)
    p = product_group(s3, c2)
    cls = all_transitive_classes(s3, c2)[-1]
    assert recompose(bouc_decompose(cls)) == element_of(cls)
    character_table(p)
    assert _TABLE_MEMOS
    for table, memo in _TABLE_MEMOS.items():
        assert _holds_no_group_value(memo, set()), len(table)


def test_padded_product_first_enumerates_once(tmp_path, monkeypatch):
    h = FiniteGroup("S3p", _relabelled(make_group("symmetric3"), 1))
    k = FiniteGroup("C4p", _relabelled(make_group("cyclic", 4), 1))
    previous = cache.cache_dir()
    cache.set_cache_dir(str(tmp_path))
    try:
        for factor in (h, k):  # the factors' own lattices, before counting
            subgroups(factor)
        stores, splits = [], []
        store = cache.store_lattice
        monkeypatch.setattr(cache, "store_lattice", lambda *a: stores.append(a) or store(*a))
        split = groups._goursat_subgroups
        monkeypatch.setattr(groups, "_goursat_subgroups",
                            lambda *a: splits.append(a) or split(*a))
        padded = product_group(h, k, make_group("cyclic", 1))
        subs = subgroups(padded)
        plain = product_group(h, k)
        assert [s.members for s in subgroups(plain)] == [s.members for s in subs]
        assert len(splits) == 1 and splits[0][:2] == (h, k)
        assert len(stores) == 1 and stores[0][0] == plain.fingerprint
        assert len(list(tmp_path.glob("*.json"))) == 3  # h, k and h x k
    finally:
        cache.set_cache_dir(str(previous) if previous else None)


def test_only_groups_touches_memo_stores():
    # every memo is read through groups._memo; no other module reaches into
    # a group's stores, so the table/group split is kept in one place
    package = Path(bisetkit.__file__).resolve().parent
    stores = {"_derived", "_memo", "_group_memo", "_table_memo"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in stores:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_no_assert_in_src():
    # python -O strips assert statements, so no check in src/ may be one
    package = Path(bisetkit.__file__).resolve().parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_group_checks_survive_optimize(tmp_path):
    # each precondition reachable through the public API raises a typed error
    # under python -O, where an assert would be stripped
    code = textwrap.dedent("""
        from bisetkit.errors import MiddleMismatch, PreconditionViolated
        from bisetkit.groups import (GroupHom, Subgroup, identity_hom, make_group,
                                     product_group, subgroup)
        c2, c3 = make_group("cyclic", 2), make_group("cyclic", 3)
        cases = [
            (PreconditionViolated, lambda: Subgroup(c3, ())),
            (PreconditionViolated, lambda: Subgroup(c3, (1, 2))),
            (PreconditionViolated, lambda: subgroup(c3, [2, 1], check=False)),
            (PreconditionViolated, lambda: c3.encode((0,))),
            (PreconditionViolated, lambda: c3.decode(0)),
            (PreconditionViolated, lambda: product_group()),
            (PreconditionViolated, lambda: GroupHom(c2, c2, (0, 0)).inverse()),
            (MiddleMismatch, lambda: identity_hom(c2).then(identity_hom(c3))),
        ]
        for i, (err, fn) in enumerate(cases):
            try:
                fn()
            except err:
                continue
            raise SystemExit(f"case {i}: no {err.__name__} under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
