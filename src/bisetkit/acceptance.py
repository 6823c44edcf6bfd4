"""The acceptance suite: eleven exact checks, one function per criterion.

Each check returns a report dict with a boolean ``passed`` plus enough detail
to audit the run. ``run_all`` executes a selection in order and prints one
PASS/FAIL line per criterion. Everything is exact arithmetic; there are no
tolerances anywhere.
"""

from __future__ import annotations

import itertools
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from . import catalog as _catalog
from .bisets import (
    all_transitive_classes,
    bouc_decompose,
    compose_bisets,
    compose_oracle,
    element_of,
    recompose,
)
from .characters import (
    artin_coefficients,
    character_table,
    compose_characters,
    cyclic_subgroups,
    perm_character_members,
)
from .dress import (
    DressElement,
    TripleSubgroup,
    counterexample_check,
    d_theta_zeta,
    dress_compose_members,
    dress_oracle,
    factor_classes,
    is_star_decomposable,
    no_bridge_check,
    triple_classes,
    trivial_hom,
)
from .green import (
    RBBackend,
    _ideal_rowspace,
    check_out_iso,
    crc_product_span,
    ell_kernel_dim_from_span,
    primitive_characters,
    seeds_kRQ,
    units_mod,
    xn_ideal_dim,
)
from .groups import (
    FiniteGroup,
    automorphisms,
    closure,
    make_group,
    product_group,
)

# Frozen from the kernel-action oracle; the span computation agrees (see the
# per-m assertions inside criterion 5).
EXPECTED_SEED_COUNTS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 3, 6: 0,
                        7: 5, 8: 2, 9: 4, 10: 0, 11: 9, 12: 1}

SMALL_SET = ("C1", "C2", "C3", "C4", "V4", "S3")


def _group(name: str) -> FiniteGroup:
    return _catalog.group_by_name(name)


def criterion_1_biset_oracle() -> dict:
    """compose_bisets equals compose_oracle on every transitive pair over
    all triples from the small set."""
    checked = 0
    for hn in SMALL_SET:
        h = _group(hn)
        for gn in SMALL_SET:
            g = _group(gn)
            x_classes = all_transitive_classes(h, g)
            for kn in SMALL_SET:
                k = _group(kn)
                y_classes = all_transitive_classes(g, k)
                for xc in x_classes:
                    for yc in y_classes:
                        lhs = compose_bisets(element_of(xc), element_of(yc))
                        rhs = compose_oracle(xc, yc)
                        if lhs != rhs:
                            return {"passed": False, "pairs": checked,
                                    "counterexample": (xc, yc)}
                        checked += 1
    return {"passed": True, "pairs": checked}


def criterion_2_bouc_roundtrip() -> dict:
    """recompose(bouc_decompose(x)) == x for all transitive x over all pairs
    of catalog groups of order <= 8."""
    groups = _catalog.groups_up_to(8)
    checked = 0
    for h in groups:
        for g in groups:
            for xc in all_transitive_classes(h, g):
                if recompose(bouc_decompose(xc)) != element_of(xc):
                    return {"passed": False, "checked": checked,
                            "counterexample": xc}
                checked += 1
    return {"passed": True, "checked": checked}


class AllFactorPairs:
    """Mixin for an rb or rbc backend: no unit rows, and the full product of
    every pair from factor_classes through each middle group. This is the
    all-pairs route that the graph-form rows of the backend replace."""

    def unit_rows(self, h) -> tuple:
        return ()

    def factor_classes(self, h, k):
        return factor_classes(h, k, h, self.c)

    def ideal_rows(self, h, k):
        lefts, rights = self.factor_classes(h, k)
        for pair in itertools.product(lefts, rights):
            yield pair, self._product_row(h, k, *pair)


class OracleRB(AllFactorPairs, RBBackend):
    """The rb ideal by the all-pairs route, every product from the orbit oracle."""

    def compose_pair(self, h, g, k, lrep, mrep):
        return dress_oracle(TripleSubgroup(h, g, self.c, lrep),
                            TripleSubgroup(g, k, self.c, mrep)).coeffs


def criterion_3_rb_out() -> dict:
    """rb quotient dimension equals |Out(H)| with twisted-diagonal basis. The
    rb ideal must also equal the span of the orbit-oracle products of every
    factor-class pair, so the check does not rest on the graph-form rule
    that reads most of the ideal off the classes."""
    rows = []
    ok = True
    for name in ("C1", "C2", "C3", "C4", "V4", "C5", "S3"):
        h = _group(name)
        rep = check_out_iso(h)
        ideal, oracle = _ideal_rowspace(RBBackend(), h), _ideal_rowspace(OracleRB(), h)
        same = (ideal.rank == oracle.rank
                and all(ideal.contains(row) for row in oracle.pivots.values()))
        rows.append({"group": name, "quotient_dim": rep["quotient_dim"],
                     "out_order": rep["out_order"], "match": rep["match"],
                     "oracle_span": same})
        ok = ok and rep["match"] and same
    return {"passed": ok, "rows": rows}


def criterion_4_ell_kernel() -> dict:
    """dim of the ideal generated by the x_n equals the kernel of ell_H from
    the rq span, and the quotient dimension equals the primitive count."""
    rows = []
    ok = True
    for m in (1, 2, 3, 4, 6, 8):
        h = make_group("cyclic", m)
        xdim = xn_ideal_dim(m)
        kdim = ell_kernel_dim_from_span(h)
        prim = len(primitive_characters(m))
        phi = len(units_mod(m))
        quotient = phi - kdim
        good = xdim == kdim and quotient == prim
        rows.append({"m": m, "xn_ideal_dim": xdim, "ell_kernel_dim": kdim,
                     "quotient_dim": quotient, "primitive_count": prim,
                     "match": good})
        ok = ok and good
    return {"passed": ok, "rows": rows}


def _primitive_count_oracle(m: int) -> int:
    """Independent recount by the kernel-action definition: build the unit
    group as an explicit table group, take its full character table, and test
    triviality on each reduction kernel directly."""
    units = units_mod(m)
    if m == 1:
        return 1  # trivial unit group, no proper divisors: the one character
    pos = {u: i for i, u in enumerate(units)}  # units_mod lists 1 first: the identity is 0
    table = [[pos[a * b % m] for b in units] for a in units]
    chars = character_table(make_group("from_table", table))
    count = 0
    for chi in chars:
        primitive = True
        for n in range(1, m):
            if m % n:
                continue
            kernel_elts = [i for i, u in enumerate(units) if u % n == 1 % n]
            if all(chi.value_at_element(i) == 1 for i in kernel_elts):
                primitive = False
                break
        if primitive:
            count += 1
    return count


def criterion_5_seed_counts() -> dict:
    """seeds_kRQ(12) per-m counts match the independent kernel-action recount
    and the frozen expected table."""
    seeds = seeds_kRQ(12)
    counts: dict[int, int] = {m: 0 for m in range(1, 13)}
    for s in seeds:
        counts[s.m] += 1
    rows = []
    ok = True
    for m in range(1, 13):
        oracle = _primitive_count_oracle(m)
        good = counts[m] == oracle == EXPECTED_SEED_COUNTS[m]
        rows.append({"m": m, "seeds": counts[m], "oracle": oracle,
                     "expected": EXPECTED_SEED_COUNTS[m], "match": good})
        ok = ok and good
    return {"passed": ok, "rows": rows}


def criterion_6_crc_span() -> dict:
    """crc_product_span matches for all catalog pairs with |G x K| <= 36."""
    rows = []
    ok = True
    groups = _catalog.groups_up_to(_catalog.CATALOG_MAX_ORDER)
    for g in groups:
        for k in groups:
            if g.order * k.order > 36:
                continue
            rep = crc_product_span(g, k)
            rows.append({"pair": (g.label, k.label),
                         "rank": rep["product_rank"],
                         "target": rep["target_dim"], "match": rep["match"]})
            ok = ok and rep["match"]
    return {"passed": ok, "pairs": len(rows),
            "rows": [r for r in rows if not r["match"]]}


def criterion_7_coefficient_lemma() -> dict:
    """For H = C4, K = C2: the Artin coefficient of each twisted diagonal in
    the composed character is |K|/|H| = 1/2 exactly when the cyclic pair
    (C, D) satisfies the projection and generator-matching conditions,
    and 0 otherwise."""
    h = make_group("cyclic", 4)
    k = make_group("cyclic", 2)
    hk = product_group(h, k)
    kh = product_group(k, h)
    hh = product_group(h, h)
    auts, _, _ = automorphisms(h)
    half = Fraction(1, 2)
    checked = 0
    failures = []
    full_h = tuple(range(h.order))
    for c_members in cyclic_subgroups(hk):
        tau_c = perm_character_members(hk, c_members)
        c_pairs = [hk.decode(m) for m in c_members]
        proj_c = tuple(sorted({a for a, _ in c_pairs}))
        c_generators = [m for m in c_members
                        if len(closure(hk, [m])) == len(c_members)]
        for d_members in cyclic_subgroups(kh):
            tau_d = perm_character_members(kh, d_members)
            d_set = set(d_members)
            proj_d = tuple(sorted({b for _, b in (kh.decode(m) for m in d_members)}))
            tau = compose_characters(tau_c, tau_d, h, k, h)
            q = artin_coefficients(tau)
            for sigma in auts:
                delta = tuple(sorted(hh.encode((x, sigma(x)))
                                     for x in range(h.order)))
                coeff = q.coefficient(delta)
                cond_i = proj_c == full_h and proj_d == full_h
                cond_ii = False
                if cond_i and c_generators:
                    hh0, x0 = hk.decode(c_generators[0])
                    want = closure(kh, [kh.encode((x0, sigma(hh0)))])
                    cond_ii = set(want) == d_set
                expected = half if (cond_i and cond_ii) else Fraction(0)
                if coeff != expected:
                    failures.append({"C": c_members, "D": d_members,
                                     "sigma": sigma.images,
                                     "coeff": str(coeff),
                                     "expected": str(expected)})
                checked += 1
    return {"passed": not failures, "checked": checked, "failures": failures}


def criterion_8_dress_oracle() -> dict:
    """dress_compose equals dress_oracle exhaustively over the tiny set."""
    small = [make_group("cyclic", n) for n in (1, 2, 3)]
    cs = [make_group("cyclic", 2), make_group("cyclic", 3)]
    checked = 0
    for g in small:
        for l in small:
            for k in small:
                for c in cs:
                    e_classes = triple_classes(g, l, c)
                    d_classes = triple_classes(l, k, c)
                    for e in e_classes:
                        for d in d_classes:
                            lhs = DressElement(
                                g, k, c,
                                dress_compose_members(g, l, k, c,
                                                      e.members, d.members))
                            rhs = dress_oracle(e, d)
                            if lhs != rhs:
                                return {"passed": False, "checked": checked,
                                        "counterexample": (e, d)}
                            checked += 1
    return {"passed": True, "checked": checked}


def criterion_9_rbc_nonzero() -> dict:
    """The twisted-diagonal class is not star-decomposable through smaller
    orders, witnessing a nonzero shifted quotient."""
    c = make_group("cyclic", 2)
    rows = []
    ok = True
    for n in (2, 3):
        g = make_group("cyclic", n)
        auts, _, _ = automorphisms(g)
        ident = next(a for a in auts if a.images == tuple(range(g.order)))
        d = d_theta_zeta(g, c, ident, trivial_hom(c, g))
        witness = is_star_decomposable(d, order_bound=g.order - 1)
        rows.append({"G": g.label, "decomposable": witness is not None})
        ok = ok and witness is None
    return {"passed": ok, "rows": rows}


def criterion_10_no_bridge() -> dict:
    """No full-projection trivial-kernel subgroup bridges C4 and V4 for
    prime-order C."""
    g = make_group("cyclic", 4)
    h = make_group("klein4")
    rows = []
    ok = True
    for n in (2, 3):
        rep = no_bridge_check(g, h, make_group("cyclic", n))
        rows.append({"C": f"C{n}", "passed": rep["passed"],
                     "sections_scanned": rep["sections_scanned"]})
        ok = ok and rep["passed"]
    return {"passed": ok, "rows": rows}


def criterion_11_counterexample() -> dict:
    """The quaternion/dihedral order-16 subgroup survives every check."""
    transcript = counterexample_check()
    return {"passed": transcript["verdict"] == "NOT DECOMPOSABLE",
            "transcript": transcript}


CRITERIA: list[tuple[int, str, Callable[[], dict]]] = [
    (1, "biset oracle equivalence", criterion_1_biset_oracle),
    (2, "Bouc round trip", criterion_2_bouc_roundtrip),
    (3, "rb quotient = ROut(H)", criterion_3_rb_out),
    (4, "kernel of ell_H", criterion_4_ell_kernel),
    (5, "primitivity seed counts", criterion_5_seed_counts),
    (6, "crc product span", criterion_6_crc_span),
    (7, "coefficient lemma 1/2", criterion_7_coefficient_lemma),
    (8, "dress oracle equivalence", criterion_8_dress_oracle),
    (9, "shifted quotient nonzero", criterion_9_rbc_nonzero),
    (10, "prime-order bridge scan", criterion_10_no_bridge),
    (11, "Q8/D8/C4 counterexample", criterion_11_counterexample),
]


def run_all(selected: Optional[list[int]] = None) -> list[dict]:
    results = []
    for number, name, fn in CRITERIA:
        if selected and number not in selected:
            continue
        print(f"running criterion {number}: {name} ...", file=sys.stderr, flush=True)
        t0 = time.time()
        report = fn()
        report["criterion"] = number
        report["name"] = name
        report["seconds"] = round(time.time() - t0, 2)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"{status} criterion {number} ({name}) [{report['seconds']}s]",
              flush=True)
        results.append(report)
    return results
