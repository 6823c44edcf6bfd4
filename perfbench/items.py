"""Seeded item lists for the four workloads.

This module never imports bisetkit: the items are plain JSON data made from
the seed and a small table of catalog names, so the program under test only
ever receives generated inputs. Element indices follow the catalog's
canonical enumeration (identity 0, then generator words), so a random index
below the group order is always a valid element.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import lcm

# name -> (order, exponent) for the catalog groups the workloads draw from.
CATALOG = {
    "C1": (1, 1), "C2": (2, 2), "C3": (3, 3), "C4": (4, 4), "V4": (4, 2),
    "C5": (5, 5), "C6": (6, 6), "S3": (6, 6), "C7": (7, 7), "C8": (8, 8),
    "C4xC2": (8, 4), "C2xC2xC2": (8, 2), "D8": (8, 4), "Q8": (8, 4),
    "C9": (9, 9), "C3xC3": (9, 3), "C10": (10, 10), "D10": (10, 10),
    "C11": (11, 11), "C12": (12, 12), "C6xC2": (12, 6), "D12": (12, 6),
    "A4": (12, 6), "Dic3": (12, 12), "D14": (14, 14),
}
ORDER_LE_8 = [n for n, (o, _) in CATALOG.items() if o <= 8]
DRESS_GROUPS = ["C1", "C2", "C3", "C4", "V4"]
DRESS_SHIFTS = ["C2", "C3"]

WORKLOADS = ("compose", "ahat", "span", "lattice")

# compose: one pool mixes the three exact-oracle checks in fixed proportions,
# so every seed carries the same share of formula, oracle and Bouc work.
COMPOSE_MIX = (("rb", 700), ("bouc", 350), ("dress", 350))

# The ahat, span and lattice pools are fixed item sets run in a seeded order.
# Their per-item costs span three orders of magnitude, and the presentation
# or orientation of a group moves an item's cost by up to 1.6x, so a seeded
# subset or presentation would move the per-seed totals by more than any
# useful bound. ahat and span items run in forks of one set-up process, so
# their order does not change their cost; lattice items share only the
# factor groups.

# ahat: (backend, group, isomorphism type). Picks above ~0.15 s each at
# commit 9b67895 (rb on C6, S3 and order 8; rq on C6..C10; rbc on C4..C7, S3
# and V4; crc on C4, V4 and S3) are left out so that one pool runs many times
# in a run. The prod(...) names reach the same groups through the CLI's
# product syntax.
AHAT_PICKS = (
    [("rb", g, g) for g in ("C1", "C2", "C3", "C4", "C5", "C7", "V4")]
    + [("rq", g, g) for g in ("C1", "C2", "C3", "C4", "C5", "V4", "S3")]
    + [("rbc", g, g) for g in ("C1", "C2", "C3")]
    + [("crc", g, g) for g in ("C1", "C2", "C3")]
    + [("rb", "prod(C2,C2)", "V4"), ("rq", "prod(C2,C2)", "V4"),
       ("rb", "prod(C1,C4)", "C4"), ("rq", "prod(C1,C3)", "C3"),
       ("rbc", "prod(C1,C2)", "C2")]
)
AHAT_SHIFT = "C2"

# span: pairs from criterion 6's set (|G x K| <= 36), stratified by the
# conductor lcm(exp G, exp K). Pairs above ~0.3 s at commit 9b67895 (among
# them C5xC7 and C3xC11 at 7-10 s, C6xC5 at 1 s) are left out so that one
# pool runs many times in a run.
SPAN_PAIRS = {
    "low": [("C3", "C3"), ("S3", "S3"), ("V4", "V4"), ("C4", "C4"),
            ("Q8", "V4"), ("C3", "A4"), ("C6", "S3"), ("C3", "D12"),
            ("C6", "C3"), ("C6", "V4")],
    "mid": [("D10", "C2"), ("C5", "C2"), ("D14", "C2"), ("C4", "C3"),
            ("C3", "Q8"), ("D8", "C3"), ("C8", "C2"), ("C7", "C2"),
            ("C5", "C3"), ("Dic3", "C3")],
    "high": [("S3", "C5"), ("C5", "S3"), ("D10", "C3"), ("C3", "D10"),
             ("C9", "C2")],
}

# lattice: every unordered pair of catalog groups of order <= 8 with
# |G x K| < 64 (90 pairs); the 15 products of two order-8 groups would take
# most of a cold pass. Automorphisms are enumerated only up to order 12:
# Aut(C2^4) alone has 20160 elements and Aut(C2^6) about 2e10.
LATTICE_AUT_ORDER = 12
LATTICE_MAX_ORDER = 63


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _gens(rng: random.Random, orders: tuple[int, ...]) -> list[list[int]]:
    """1-3 random elements of a product group, as component tuples."""
    return [[rng.randrange(o) for o in orders] for _ in range(rng.randint(1, 3))]


def _compose_items(rng: random.Random) -> list[dict]:
    kinds = [k for k, n in COMPOSE_MIX for _ in range(n)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "rb":
            h, g, k = (rng.choice(ORDER_LE_8) for _ in range(3))
            out.append({"kind": "rb", "h": h, "g": g, "k": k,
                        "l": _gens(rng, (CATALOG[h][0], CATALOG[g][0])),
                        "m": _gens(rng, (CATALOG[g][0], CATALOG[k][0]))})
        elif kind == "bouc":
            h, g = rng.choice(ORDER_LE_8), rng.choice(ORDER_LE_8)
            out.append({"kind": "bouc", "h": h, "g": g,
                        "l": _gens(rng, (CATALOG[h][0], CATALOG[g][0]))})
        else:
            g, l, k = (rng.choice(DRESS_GROUPS) for _ in range(3))
            c = rng.choice(DRESS_SHIFTS)
            co = CATALOG[c][0]
            out.append({"kind": "dress", "g": g, "l": l, "k": k, "c": c,
                        "e": _gens(rng, (CATALOG[g][0], CATALOG[l][0], co)),
                        "d": _gens(rng, (CATALOG[l][0], CATALOG[k][0], co))})
    return out


def _ahat_items(rng: random.Random) -> list[dict]:
    out = [{"backend": b, "group": g, "type": t,
            "c": AHAT_SHIFT if b == "rbc" else None}
           for b, g, t in AHAT_PICKS]
    rng.shuffle(out)
    return out


def _span_items(rng: random.Random) -> list[dict]:
    out = []
    for band, pairs in SPAN_PAIRS.items():
        for g, k in pairs:
            out.append({"g": g, "k": k, "band": band,
                        "conductor": lcm(CATALOG[g][1], CATALOG[k][1])})
    rng.shuffle(out)
    return out


def _lattice_items(rng: random.Random) -> list[dict]:
    out = []
    for i, a in enumerate(ORDER_LE_8):
        for b in ORDER_LE_8[i:]:
            if CATALOG[a][0] * CATALOG[b][0] > LATTICE_MAX_ORDER:
                continue
            out.append({"g": a, "k": b,
                        "auts": CATALOG[a][0] * CATALOG[b][0] <= LATTICE_AUT_ORDER})
    rng.shuffle(out)
    return out


_MAKERS = {"compose": _compose_items, "ahat": _ahat_items,
           "span": _span_items, "lattice": _lattice_items}


def make_items(workload: str, seed: int) -> list[dict]:
    return _MAKERS[workload](_rng(workload, seed))


def items_sha256(items: list[dict]) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
