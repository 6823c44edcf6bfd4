"""Command-line front end.

Results go to stdout (optionally as JSON), progress and errors to stderr.
Exit codes: 0 success, 1 a bisetkit error (bad input or a failed check), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from fractions import Fraction

from . import cache as _cache
from . import catalog as _catalog
from .acceptance import CRITERIA, run_all
from .bisets import (
    biset_class,
    bouc_decompose,
    compose_bisets,
    element_of,
    goursat_data,
    recompose,
    zero_element,
)
from .characters import lin_kernel
from .dress import (
    DressElement,
    counterexample_check,
    dress_compose,
    no_bridge_check,
    triple_subgroup,
)
from .errors import BisetkitError, OrderBound
from .green import crc_product_span, get_backend, ideal_span, seeds_kRQ
from .groups import (
    DEFAULT_ORDER_BOUND,
    FiniteGroup,
    automorphisms,
    closure,
    conjugacy_classes,
    make_group,
    order_profile,
    product_group,
    subgroup_classes,
    subgroups,
)


def resolve_group(name: str, bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Accepts catalog names, Cn / Dn shorthands, and prod(A,B) compositions.

    A group of order above ``bound`` raises OrderBound, before its table is
    built whenever the order is known from the name or the factors.
    """
    name = name.strip()
    if name.startswith("prod(") and name.endswith(")"):
        inner = name[5:-1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        if len(parts) < 2:
            raise BisetkitError(f"prod needs at least two factors: {name!r}")
        factors = [resolve_group(p, bound) for p in parts]
        _check_order(name, math.prod(f.order for f in factors), bound)
        return product_group(*factors)
    try:
        g = _catalog.group_by_name(name)
    except BisetkitError:
        kind = {"C": "cyclic", "D": "dihedral"}.get(name[:1])
        if kind is None or not name[1:].isdecimal():
            raise BisetkitError(f"unknown group name {name!r}") from None
        _check_order(name, int(name[1:]), bound)
        return make_group(kind, int(name[1:]))
    _check_order(name, g.order, bound)
    return g


def _check_order(name: str, order: int, bound: int) -> None:
    if order > bound:
        raise OrderBound(f"{name!r} has order {order}, above --order-bound {bound}")


def _parse_generators(text: str, p: FiniteGroup, lone_index: bool = False) -> list[int]:
    """Parse 'a,b,c;a,b,c' into elements of the product group p.

    Each generator needs one integer component per factor of p, each within
    its factor's order; with ``lone_index`` a single integer is an element
    index of p, within |p|. Anything else raises BisetkitError.
    """
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            comps = [int(x) for x in chunk.split(",")]
        except ValueError:
            raise BisetkitError(f"generator {chunk!r} is not a list of integers") from None
        if lone_index and len(comps) == 1:
            orders = [p.order]
        elif len(comps) == len(p.factors):
            orders = [f.order for f in p.factors]
        else:
            raise BisetkitError(f"generator {chunk!r} needs {len(p.factors)} components, "
                                f"one per factor of {p.label}")
        if not all(0 <= x < n for x, n in zip(comps, orders)):
            raise BisetkitError(f"generator {chunk!r} is out of range for {p.label}")
        out.append(comps[0] if len(orders) == 1 else p.encode(comps))
    return out


def _terms(x: DressElement) -> list[dict]:
    return [{"num": v.numerator, "den": v.denominator, "class": list(k)}
            for k, v in sorted(x.coeffs.items())]


def _element_to_json(x: DressElement) -> dict:
    return {"left": x.g.label, "right": x.k.label, "terms": _terms(x)}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _element_from_json(doc, bound: int) -> DressElement:
    """An RB element from its JSON document; every field is checked, and each
    class is built through biset_class, which rejects a non-subgroup."""
    if not (isinstance(doc, dict) and isinstance(doc.get("left"), str)
            and isinstance(doc.get("right"), str) and isinstance(doc.get("terms"), list)):
        raise BisetkitError("an element needs string 'left' and 'right' and a list 'terms'")
    left = resolve_group(doc["left"], bound)
    right = resolve_group(doc["right"], bound)
    n = left.order * right.order
    x = zero_element(left, right)
    for term in doc["terms"]:
        if not isinstance(term, dict):
            raise BisetkitError(f"term {term!r} is not an object")
        num, den, members = term.get("num"), term.get("den", 1), term.get("class")
        if not (_is_int(num) and _is_int(den) and den > 0):
            raise BisetkitError(f"term {term!r} needs integer 'num' and 'den' > 0")
        if not (isinstance(members, list)
                and all(_is_int(m) and 0 <= m < n for m in members)):
            raise BisetkitError(f"class {members!r} is not a list of integers "
                                f"in range({n})")
        x = x + element_of(biset_class(left, right, members), Fraction(num, den))
    return x


def _read_element(path: str, bound: int) -> DressElement:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BisetkitError(f"cannot read element file {path!r}: {exc}") from None
    return _element_from_json(doc, bound)


def _dress_to_json(x: DressElement) -> dict:
    return {"g": x.g.label, "k": x.k.label, "c": x.c.label, "terms": _terms(x)}


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


def cmd_group(args) -> int:
    g = resolve_group(args.name, args.order_bound)
    if args.what == "info":
        doc = {"label": g.label, "order": g.order, "abelian": g.is_abelian,
               "exponent": g.exponent, "conjugacy_classes": len(conjugacy_classes(g)),
               "element_orders": {str(k): v for k, v in order_profile(g)}}
        _emit(args, doc, "\n".join(f"{k}: {v}" for k, v in doc.items()))
    elif args.what == "subgroups":
        subs = subgroups(g)
        cls = subgroup_classes(g)
        doc = {"label": g.label, "subgroups": len(subs), "classes": len(cls),
               "by_class": [{"order": c.representative.order,
                             "representative": list(c.representative.members),
                             "size": c.size} for c in cls]}
        lines = [f"{len(subs)} subgroups in {len(cls)} conjugacy classes"]
        for c in cls:
            lines.append(f"  order {c.representative.order:3d}  "
                         f"class size {c.size:3d}  rep {list(c.representative.members)}")
        _emit(args, doc, "\n".join(lines))
    else:  # auts
        auts, inner, out_order = automorphisms(g)
        doc = {"label": g.label, "aut_order": len(auts),
               "inn_order": len(inner), "out_order": out_order}
        _emit(args, doc,
              f"|Aut| = {len(auts)}, |Inn| = {len(inner)}, |Out| = {out_order}")
    return 0


def cmd_compose(args) -> int:
    x = _read_element(args.left, args.order_bound)
    y = _read_element(args.right, args.order_bound)
    mid = resolve_group(args.mid, args.order_bound)
    if x.k.label != mid.label or y.g.label != mid.label:
        raise BisetkitError(
            f"middle group {mid.label} does not match elements "
            f"({x.k.label} / {y.g.label})")
    result = compose_bisets(x, y)
    _emit(args, _element_to_json(result), repr(result))
    return 0


def cmd_bouc(args) -> int:
    h = resolve_group(args.left, args.order_bound)
    g = resolve_group(args.right, args.order_bound)
    p = product_group(h, g)
    cls = biset_class(h, g, closure(p, _parse_generators(args.subgroup, p, lone_index=True)))
    rep = cls.members
    gd = goursat_data(h, g, rep)
    word = bouc_decompose(cls)
    ok = recompose(word) == element_of(cls)
    doc = {
        "left": h.label, "right": g.label,
        "class_representative": list(rep),
        "goursat": {"D": list(gd.d.members), "C": list(gd.c.members),
                    "B": list(gd.b.members), "A": list(gd.a.members),
                    "f_images": list(gd.f.images)},
        "word": [{"left": w.g.label, "right": w.k.label,
                  "stabilizer": list(w.members)} for w in word],
        "roundtrip": ok,
    }
    lines = [f"class of {list(rep)} <= {h.label} x {g.label}",
             f"goursat D={list(gd.d.members)} C={list(gd.c.members)} "
             f"B={list(gd.b.members)} A={list(gd.a.members)}"]
    for tag, w in zip(("Ind", "Inf", "Iso", "Def", "Res"), word):
        lines.append(f"  {tag}: ({w.g.label}, {w.k.label}) / {list(w.members)}")
    lines.append(f"roundtrip: {'ok' if ok else 'MISMATCH'}")
    _emit(args, doc, "\n".join(lines))
    return 0 if ok else 1


def cmd_ahat(args) -> int:
    if args.backend == "rbc" and not args.c:
        print("usage error: --backend rbc requires --c", file=sys.stderr)
        return 2
    if args.backend != "rbc" and args.c:
        print(f"usage error: --c applies only to --backend rbc, not {args.backend}",
              file=sys.stderr)
        return 2
    h = resolve_group(args.group, args.order_bound)
    c = resolve_group(args.c, args.order_bound) if args.c else None
    backend = get_backend(args.backend, c)
    report = ideal_span(backend, h)
    doc = report.to_json_dict()
    human = (f"backend {report.backend}, group {report.group}: "
             f"ambient {report.ambient_dim}, ideal {report.ideal_dim}, "
             f"quotient {report.quotient_dim}")
    _emit(args, doc, human)
    return 0


def cmd_lin_kernel(args) -> int:
    g = resolve_group(args.name, args.order_bound)
    basis = lin_kernel(g)
    labels = [list(c.representative.members) for c in subgroup_classes(g)]
    doc = {"group": g.label, "kernel_dim": len(basis),
           "class_reps": labels,
           "vectors": [[str(x) for x in v] for v in basis]}
    lines = [f"kernel of lin on B({g.label}): dimension {len(basis)}"]
    for v in basis:
        lines.append("  " + " ".join(str(x) for x in v))
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_seeds(args) -> int:
    seeds = seeds_kRQ(args.max_m)
    counts = {m: 0 for m in range(1, args.max_m + 1)}
    for s in seeds:
        counts[s.m] += 1
    doc = {"max_m": args.max_m,
           "counts": {str(m): counts[m] for m in counts},
           "seeds": [{"m": s.m, "character_values":
                      {str(u): k for u, k in s.character.values}}
                     for s in seeds]}
    lines = [f"{'m':>3} {'seeds':>6}"]
    for m in range(1, args.max_m + 1):
        lines.append(f"{m:>3} {counts[m]:>6}")
    _emit(args, doc, "\n".join(lines))
    return 0


def cmd_crc_check(args) -> int:
    g = resolve_group(args.g, args.order_bound)
    k = resolve_group(args.k, args.order_bound)
    rep = crc_product_span(g, k)
    doc = {"g": g.label, "k": k.label, "product_rank": rep["product_rank"],
           "target_dim": rep["target_dim"], "match": rep["match"]}
    _emit(args, doc, f"rank {rep['product_rank']} of {rep['target_dim']}: "
          f"{'match' if rep['match'] else 'MISMATCH'}")
    return 0 if rep["match"] else 1


def cmd_dress_compose(args) -> int:
    g = resolve_group(args.g, args.order_bound)
    l = resolve_group(args.l, args.order_bound)
    k = resolve_group(args.k, args.order_bound)
    c = resolve_group(args.c, args.order_bound)
    p_glc = product_group(g, l, c)
    p_lkc = product_group(l, k, c)
    e_members = closure(p_glc, _parse_generators(args.e, p_glc))
    d_members = closure(p_lkc, _parse_generators(args.d, p_lkc))
    e = triple_subgroup(g, l, c, e_members)
    d = triple_subgroup(l, k, c, d_members)
    x = DressElement(g, l, c, {e.canonical_rep(): Fraction(1)})
    y = DressElement(l, k, c, {d.canonical_rep(): Fraction(1)})
    result = dress_compose(x, y)
    _emit(args, _dress_to_json(result), repr(result))
    return 0


def cmd_no_bridge(args) -> int:
    g = resolve_group(args.g, args.order_bound)
    h = resolve_group(args.h, args.order_bound)
    c = resolve_group(args.c, args.order_bound)
    report = no_bridge_check(g, h, c)
    _emit(args, report,
          f"scanned {report['sections_scanned']} sections; "
          f"bridges: {len(report['bridges'])}; "
          f"{'passed' if report['passed'] else 'bridge exists'}")
    return 0


def cmd_counterexample(args) -> int:
    transcript = counterexample_check()
    if args.json:
        print(json.dumps(transcript, sort_keys=True))
    else:
        for key in ("groups", "T", "tau", "order4_candidates"):
            print(f"{key}: {json.dumps(transcript[key], sort_keys=True)}")
        print(f"admissible kernels at bound 7: "
              f"{transcript['admissible_kernels_bound7']}")
        print(transcript["verdict"])
    return 0


def cmd_accept(args) -> int:
    # under --json the PASS/FAIL lines go to stderr, so stdout is one JSON array
    with contextlib.redirect_stdout(sys.stderr) if args.json else contextlib.nullcontext():
        results = run_all(selected=args.only)
    if args.json:
        stripped = []
        for r in results:
            r = dict(r)
            r.pop("seconds", None)
            r.pop("transcript", None)
            stripped.append(_json_safe(r))
        print(json.dumps(stripped, sort_keys=True))
    return 0 if all(r["passed"] for r in results) else 1


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _criterion_numbers(text: str) -> list[int]:
    known = {number for number, _, _ in CRITERIA}
    try:
        numbers = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers") from None
    if not set(numbers) <= known:
        raise argparse.ArgumentTypeError(f"criteria are numbered {min(known)}-{max(known)}")
    return numbers


def _json_safe(x):
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, str, bool, float)) or x is None:
        return x
    return str(x)


class _Parser(argparse.ArgumentParser):
    """Reads a token such as '-1,0' as a value, as argparse reads '-1', so a
    bad generator gets the program's error line instead of a usage message.
    Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,;]*$")


# subcommand -> (help, handler, {flag: add_argument keywords}), in usage-line order
_COMMANDS = {
    "group": ("inspect a single group", cmd_group,
              {"what": {"choices": ["info", "subgroups", "auts"]}, "name": {}}),
    "compose": ("compose two biset elements from JSON files", cmd_compose,
                {"--left": {"required": True, "help": "JSON file, element of RB(H,G)"},
                 "--mid": {"required": True, "help": "middle group name"},
                 "--right": {"required": True, "help": "JSON file, element of RB(G,K)"}}),
    "bouc": ("Bouc decomposition of a transitive biset", cmd_bouc,
             {"left": {}, "right": {},
              "subgroup": {"help": "generators 'h,g;h,g;...' as component pairs"}}),
    "ahat": ("quotient algebra dimensions", cmd_ahat,
             {"--backend": {"required": True, "choices": ["rb", "rq", "crc", "rbc"]},
              "--group": {"required": True}, "--c": {"help": "shift group for the rbc backend"}}),
    "lin-kernel": ("kernel of linearization on B(G)", cmd_lin_kernel, {"name": {}}),
    "seeds": ("primitive-character seed counts", cmd_seeds,
              {"--max-m": {"type": _positive_int, "required": True}}),
    "crc-check": ("complex product span rank check", cmd_crc_check, {"g": {}, "k": {}}),
    "dress-compose": ("compose two transitive shifted classes", cmd_dress_compose,
                      {"g": {}, "l": {}, "k": {}, "c": {},
                       "--e": {"required": True,
                               "help": "generators of E <= GxLxC: 'g,l,c;g,l,c;...'"},
                       "--d": {"required": True,
                               "help": "generators of D <= LxKxC: 'l,k,c;...'"}}),
    "no-bridge": ("scan for bridging subgroups", cmd_no_bridge, {"g": {}, "h": {}, "c": {}}),
    "counterexample": ("run the Q8/D8/C4 construction", cmd_counterexample, {}),
    "accept": ("run the acceptance suite", cmd_accept, {"--only": {
        "type": _criterion_numbers, "help": "comma-separated criterion numbers"}}),
}

# the main parser's options, whose first letters after "--" differ (and from --help's)
_GLOBAL_OPTIONS = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--cache-dir": {"help": "subgroup lattice cache directory (default: ./.bisetkit-cache)"},
    "--order-bound": {"type": _positive_int, "default": DEFAULT_ORDER_BOUND,
                      "help": "largest order of a group named on the command line"},
}


def _command_in(argv) -> str | None:
    """The subcommand argparse reads off argv, or None where that is not
    certain: help, '--', no or an unknown command, or before the command
    anything but global options, abbreviated or not, each with its value after
    '=' or as the next argument, which must not start with '-'."""
    args = iter([] if "--" in argv else argv)
    for arg in args:
        if not arg.startswith("-"):
            return arg if arg in _COMMANDS else None
        flag, eq, _ = arg.partition("=")
        found = [f for f in _GLOBAL_OPTIONS if f.startswith(flag)]
        if len(found) != 1:
            return None
        takes_value = "action" not in _GLOBAL_OPTIONS[found[0]]  # all but --json
        if eq and not takes_value or takes_value and not eq and next(args, "-").startswith("-"):
            return None
    return None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The main parser with every subcommand, or with ``command``'s alone and a
    metavar naming them all, so usage lines match; the full parser keeps
    argparse's own name for that argument, which its errors show."""
    parser = _Parser(prog="bisetkit",
                     description="Double Burnside ring and Green biset functor computations")
    for flag, options in _GLOBAL_OPTIONS.items():
        parser.add_argument(flag, **options)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (summary, fn, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=summary)
            for flag, options in arguments.items():
                p.add_argument(flag, **options)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_command_in(argv)).parse_args(argv)
    if args.cache_dir is not None:
        _cache.set_cache_dir(args.cache_dir)
    try:
        return args.fn(args)
    except BisetkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
