"""One benchmark process: set up, run every item once, check, report.

Usage: python3 child.py SPEC.json

SPEC names the source tree, the workload, the item file, the lattice cache
directory, whether to trace, and where to write the result. The parent times
this process from spawn; the child reports the clock reading at which its
first item was ready (``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so
the two readings share an origin).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, spec["src"])
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bisetkit import cache, catalog, cli, green  # noqa: E402
from bisetkit import bisets, dress, groups  # noqa: E402

from tracer import Tracer  # noqa: E402

# Answers frozen at commit 9b67895 where no theorem or oracle gives them.
FROZEN = "frozen at commit 9b67895"
RBC_FROZEN = {"C1": 2, "C2": 3, "C3": 4}
RQ_FROZEN = {"V4": 0, "S3": 0}  # by isomorphism type
CYCLIC = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5}


class Mismatch(Exception):
    """An item's answer differs from its expected value."""


def _closure(p, gens):
    return groups.closure(p, [p.encode(tuple(t)) for t in gens])


def _coeffs(x) -> list:
    return sorted((list(k), str(v)) for k, v in x.coeffs.items())


# ---------------------------------------------------------------------------
# compose: Mackey formula vs orbit oracle, Bouc round trip, shifted formula
# vs its oracle


def prepare_compose(item):
    by = catalog.group_by_name
    if item["kind"] == "rb":
        h, g, k = by(item["h"]), by(item["g"]), by(item["k"])
        lm = _closure(groups.product_group(h, g), item["l"])
        mm = _closure(groups.product_group(g, k), item["m"])

        def run():
            xc = bisets.biset_class(h, g, lm)
            yc = bisets.biset_class(g, k, mm)
            lhs = bisets.compose_bisets(bisets.element_of(xc), bisets.element_of(yc))
            return lhs, bisets.compose_oracle(xc, yc)
        return run
    if item["kind"] == "bouc":
        h, g = by(item["h"]), by(item["g"])
        lm = _closure(groups.product_group(h, g), item["l"])

        def run():
            xc = bisets.biset_class(h, g, lm)
            return bisets.recompose(bisets.bouc_decompose(xc)), bisets.element_of(xc)
        return run
    g, l, k, c = (by(item[x]) for x in "glkc")
    em = _closure(groups.product_group(g, l, c), item["e"])
    dm = _closure(groups.product_group(l, k, c), item["d"])

    def run():
        e = dress.triple_subgroup(g, l, c, em)
        d = dress.triple_subgroup(l, k, c, dm)
        lhs = dress.DressElement(g, k, c, dress.dress_compose_members(
            g, l, k, c, e.members, d.members))
        return lhs, dress.dress_oracle(e, d)
    return run


def check_compose(item, out):
    lhs, rhs = out
    if lhs != rhs:
        raise Mismatch(f"{item['kind']}: {lhs!r} != {rhs!r}")
    return "identity" if item["kind"] == "bouc" else "oracle", _coeffs(lhs)


# ---------------------------------------------------------------------------
# ahat: quotient dimensions through the CLI


def prepare_ahat(item):
    argv = ["--cache-dir", spec["cache_dir"], "--json", "ahat",
            "--backend", item["backend"], "--group", item["group"]]
    if item["c"]:
        argv += ["--c", item["c"]]
    cli.resolve_group(item["group"])

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()
    return run


def check_ahat(item, out):
    rc, text = out
    if rc != 0:
        raise Mismatch(f"exit code {rc}")
    doc = json.loads(text)
    if doc["ambient"] != doc["ideal"] + doc["quotient"]:
        raise Mismatch("ambient != ideal + quotient")
    h = cli.resolve_group(item["group"])
    backend, iso = item["backend"], item["type"]
    if backend == "rb":
        source = "theorem: |Out(H)| with twisted-diagonal basis"
        auts, _, out_order = groups.automorphisms(h)
        p = groups.product_group(h, h)
        diag = sorted({groups.canonical_subgroup_rep(
            p, tuple(sorted(p.encode((x, a(x))) for x in range(h.order))))
            for a in auts})
        basis = sorted(tuple(json.loads(b)) for b in doc["basis"])
        ok = doc["quotient"] == out_order and basis == diag
    elif backend == "rq" and iso in CYCLIC:
        source = "theorem: primitive character count"
        ok = doc["quotient"] == len(green.primitive_characters(CYCLIC[iso]))
    elif backend == "rq":
        source = FROZEN
        ok = doc["quotient"] == RQ_FROZEN[iso]
    elif backend == "rbc":
        source = FROZEN
        ok = doc["quotient"] == RBC_FROZEN[iso]
    else:
        source = "theorem: crc full rank"
        k = len(groups.conjugacy_classes(h))
        want_q = 1 if h.order == 1 else 0
        ok = doc["quotient"] == want_q and doc["ambient"] == k * k
    if not ok:
        raise Mismatch(f"{backend} {item['group']}: {text.strip()}")
    return source, text


# ---------------------------------------------------------------------------
# span: complex product span over criterion 6's pairs


def prepare_span(item):
    g, k = catalog.group_by_name(item["g"]), catalog.group_by_name(item["k"])
    return lambda: green.crc_product_span(g, k)


def check_span(item, out):
    g, k = catalog.group_by_name(item["g"]), catalog.group_by_name(item["k"])
    want = len(groups.conjugacy_classes(g)) * len(groups.conjugacy_classes(k))
    if not out["product_rank"] == out["target_dim"] == want:
        raise Mismatch(f"{item['g']}x{item['k']}: rank {out['product_rank']}, "
                       f"target {out['target_dim']}, classes {want}")
    return "theorem: crc full rank", [out["product_rank"], out["target_dim"]]


# ---------------------------------------------------------------------------
# lattice: subgroup lattices through the disk cache

LATTICE_FROZEN = json.loads((Path(__file__).resolve().parent
                             / "lattice_expected.json").read_text())


def prepare_lattice(item):
    g, k = catalog.group_by_name(item["g"]), catalog.group_by_name(item["k"])
    p = groups.product_group(g, k)

    def run():
        subs = groups.subgroups(p)
        classes = groups.subgroup_classes(p)
        auts = groups.automorphisms(p) if item["auts"] else None
        return subs, classes, auts
    return run


def check_lattice(item, out):
    subs, classes, auts = out
    members = [list(s.members) for s in subs]
    sizes = [len(c.members) for c in classes]
    key = "x".join(sorted((item["g"], item["k"])))
    want = LATTICE_FROZEN[key]
    got = {"subgroups": len(members), "classes": len(classes)}
    if auts is not None:
        got["auts"] = len(auts[0])
        got["out"] = auts[2]
    if (got != {k: want[k] for k in got} or sum(sizes) != len(members)
            or len({tuple(m) for m in members}) != len(members)):
        raise Mismatch(f"{key}: {got} != {want}")
    return FROZEN, [members, sizes, got]


WORKLOADS = {
    "compose": (prepare_compose, check_compose),
    "ahat": (prepare_ahat, check_ahat),
    "span": (prepare_span, check_span),
    "lattice": (prepare_lattice, check_lattice),
}


# Items of these workloads each run in a fork of the set-up process, so every
# item starts from the in-process memo state a fresh `bisetkit ahat` or
# `bisetkit crc-check` invocation starts from, and the seeded order cannot
# change an item's cost. Small items (compose, lattice) stay in-process: the
# copy-on-write faults of a fork would add a third to a 5 ms lattice item.
FORKED = {"ahat", "span"}


def _checked(check, item, out) -> dict:
    """Check one answer; the result carries a digest of the canonical answer."""
    try:
        source, canonical = check(item, out)
    except Exception as exc:  # a check that raises fails its item
        return {"error": f"{type(exc).__name__}: {exc}"}
    blob = json.dumps(canonical, sort_keys=True).encode()
    res = {"source": source, "digest": hashlib.sha256(blob).hexdigest()}
    if spec["workload"] == "ahat":
        res["stdout"] = out[1]
    return res


def _timed_item(tracer, item_span, i, run):
    tracer.trace_id = i
    tracer.on = bool(spec["trace"])
    t0 = time.perf_counter()
    try:
        out, error = item_span(run), None
    except Exception as exc:  # an item that raises is a failed item
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    lat = time.perf_counter() - t0
    tracer.on = False
    return lat, out, error


def _forked(tracer, item_span, check, i, item, run) -> dict:
    """Run and check one item in a forked process; report through a pipe."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            start = len(tracer.span_start)
            tracer.reset_counters()
            lat, out, error = _timed_item(tracer, item_span, i, run)
            res = {"error": error} if error else _checked(check, item, out)
            res["lat"] = lat
            res["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if spec["trace"]:
                tracer.dump(Path(f"{spec['spans']}.{i}"), start)
            with os.fdopen(w, "wb") as f:
                f.write(json.dumps(res).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"lat": 0.0, "error": f"item process ended with status {status}"}
    return json.loads(data)


def main() -> None:
    prepare, check = WORKLOADS[spec["workload"]]
    items = json.loads(Path(spec["items"]).read_text())
    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
        tracer.on = True
    cache.set_cache_dir(spec["cache_dir"])
    item_span = tracer.timed("bench.item", lambda fn: fn())
    runs = [prepare(item) for item in items]
    ready = time.perf_counter()
    tracer.on = False
    tracer.reset_counters()

    loop_start = time.perf_counter()
    if spec["workload"] in FORKED:
        results = [_forked(tracer, item_span, check, i, item, run)
                   for i, (item, run) in enumerate(zip(items, runs))]
    else:
        timed = [_timed_item(tracer, item_span, i, run) for i, run in enumerate(runs)]
        # Checks run after the loop so that their own memo use cannot speed
        # up a later item.
        results = []
        for item, (lat, out, error) in zip(items, timed):
            res = {"error": error} if error else _checked(check, item, out)
            res["lat"] = lat
            results.append(res)
    loop_s = time.perf_counter() - loop_start
    rss_kib = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                  + [r.get("rss_kib", 0) for r in results])

    digest = hashlib.sha256()
    stdout_digest = hashlib.sha256()
    sources: dict[str, int] = {}
    errors = []
    for i, res in enumerate(results):
        if res.get("error"):
            errors.append(f"item {i}: {res['error']}")
            continue
        sources[res["source"]] = sources.get(res["source"], 0) + 1
        digest.update(res["digest"].encode())
        stdout_digest.update(res.get("stdout", "").encode())

    result = {
        "ready": ready, "loop_s": loop_s, "latencies": [r["lat"] for r in results],
        "n": len(items), "failed": len(errors), "errors": errors[:5],
        "rss_mib": rss_kib / 1024.0, "digest": digest.hexdigest(),
        "stdout_sha256": stdout_digest.hexdigest() if spec["workload"] == "ahat" else None,
        "sources": sources,
    }
    if spec["trace"]:
        tracer.dump(Path(spec["spans"]))
        result["span_files"] = [f"{spec['spans']}.{i}" for i in range(len(items))
                                if spec["workload"] in FORKED]
        result["unwrapped"] = tracer.unwrapped_bindings()
        result["missing"] = tracer.missing
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
