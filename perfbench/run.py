"""bisetkit benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload compose --seed 1 --seconds 28 --trace 0

Each run generates the workload's items from the seed, then measures rounds
of fresh child processes (child.py), one at a time, until ``--seconds`` have
passed (at least MIN_ROUNDS rounds). Every child runs the whole item pool once
and checks every answer exactly. Outside ``lattice`` a round is one process
reading a cache directory warmed once by an untimed pass over the same items;
for ``lattice`` it is a cold process on an empty directory and a warm process
on the directory the cold one left. Times are each item's best over the run.
With ``--trace 1`` each round instead pairs an untraced and a traced process
(cold and warm of each for ``lattice``), and the per-layer metrics come from
the traced ones.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
nonzero if any item failed its exact check or a stated check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from items import WORKLOADS, items_sha256, make_items  # noqa: E402
from tracer import LAYERS, Spans  # noqa: E402

MIN_ROUNDS = 3
MIN_ROUNDS_TRACE = 2
CHILD_TIMEOUT_S = 120.0
RUN_CAP_S = 150.0  # start no round expected to end later, whatever --seconds says
WORK_DIR = ".perfbench-work"
# distinct_row_ratio counts the RowSpace.add calls and backend compositions
# made directly inside this loop of the ideal span.
ROWSPACE_LOOP = "green._ideal_rowspace"
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0)

E2E_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mib": "MiB", "warm_items_per_s": "1/s"}

# Per-layer metric -> (unit, how it is derived from a traced child summary).
# "calls:NAME" counts spans, "incl:NAME" sums top-level span seconds,
# "ctr:NAME" reads a counter, "self:LAYER" sums a layer's self seconds.
PER_LAYER = {
    "linalg.add_calls": ("count", "calls:linalg.add"),
    "linalg.add_s": ("s", "incl:linalg.add"),
    "linalg.add_useful_ratio": ("ratio", None),
    "cyclotomic.mul_calls": ("count", "ctr:cyclotomic.mul_calls"),
    "cyclotomic.inverse_calls": ("count", "calls:cyclotomic.inverse"),
    "cyclotomic.inverse_s": ("s", "incl:cyclotomic.inverse"),
    "cyclotomic.from_rational_calls": ("count", "ctr:cyclotomic.from_rational_calls"),
    "bisets.compose_calls": ("count", "calls:bisets.compose_transitive"),
    "bisets.compose_s": ("s", "incl:bisets.compose_transitive"),
    "bisets.oracle_calls": ("count", "calls:bisets.compose_oracle"),
    "bisets.oracle_s": ("s", "incl:bisets.compose_oracle"),
    "bisets.bouc_s": ("s", "incl:bisets.bouc_decompose"),
    "bisets.transitive_classes_s": ("s", "incl:bisets.all_transitive_classes"),
    "dress.compose_calls": ("count", "calls:dress.dress_compose_members"),
    "dress.compose_s": ("s", "incl:dress.dress_compose_members"),
    "dress.oracle_s": ("s", "incl:dress.dress_oracle"),
    "groups.subgroups_s": ("s", "incl:groups.subgroups"),
    "groups.subgroup_classes_s": ("s", "incl:groups.subgroup_classes"),
    "groups.automorphisms_s": ("s", "incl:groups.automorphisms"),
    "groups.conjugacy_classes_s": ("s", "incl:groups.conjugacy_classes"),
    "groups.canonical_rep_calls": ("count", "calls:groups.canonical_subgroup_rep"),
    "groups.canonical_rep_s": ("s", "incl:groups.canonical_subgroup_rep"),
    "groups.double_cosets_s": ("s", "incl:groups.double_cosets"),
    "groups.product_group_calls": ("count", "ctr:groups.product_group_calls"),
    "groups.encode_calls": ("count", "ctr:groups.encode_calls"),
    "groups.decode_calls": ("count", "ctr:groups.decode_calls"),
    "cache.load_hits": ("count", "ctr:cache.load_hits"),
    "cache.load_misses": ("count", "ctr:cache.load_misses"),
    "cache.stores": ("count", "calls:cache.store_lattice"),
    "cache.load_s": ("s", "incl:cache.load_lattice"),
    "cache.store_s": ("s", "incl:cache.store_lattice"),
    "cache.bytes_written": ("B", "ctr:cache.bytes_written"),
    "cache.hit_ratio": ("ratio", None),
    "cache.files": ("count", None),
    "cache.dir_bytes": ("B", None),
    "characters.table_calls": ("count", "calls:characters.character_table"),
    "characters.table_s": ("s", "incl:characters.character_table"),
    "characters.compose_s": ("s", "incl:characters.compose_characters"),
    "characters.perm_character_s": ("s", "incl:characters.perm_character"),
    "green.ideal_span_s": ("s", "incl:green.ideal_span"),
    "green.backend_compose_calls": ("count", "calls:green.backend_compose"),
    "green.backend_compose_s": ("s", "incl:green.backend_compose"),
    "green.distinct_row_ratio": ("ratio", None),
    "catalog.build_s": ("s", None),
    **{f"{layer}.self_s": ("s", f"self:{layer}") for layer in LAYERS},
    "trace.overhead_s": ("s", None),
    "trace.overhead_ratio": ("ratio", None),
}

# Layers each workload is stated to stress: (item kind or "", span or counter
# name) must be nonzero in the traced run.
STRESSED = {
    "compose": [("rb", "bisets.compose_transitive"), ("rb", "bisets.compose_oracle"),
                ("bouc", "bisets.bouc_decompose"), ("dress", "dress.dress_compose_members"),
                ("dress", "dress.dress_oracle"), ("", "ctr:groups.encode_calls"),
                ("", "groups.canonical_subgroup_rep")],
    "ahat": [("rb", "bisets.compose_transitive"), ("rbc", "dress.dress_compose_members"),
             ("rq", "characters.compose_characters"), ("crc", "characters.compose_characters"),
             ("", "green.ideal_span"), ("", "green.backend_compose"), ("", "linalg.add"),
             ("", "cli.main")],
    "span": [("", "linalg.add"), ("", "characters.character_table"),
             ("", "ctr:cyclotomic.mul_calls"), ("", "cyclotomic.inverse")],
    "lattice": [("", "groups.subgroups"), ("", "groups.subgroup_classes"),
                ("", "groups.automorphisms"), ("", "cache.store_lattice"),
                ("", "ctr:cache.load_hits"), ("", "ctr:cache.load_misses")],
}


def _kind(workload: str, item: dict) -> str:
    return {"compose": item.get("kind"), "ahat": item.get("backend")}.get(workload, "")


def _dir_state(path: Path) -> dict:
    if not path.is_dir():
        return {}
    return {p.name: p.stat().st_size for p in sorted(path.iterdir()) if p.is_file()}


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


class Runner:
    """Spawns child processes one at a time inside this run's work dir."""

    def __init__(self, root: Path, work: Path, workload: str, items_path: Path):
        self.root, self.work, self.workload = root, work, workload
        self.items_path = items_path
        self.results: list[dict] = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("BISETKIT_CACHE", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, cache_dir: Path, trace: bool = False) -> dict:
        tag = f"c{len(self.results)}"
        spec = {"src": str(self.root / "src"), "workload": self.workload,
                "items": str(self.items_path), "cache_dir": str(cache_dir),
                "trace": trace, "out": str(self.work / f"{tag}.json"),
                "spans": str(self.work / f"{tag}.spans")}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        before = _dir_state(cache_dir)
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=self.work, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:  # timeout, SIGTERM or ^C: never leave it running
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: "
                               f"{err.decode(errors='replace')[-2000:]}")
        res = json.loads(Path(spec["out"]).read_text())
        res["setup_s"] = res["ready"] - t_spawn
        res["cache_state"] = _dir_state(cache_dir)
        res["wrote_cache"] = res["cache_state"] != before
        if trace:
            res["spans"] = Path(spec["spans"])
        self.results.append(res)
        return res


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _percentile(sorted_xs, p: float) -> float:
    k = max(0, min(len(sorted_xs) - 1, -(-len(sorted_xs) * p // 100) - 1))
    return sorted_xs[int(k)]


def _fresh_dir(work: Path, name: str) -> Path:
    d = work / name
    d.mkdir()
    return d


def run(args, root: Path, work: Path) -> tuple[dict, dict, list[str], int, int]:
    run_start = time.perf_counter()
    items = make_items(args.workload, args.seed)
    items_path = work / "items.json"
    items_path.write_text(json.dumps(items))
    runner = Runner(root, work, args.workload, items_path)
    cold = args.workload == "lattice"
    problems: list[str] = []

    warm_dir = None
    if not cold:
        warm_dir = _fresh_dir(work, "warm-cache")
        runner.child(warm_dir)  # untimed pass that fills the cache

    min_rounds = MIN_ROUNDS_TRACE if args.trace else MIN_ROUNDS
    start = time.perf_counter()
    rounds = []
    last = 0.0
    while True:
        now = time.perf_counter()
        if rounds and now - run_start + last > RUN_CAP_S:
            break
        if len(rounds) >= min_rounds and now - start + last > args.seconds:
            break
        t0 = time.perf_counter()
        n = len(rounds)
        dir_a = _fresh_dir(work, f"cache-{n}a") if cold else warm_dir
        if not args.trace:
            first = runner.child(dir_a)
            # Outside lattice every process reads the warmed cache, so the
            # first process is also the warm one.
            second = runner.child(dir_a) if cold else first
            rounds.append({"first": first, "second": second})
        else:
            dir_b = _fresh_dir(work, f"cache-{n}b") if cold else warm_dir
            plain = [runner.child(dir_a)]
            traced = [runner.child(dir_b, trace=True)]
            if cold:
                plain.append(runner.child(dir_a))
                traced.append(runner.child(dir_b, trace=True))
            rounds.append({"plain": plain, "traced": traced})
        last = time.perf_counter() - t0

    timed = runner.results[0 if cold else 1:]
    if len({c["digest"] for c in runner.results if not c["failed"]}) > 1:
        problems.append("processes disagree on the answers to the same items")
    if not cold and any(c["wrote_cache"] for c in timed):
        problems.append("a timed process missed the warmed lattice cache")

    n = len(items)
    cache_state = runner.results[-1]["cache_state"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "items": n, "items_sha256": items_sha256(items),
        "git_commit": _git_commit(root), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "rounds": len(rounds), "processes": len(runner.results),
        "cache_files": len(cache_state), "cache_bytes": sum(cache_state.values()),
        "answer_sources": runner.results[0]["sources"],
    }
    if args.workload == "ahat":
        record["ahat_stdout_sha256"] = runner.results[0]["stdout_sha256"]

    attempted = sum(c["n"] for c in runner.results)
    failed = sum(c["failed"] for c in runner.results)
    for c in runner.results:
        problems.extend(c["errors"])
    record["fail_ratio"] = failed / attempted

    if not args.trace:
        # Contention from other tenants of the host only ever slows a process
        # down, in bursts of a few seconds, so each item is timed by its best
        # run over the run's processes, and throughput is items over the sum
        # of those best times.
        firsts = [r["first"] for r in rounds]
        best = [min(xs) for xs in zip(*(c["latencies"] for c in firsts))]
        warm_best = [min(xs) for xs in zip(*(r["second"]["latencies"] for r in rounds))]
        lat = sorted(best)
        tail_p = _tail_percentile(n)
        record.update(tail_percentile=tail_p, tail_samples=len(lat),
                      process_items_per_s=[round(c["n"] / c["loop_s"], 4) for c in firsts])
        metrics = {
            "items_per_s": n / sum(best),
            "item_p50_ms": 1000.0 * _median(lat),
            "item_tail_ms": 1000.0 * _percentile(lat, tail_p),
            "setup_s": _median([c["setup_s"] for c in timed]),
            "peak_rss_mib": _median([c["rss_mib"] for c in firsts]),
            "warm_items_per_s": n / sum(warm_best),
        }
        units = E2E_UNITS
    else:
        metrics, stress = _layer_metrics(args.workload, items, rounds, cache_state)
        problems.extend(stress)
        for c in runner.results:
            if c.get("unwrapped"):
                problems.append(f"tracer missed bindings: {c['unwrapped']}")
        record["untraced_names"] = sorted({m for c in runner.results
                                           for m in c.get("missing", [])})
        units = {k: v[0] for k, v in PER_LAYER.items()}
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            record, problems, attempted, failed)


def _layer_metrics(workload: str, items: list[dict], rounds, cache_state):
    kinds = {i: _kind(workload, it) for i, it in enumerate(items)}
    per_round = []
    stress_fail = set()
    for r in rounds:
        sums: dict = {"calls": {}, "incl": {}, "self": {}, "ctr": {}, "by_kind": {},
                      "under": {}}
        catalog_s = 0.0
        for c in r["traced"]:
            s = Spans([c["spans"], *c["span_files"]]).summarize(kinds, ROWSPACE_LOOP)
            for key in ("calls", "incl", "self", "under"):
                for name, v in s[key].items():
                    sums[key][name] = sums[key].get(name, 0) + v
            for name, v in s["counters"].items():
                sums["ctr"][name] = sums["ctr"].get(name, 0) + v
            for name, v in s["by_kind"].items():
                sums["by_kind"][name] = sums["by_kind"].get(name, 0) + v
            catalog_s += s["catalog_s"]
        vals = {}
        for metric, (_, how) in PER_LAYER.items():
            if how is None:
                continue
            src, name = how.split(":", 1)
            vals[metric] = sums[src].get(name, 0)
        adds = vals["linalg.add_calls"]
        vals["linalg.add_useful_ratio"] = sums["ctr"].get("linalg.add_useful", 0) / adds if adds else 0.0
        loads = vals["cache.load_hits"] + vals["cache.load_misses"]
        vals["cache.hit_ratio"] = vals["cache.load_hits"] / loads if loads else 0.0
        vals["cache.files"] = len(cache_state)
        vals["cache.dir_bytes"] = sum(cache_state.values())
        inner = sums["under"]
        composed = inner.get("green.backend_compose", 0)
        vals["green.distinct_row_ratio"] = (inner.get("linalg.add", 0) / composed
                                            if composed else 0.0)
        vals["catalog.build_s"] = catalog_s
        plain_s = sum(c["loop_s"] for c in r["plain"])
        traced_s = sum(c["loop_s"] for c in r["traced"])
        vals["trace.overhead_s"] = traced_s - plain_s
        vals["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        per_round.append(vals)
        for kind, name in STRESSED[workload]:
            if name.startswith("ctr:"):
                got = sums["ctr"].get(name[4:], 0)
            elif kind:
                got = sums["by_kind"].get((kind, name), 0)
            else:
                got = sums["calls"].get(name, 0)
            if not got:
                stress_fail.add(f"stressed layer reports zero calls: {kind or workload} {name}")
        if workload != "lattice" and vals["cache.load_misses"]:
            stress_fail.add(f"cache.load_misses = {vals['cache.load_misses']} in a timed run")
    metrics = {m: _median([v[m] for v in per_round]) for m in PER_LAYER}
    return metrics, sorted(stress_fail)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "bisetkit" / "__init__.py").is_file():
        print(f"error: no bisetkit source tree at {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    base = root / WORK_DIR
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        metrics, record, problems, attempted, failed = run(args, root, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    correct = failed == 0 and not problems
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:8s} {'fail_ratio':32s} {record['fail_ratio']:.6g} ratio")
    if "tail_percentile" in record:
        print(f"{args.workload:8s} {'item_tail_ms percentile':32s} "
              f"p{record['tail_percentile']:g} of {record['tail_samples']} items")
    for p in problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
