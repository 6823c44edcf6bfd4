"""Spans and counters recorded by wrappers around bisetkit's public callables.

The benchmark installs the wrappers from outside; the program carries no
instrumentation. A timed wrapper records one span (name, start, end, parent,
trace id) per call in flat arrays kept in memory and written out once at the
end. A counted wrapper only bumps a counter: it guards callables that run
millions of times, whose time therefore stays in the caller's self time.

``green``, ``acceptance`` and ``cli`` bind layer functions by name
(``from .bisets import compose_transitive``), so installing a wrapper rebinds
every module global that holds the original; ``unwrapped_bindings`` reports
any binding that was missed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("groups", "catalog", "cache", "bisets", "dress", "characters",
          "cyclotomic", "linalg", "green", "cli")

# Class methods to wrap: (module, class, method, span or counter name, kind).
METHODS = [
    ("groups", "FiniteGroup", "encode", "groups.encode", "count"),
    ("groups", "FiniteGroup", "decode", "groups.decode", "count"),
    ("cyclotomic", "CyclotomicNumber", "__mul__", "cyclotomic.mul", "count"),
    ("cyclotomic", "CyclotomicNumber", "__rmul__", "cyclotomic.mul", "count"),
    ("cyclotomic", "CyclotomicNumber", "from_rational", "cyclotomic.from_rational", "count"),
    ("cyclotomic", "CyclotomicNumber", "inverse", "cyclotomic.inverse", "timed"),
    ("linalg", "RowSpace", "add", "linalg.add", "timed"),
    ("linalg", "RowSpace", "contains", "linalg.contains", "timed"),
    ("green", "RBBackend", "compose", "green.backend_compose", "timed"),
    ("green", "RQBackend", "compose", "green.backend_compose", "timed"),
    ("green", "CRCBackend", "compose", "green.backend_compose", "timed"),
    ("green", "RBCBackend", "compose", "green.backend_compose", "timed"),
]
# Private functions that bound a loop a metric is defined on.
PRIVATE = [("green", "_ideal_rowspace")]
# Public functions that are memo lookups or small constructors called tens of
# thousands of times per pool; a span per call would cost more than the call,
# so they are counted only.
COUNT_ONLY = {"groups.conjugate_members", "groups.is_subgroup_members",
              "groups.product_group", "groups.subgroup", "groups.generating_sequence",
              "bisets.element_of", "bisets.zero_element"}


class Tracer:
    """Owns the span arrays, the counters and the installed wrappers."""

    def __init__(self):
        self.on = False
        self.trace_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_trace = array("i")
        self.span_top = array("b")  # 1 unless a span of the same name is open
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counters: dict[str, list[int]] = {}
        self.originals: dict[int, object] = {}  # id(original) -> original
        self._wrapper_of: dict[int, object] = {}
        self.installed: list[str] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def reset_counters(self) -> None:
        for cell in self.counters.values():
            cell[0] = 0

    def timed(self, name: str, fn, hook=None):
        tracer = self
        nid = self._nid(name)
        names, parents, traces = self.span_name, self.span_parent, self.span_trace
        tops, starts, ends = self.span_top, self.span_start, self.span_end
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            traces.append(tracer.trace_id)
            tops.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(i)
            depth[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if hook is not None:
                hook(result, args)
            return result

        return self._register(fn, wrapper)

    def counted(self, name: str, fn):
        tracer = self
        cell = self.counter(name + "_calls")

        def wrapper(*args, **kwargs):
            if tracer.on:
                cell[0] += 1
            return fn(*args, **kwargs)

        return self._register(fn, wrapper)

    def _register(self, fn, wrapper):
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        self.originals[id(fn)] = fn
        self._wrapper_of[id(fn)] = wrapper
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer, the listed methods and
        private loops, then rebind every bisetkit global that held one."""
        mods = {layer: importlib.import_module(f"bisetkit.{layer}") for layer in LAYERS}
        hooks = _hooks(self, mods["cache"])
        for layer, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    self.counted(name, obj)
                else:
                    self.timed(name, obj, hooks.get(name))
                self.installed.append(name)
        for layer, attr in PRIVATE:
            fn = getattr(mods[layer], attr, None)
            if fn is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            self.timed(f"{layer}.{attr}", fn)
            self.installed.append(f"{layer}.{attr}")
        for layer, cls_name, meth, name, kind in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                self.missing.append(f"{layer}.{cls_name}.{meth}")
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrapper_of.get(id(fn))
            if wrapped is None:
                wrapped = (self.counted(name, fn) if kind == "count"
                           else self.timed(name, fn, hooks.get(name)))
            setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
            self.installed.append(f"{layer}.{cls_name}.{meth}")
        for mod in _bisetkit_modules():
            for attr, obj in list(vars(mod).items()):
                if self._is_original(obj):
                    setattr(mod, attr, self._wrapper_of[id(obj)])

    def unwrapped_bindings(self) -> list[str]:
        """Module globals and class attributes still bound to an original."""
        left = []
        for mod in _bisetkit_modules():
            for attr, obj in vars(mod).items():
                if self._is_original(obj):
                    left.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in vars(obj).items():
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if self._is_original(fn):
                            left.append(f"{mod.__name__}.{attr}.{meth}")
        return left

    def _is_original(self, obj) -> bool:
        return id(obj) in self.originals and self.originals[id(obj)] is obj

    # -- output ----------------------------------------------------------

    def dump(self, path: Path, start: int = 0) -> None:
        """Write the spans from index ``start`` on (binary arrays) and the
        counters (JSON) to ``path``; parents before ``start`` become roots."""
        n = len(self.span_start) - start
        parents = array("q", (p - start if p >= start else -1
                              for p in self.span_parent[start:]))
        meta = {"names": self.names, "n": n,
                "counters": {k: v[0] for k, v in self.counters.items()}}
        with open(path, "wb") as f:
            head = json.dumps(meta).encode()
            f.write(len(head).to_bytes(8, "little"))
            f.write(head)
            for arr in (self.span_name[start:], parents, self.span_trace[start:],
                        self.span_top[start:], self.span_start[start:],
                        self.span_end[start:]):
                arr.tofile(f)


def _bisetkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bisetkit" or name.startswith("bisetkit."))]


def _hooks(tracer: Tracer, cache_mod) -> dict:
    hits = tracer.counter("cache.load_hits")
    misses = tracer.counter("cache.load_misses")
    written = tracer.counter("cache.bytes_written")
    useful = tracer.counter("linalg.add_useful")

    def on_load(result, args):
        if result is None:
            misses[0] += 1
        else:
            hits[0] += 1

    def on_store(result, args):
        d = cache_mod.cache_dir()
        if d is not None:
            p = Path(d) / f"{args[0]}.json"
            if p.exists():
                written[0] += p.stat().st_size

    def on_add(result, args):
        if result:
            useful[0] += 1

    return {"cache.load_lattice": on_load, "cache.store_lattice": on_store,
            "linalg.add": on_add}


# ---------------------------------------------------------------------------
# Reading a dump back


class Spans:
    """The spans and counters of one child, read from its dump files (the
    child's own and one per forked item), concatenated."""

    def __init__(self, paths: list[Path]):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.name, self.parent, self.trace = array("i"), array("q"), array("i")
        self.top, self.start, self.end = array("b"), array("d"), array("d")
        for path in paths:
            with open(path, "rb") as f:
                size = int.from_bytes(f.read(8), "little")
                meta = json.loads(f.read(size))
                part = [array(a.typecode) for a in (self.name, self.parent, self.trace,
                                                    self.top, self.start, self.end)]
                for arr in part:
                    arr.fromfile(f, meta["n"])
            # every dump of one child shares the name table's prefix
            if len(meta["names"]) > len(self.names):
                self.names = meta["names"]
            offset = len(self.start)
            self.name.extend(part[0])
            self.parent.extend(p + offset if p >= 0 else -1 for p in part[1])
            for mine, theirs in zip((self.trace, self.top, self.start, self.end), part[2:]):
                mine.extend(theirs)
            for k, v in meta["counters"].items():
                self.counters[k] = self.counters.get(k, 0) + v

    def summarize(self, kinds: dict[int, str], loop: str) -> dict:
        """Per-name call counts and inclusive seconds over item spans, per-name
        counts per item kind, per-layer self seconds, counts of spans whose
        direct parent is a ``loop`` span, and catalog seconds over the whole
        child (set-up included)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        by_kind: dict[tuple[str, str], int] = {}
        under: dict[str, int] = {}
        catalog_s = 0.0
        names = self.names
        loop_id = names.index(loop) if loop in names else -1
        for i in range(n):
            nm = names[self.name[i]]
            layer = layer_of[self.name[i]]
            if layer == "catalog":
                p = parent[i]
                if p < 0 or layer_of[self.name[p]] != "catalog":
                    catalog_s += dur[i]
            t = self.trace[i]
            if t < 0:
                continue
            calls[nm] = calls.get(nm, 0) + 1
            if self.top[i]:
                incl[nm] = incl.get(nm, 0.0) + dur[i]
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
            key = (kinds.get(t, ""), nm)
            by_kind[key] = by_kind.get(key, 0) + 1
            p = parent[i]
            if p >= 0 and self.name[p] == loop_id:
                under[nm] = under.get(nm, 0) + 1
        return {"calls": calls, "incl": incl, "self": self_s, "under": under,
                "by_kind": by_kind, "catalog_s": catalog_s,
                "counters": dict(self.counters)}
