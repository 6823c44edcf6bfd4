"""Checks on the benchmark itself: item determinism, tracer coverage, and the
refusal to run outside a checkout.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from items import WORKLOADS, items_sha256, make_items  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_items_follow_the_seed(workload):
    a, b, c = (items_sha256(make_items(workload, s)) for s in (7, 7, 8))
    assert a == b
    assert a != c


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    from bisetkit import cache
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    cache.set_cache_dir(str(tmp_path_factory.mktemp("lattice-cache")))
    yield tracer
    tracer.on = False
    cache.set_cache_dir(None)


def test_every_binding_is_wrapped(traced):
    assert traced.missing == []
    assert traced.unwrapped_bindings() == []


def _calls(tracer, run) -> dict:
    start = len(tracer.span_start)
    tracer.reset_counters()
    tracer.on, tracer.trace_id = True, 0
    try:
        run()
    finally:
        tracer.on = False
    names = [tracer.names[i] for i in tracer.span_name[start:]]
    calls = {n: names.count(n) for n in set(names)}
    calls.update({k: v[0] for k, v in tracer.counters.items()})
    return calls


def test_stressed_layers_report_calls(traced):
    from bisetkit import catalog, cli, green

    def rb_ahat():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--json", "ahat", "--backend", "rb", "--group", "C3"]) == 0

    calls = _calls(traced, rb_ahat)
    # green and cli reach compose_transitive through their own bindings
    assert calls.get("bisets.compose_transitive", 0) > 0
    assert calls.get("green.backend_compose", 0) > 0
    assert calls.get("linalg.add", 0) > 0
    assert calls.get("cli.main", 0) == 1

    g, k = catalog.group_by_name("C3"), catalog.group_by_name("C4")
    calls = _calls(traced, lambda: green.crc_product_span(g, k))
    assert calls.get("linalg.add", 0) > 0
    assert calls.get("characters.character_table", 0) > 0
    assert calls.get("cyclotomic.mul_calls", 0) > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "span",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
