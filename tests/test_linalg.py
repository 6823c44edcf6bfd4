import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisetkit
from bisetkit.cyclotomic import Cyc
from bisetkit.errors import PreconditionViolated
from bisetkit.linalg import RowSpace


def _schoolbook_rank(rows, width):
    """Rank by full Gauss-Jordan elimination of a dense Fraction copy."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _sparse(row):
    """The map of the row's nonzero entries, keyed right to left so that
    nothing can rely on the column order of a map."""
    return {c: row[c] for c in reversed(range(len(row))) if row[c]}


# mostly zeros, so that rows are sparse and often dependent
_entries = st.one_of(st.just(0), st.just(0), st.integers(-2, 2),
                     st.fractions(-2, 2, max_denominator=3))
_matrices = st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.just(w),
    st.lists(st.lists(_entries, min_size=w, max_size=w), max_size=7),
    st.lists(st.lists(_entries, min_size=w, max_size=w), max_size=3),
    st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(_matrices)
def test_rowspace_matches_schoolbook_elimination(data):
    width, rows, probes, bad = data
    dense, sparse = RowSpace(width), RowSpace(width)
    for row in rows:
        assert dense.add(row) == sparse.add(_sparse(row))
    rank = _schoolbook_rank(rows, width)
    assert dense.rank == sparse.rank == rank
    assert dense.pivots == sparse.pivots
    # every other row summed lies in the span; the probes may or may not
    combo = [sum(r[c] for r in rows[::2]) for c in range(width)]
    for probe in probes + [combo]:
        inside = _schoolbook_rank(rows + [probe], width) == rank
        assert dense.contains(probe) == sparse.contains(_sparse(probe)) == inside
    null = sparse.nullspace()
    assert null == dense.nullspace()
    assert len(null) == width - rank
    assert _schoolbook_rank(null, width) == width - rank
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows for v in null)
    for row in ([1] * (width + 1 + bad), [1] * (width - 1 - bad), {width + bad: 1}, {-1 - bad: 1}):
        with pytest.raises(PreconditionViolated):
            sparse.add(row)
        with pytest.raises(PreconditionViolated):
            sparse.contains(row)
    assert sparse.rank == rank


def test_int_rows_give_fraction_pivots():
    space = RowSpace(4)
    assert space.add({3: 2, 1: 4})
    assert space.add([0, 2, 3, 0])
    assert not space.add({1: 6, 2: 6, 3: 1})
    assert space.pivots == {1: {1: 1, 3: Fraction(1, 2)}, 2: {2: 1, 3: Fraction(-1, 3)}}
    assert all(type(x) is Fraction for row in space.pivots.values() for x in row.values())
    assert space.reduce({0: 5, 1: 2}) == {0: 5, 3: -1}


def test_cyclotomic_leads_are_inverted_exactly():
    z = Cyc.root_of_unity(3)
    space = RowSpace(2)
    assert space.add([z, 1])
    assert type(space.pivots[0][0]) is Fraction and space.pivots[0][0] == 1
    assert space.pivots[0][1] == z * z
    assert space.contains({0: z * z, 1: z})
    assert not space.contains([1, 1])


def test_row_checks_survive_optimize(tmp_path):
    code = textwrap.dedent("""
        from bisetkit.errors import PreconditionViolated
        from bisetkit.linalg import RowSpace

        for row in ([1, 0], [1, 0, 0, 0], {3: 1}, {-1: 1}):
            try:
                RowSpace(3).add(row)
            except PreconditionViolated:
                continue
            raise SystemExit(f"{row} accepted under -O")
    """)
    src = str(Path(bisetkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
