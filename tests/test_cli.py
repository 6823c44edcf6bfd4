import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisetkit
from bisetkit import cli
from bisetkit.cli import main, resolve_group
from bisetkit.errors import BisetkitError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resolve_group_names():
    assert resolve_group("C7").order == 7
    assert resolve_group("V4").order == 4
    assert resolve_group("D12").order == 12
    assert resolve_group("Dic3").order == 12
    assert resolve_group("prod(C2,C2,C2)").order == 8
    assert resolve_group("prod(Q8,prod(D8,C4))").order == 256
    with pytest.raises(BisetkitError):
        resolve_group("E8")


def test_ahat_rb_v4(capsys):
    code, out, _ = run(capsys, "ahat", "--backend", "rb", "--group", "V4")
    assert code == 0
    assert "quotient 6" in out


def test_ahat_rb_beyond_catalog(capsys):
    # D16 is not in the catalog; rb composes through its subquotients and the
    # quotient is |Out(D16)| = 4
    code, out, _ = run(capsys, "ahat", "--backend", "rb", "--group", "D16")
    assert code == 0
    assert "quotient 4" in out


def test_ahat_rbc_beyond_lattice_bound(capsys):
    # rbc composes through subquotients of C17 x C2, so only the lattice of
    # C17 x C17 x C2 stops it, never a catalog
    code, out, err = run(capsys, "ahat", "--backend", "rbc", "--group", "C17", "--c", "C2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "578 exceeds bound 256" in err
    assert "catalog" not in err


# sha256 of the --json stdout of the heavier ahat runs, frozen from the route
# that composed every factor-class pair in full through every middle group
_AHAT_SHA256 = {
    ("rb", "prod(C2,D8)", None): "5c80dea4248e7d3d665dc7a1b31d76e972402fdd6368460fef5bac45de00c7a1",
    ("rbc", "C4xC2", "C2"): "92695a59fa162cfec8a67a8f99cc1198f30cbe147ffba404de88dac175eefcef",
    ("rbc", "V4", "V4"): "4e9426e631285879de750a44122e8eb4ddea886101d8a5a33a90012a887a7c46",
    ("rbc", "C2xC2xC2", "C2"): "9fe986bee8d6534ad2b066f1ff0b75c0bfa8734e9d87e258eee5accc48b4386e",
}


@pytest.mark.parametrize("backend, group, c", list(_AHAT_SHA256),
                         ids=[f"{b}-{g}" + (f"-{c}" if c else "") for b, g, c in _AHAT_SHA256])
def test_ahat_json_bytes_pinned(capsys, backend, group, c):
    code, out, _ = run(capsys, "--json", "ahat", "--backend", backend, "--group", group,
                       *(("--c", c) if c else ()))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _AHAT_SHA256[backend, group, c]


def test_ahat_rbc_requires_c(capsys):
    code, out, err = run(capsys, "ahat", "--backend", "rbc", "--group", "C2")
    assert code == 2
    assert out == ""
    assert err == "usage error: --backend rbc requires --c\n"


@pytest.mark.parametrize("backend", ["rb", "rq", "crc"])
def test_ahat_c_only_for_rbc(capsys, backend):
    # --c used to be ignored without a word outside rbc
    code, out, err = run(capsys, "ahat", "--backend", backend, "--group", "C2", "--c", "C3")
    assert code == 2
    assert out == ""
    assert err == f"usage error: --c applies only to --backend rbc, not {backend}\n"


def test_ahat_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "ahat", "--backend", "rb",
                         "--group", "C3")
    code2, out2, _ = run(capsys, "--json", "ahat", "--backend", "rb",
                         "--group", "C3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"backend", "group", "ambient", "ideal", "quotient", "basis"}
    assert doc["quotient"] == 2


def test_seeds_table(capsys):
    code, out, _ = run(capsys, "seeds", "--max-m", "12")
    assert code == 0
    lines = out.strip().splitlines()
    counts = {}
    for line in lines[1:]:
        m, c = line.split()
        counts[int(m)] = int(c)
    assert counts[2] == 0 and counts[6] == 0
    assert counts[5] == 3 and counts[11] == 9


def test_seeds_json_bytes_pinned(capsys):
    # frozen from the generator-and-discrete-log construction of the unit
    # characters that the extension loop replaced
    code, out, _ = run(capsys, "--json", "seeds", "--max-m", "64")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3185fde44590752a2c3ca7a0f0050c17a7b940f3e8feb03d3ca41ce1f303102a"


def test_group_info_json(capsys):
    code, out, _ = run(capsys, "--json", "group", "info", "Q8")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8
    assert doc["conjugacy_classes"] == 5
    assert not doc["abelian"]


def test_group_subgroups(capsys):
    code, out, _ = run(capsys, "group", "subgroups", "D8")
    assert code == 0
    assert "10 subgroups in 8 conjugacy classes" in out


def test_group_auts(capsys):
    code, out, _ = run(capsys, "group", "auts", "V4")
    assert code == 0
    assert "|Aut| = 6" in out


def test_lin_kernel_cli(capsys):
    code, out, _ = run(capsys, "--json", "lin-kernel", "V4")
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 1


def test_compose_roundtrip(tmp_path, capsys):
    doc = {"left": "C2", "right": "C2",
           "terms": [{"num": 1, "den": 1, "class": [0]}]}
    f = tmp_path / "x.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "--json", "compose", "--left", str(f),
                       "--mid", "C2", "--right", str(f))
    assert code == 0
    result = json.loads(out)
    assert result["terms"] == [{"num": 2, "den": 1, "class": [0]}]


def test_compose_accepts_prod_groups(tmp_path, capsys):
    left = {"left": "prod(C2,C3)", "right": "C2",
            "terms": [{"num": 1, "den": 1, "class": [0]}]}
    right = {"left": "C2", "right": "C2",
             "terms": [{"num": 1, "den": 1, "class": [0]}]}
    fl, fr = tmp_path / "x.json", tmp_path / "y.json"
    fl.write_text(json.dumps(left))
    fr.write_text(json.dumps(right))
    code, out, err = run(capsys, "--json", "compose", "--left", str(fl),
                         "--mid", "C2", "--right", str(fr))
    assert code == 0, err
    result = json.loads(out)
    assert (result["left"], result["right"]) == ("C2xC3", "C2")
    assert result["terms"] == [{"num": 2, "den": 1, "class": [0]}]


def test_compose_middle_mismatch(tmp_path, capsys):
    doc = {"left": "C2", "right": "C2",
           "terms": [{"num": 1, "den": 1, "class": [0]}]}
    f = tmp_path / "x.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "compose", "--left", str(f), "--mid", "C3",
                       "--right", str(f))
    assert code == 1
    assert "error" in err


def test_bouc_cli(capsys):
    code, out, _ = run(capsys, "bouc", "C4", "C2", "1,1")
    assert code == 0
    assert "roundtrip: ok" in out


def test_crc_check_cli(capsys):
    code, out, _ = run(capsys, "crc-check", "S3", "C2")
    assert code == 0
    assert "match" in out


def test_dress_compose_cli(capsys):
    code, out, _ = run(capsys, "--json", "dress-compose", "C2", "C2", "C2", "C2",
                       "--e", "1,1,0;0,0,1", "--d", "1,1,0;0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"num": 1, "den": 1, "class": [0, 1, 6, 7]}]


def test_no_bridge_cli(capsys):
    code, out, _ = run(capsys, "--json", "no-bridge", "C4", "V4", "C2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_no_bridge_unequal_orders_is_no_error(capsys):
    # the corollary is about groups of equal order; C1 and C2 are bridged
    # by {(1, h, h)} <= C1 x C2 x C2
    code, out, _ = run(capsys, "--json", "no-bridge", "C1", "C2", "C2")
    assert code == 0
    doc = json.loads(out)
    assert doc["bridges"] == [[0, 3]]
    assert doc["passed"] is False


def test_counterexample_cli(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert out.strip().endswith("NOT DECOMPOSABLE")


def test_counterexample_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "counterexample")
    code2, out2, _ = run(capsys, "--json", "counterexample")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"] == "NOT DECOMPOSABLE"


def test_accept_only(capsys):
    code, out, err = run(capsys, "accept", "--only", "9,10")
    assert code == 0
    assert "PASS criterion 9" in out
    assert "PASS criterion 10" in out
    assert "running criterion" in err


def test_accept_json_stdout_is_json(capsys):
    code, out, err = run(capsys, "--json", "accept", "--only", "9,10")
    assert code == 0
    doc = json.loads(out)
    assert [r["criterion"] for r in doc] == [9, 10]
    assert all(r["passed"] for r in doc)
    assert "PASS criterion 9" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_unknown_group_is_error(capsys):
    code, _, err = run(capsys, "group", "info", "NoSuchGroup")
    assert code == 1
    assert "error" in err


def test_cache_dir_flag(tmp_path, capsys):
    import bisetkit.cache as cache
    previous = cache.cache_dir()
    try:
        # D26 is not touched by any other test, so its lattice is computed
        # fresh and must land in the requested cache directory
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path),
                           "group", "subgroups", "D26")
        assert code == 0
        assert list(tmp_path.glob("*.json"))
    finally:
        cache.set_cache_dir(str(previous) if previous else None)


# --json stdout of commands, pinned byte for byte
GOLDEN_JSON = [
    (("bouc", "S3", "C2", "1,0;0,1"),
     '{"class_representative": [0, 1, 2, 3, 6, 7], "goursat": {"A": [0, 1], "B": [0, 1], '
     '"C": [0, 1, 3], "D": [0, 1, 3], "f_images": [0]}, "left": "S3", "right": "C2", '
     '"roundtrip": true, "word": [{"left": "S3", "right": "S3!3.1", "stabilizer": [0, 4, 11]}, '
     '{"left": "S3!3.1", "right": "S3!3.1/3", "stabilizer": [0, 1, 2]}, '
     '{"left": "S3!3.1/3", "right": "C2!2.1/2", "stabilizer": [0]}, '
     '{"left": "C2!2.1/2", "right": "C2!2.1", "stabilizer": [0, 1]}, '
     '{"left": "C2!2.1", "right": "C2", "stabilizer": [0, 3]}]}'),
    (("bouc", "Q8", "S3", "2,1;1,0"),
     '{"class_representative": [0, 1, 3, 6, 7, 9, 12, 13, 15, 18, 19, 21, 24, 25, 27, 30, '
     '31, 33, 36, 37, 39, 42, 43, 45], "goursat": {"A": [0, 1, 3], "B": [0, 1, 3], '
     '"C": [0, 1, 2, 3, 4, 5, 6, 7], "D": [0, 1, 2, 3, 4, 5, 6, 7], "f_images": [0]}, '
     '"left": "Q8", "right": "S3", "roundtrip": true, "word": ['
     '{"left": "Q8", "right": "Q8!8.1", "stabilizer": [0, 9, 18, 27, 36, 45, 54, 63]}, '
     '{"left": "Q8!8.1", "right": "Q8!8.1/8", "stabilizer": [0, 1, 2, 3, 4, 5, 6, 7]}, '
     '{"left": "Q8!8.1/8", "right": "S3!3.1/3", "stabilizer": [0]}, '
     '{"left": "S3!3.1/3", "right": "S3!3.1", "stabilizer": [0, 1, 2]}, '
     '{"left": "S3!3.1", "right": "S3", "stabilizer": [0, 7, 15]}]}'),
    (("ahat", "--backend", "rq", "--group", "C5"),
     '{"ambient": 7, "backend": "rq", "basis": ["[0, 6, 12, 18, 24]", '
     '"[0, 7, 14, 16, 23]", "[0, 8, 11, 19, 22]"], "group": "C5", "ideal": 4, '
     '"quotient": 3}'),
    (("ahat", "--backend", "crc", "--group", "C3"),
     '{"ambient": 9, "backend": "crc", "basis": [], "group": "C3", "ideal": 9, '
     '"quotient": 0}'),
    (("crc-check", "S3", "D10"),
     '{"g": "S3", "k": "D10", "match": true, "product_rank": 12, "target_dim": 12}'),
    (("crc-check", "C5", "C3"),
     '{"g": "C5", "k": "C3", "match": true, "product_rank": 15, "target_dim": 15}'),
    (("crc-check", "C13", "C5"),
     '{"g": "C13", "k": "C5", "match": true, "product_rank": 65, "target_dim": 65}'),
    (("crc-check", "D16", "C16"),
     '{"g": "D16", "k": "C16", "match": true, "product_rank": 112, "target_dim": 112}'),
    (("ahat", "--backend", "crc", "--group", "C4"),
     '{"ambient": 16, "backend": "crc", "basis": [], "group": "C4", "ideal": 16, '
     '"quotient": 0}'),
    (("ahat", "--backend", "rb", "--group", "S3"),
     '{"ambient": 22, "backend": "rb", "basis": ["[0, 7, 14, 21, 28, 35]"], "group": "S3", '
     '"ideal": 21, "quotient": 1}'),
    (("ahat", "--backend", "rb", "--group", "D8"),
     '{"ambient": 214, "backend": "rb", "basis": ["[0, 9, 18, 27, 36, 45, 54, 63]", '
     '"[0, 9, 20, 27, 39, 42, 54, 61]"], "group": "D8", "ideal": 212, "quotient": 2}'),
    (("ahat", "--backend", "rbc", "--c", "C2", "--group", "S3"),
     '{"ambient": 69, "backend": "rbc", "basis": ["[0, 14, 28, 42, 56, 70]", '
     '"[0, 14, 29, 42, 57, 71]", "[0, 1, 14, 15, 28, 29, 42, 43, 56, 57, 70, 71]"], '
     '"group": "S3", "ideal": 66, "quotient": 3}'),
    (("ahat", "--backend", "rbc", "--c", "C3", "--group", "C3"),
     '{"ambient": 28, "backend": "rbc", "basis": ["[0, 12, 24]", "[0, 15, 21]", '
     '"[0, 1, 2, 12, 13, 14, 24, 25, 26]", "[0, 1, 2, 15, 16, 17, 21, 22, 23]", '
     '"[0, 4, 8, 10, 14, 15, 20, 21, 25]", "[0, 4, 8, 11, 12, 16, 19, 23, 24]", '
     '"[0, 5, 7, 10, 12, 17, 20, 22, 24]", "[0, 5, 7, 11, 13, 15, 19, 21, 26]"], '
     '"group": "C3", "ideal": 20, "quotient": 8}'),
    (("lin-kernel", "A4"),
     '{"class_reps": [[0], [0, 2], [0, 1, 3], [0, 2, 10, 11], '
     '[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]], "group": "A4", "kernel_dim": 2, '
     '"vectors": [["1/2", "-3/2", "0", "1", "0"], ["1/2", "-1/2", "-1", "0", "1"]]}'),
    (("lin-kernel", "C2xC2xC2"),
     '{"class_reps": [[0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], '
     '[0, 1, 2, 3], [0, 1, 4, 5], [0, 1, 6, 7], [0, 2, 4, 6], [0, 2, 5, 7], '
     '[0, 3, 4, 7], [0, 3, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7]], "group": "C2xC2xC2", '
     '"kernel_dim": 8, "vectors": ['
     '["1/2", "-1/2", "-1/2", "-1/2", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0"], '
     '["1/2", "-1/2", "0", "0", "-1/2", "-1/2", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0"], '
     '["1/2", "-1/2", "0", "0", "0", "0", "-1/2", "-1/2", "0", "0", "1", "0", "0", "0", "0", "0"], '
     '["1/2", "0", "-1/2", "0", "-1/2", "0", "-1/2", "0", "0", "0", "0", "1", "0", "0", "0", "0"], '
     '["1/2", "0", "-1/2", "0", "0", "-1/2", "0", "-1/2", "0", "0", "0", "0", "1", "0", "0", "0"], '
     '["1/2", "0", "0", "-1/2", "-1/2", "0", "0", "-1/2", "0", "0", "0", "0", "0", "1", "0", "0"], '
     '["1/2", "0", "0", "-1/2", "0", "-1/2", "-1/2", "0", "0", "0", "0", "0", "0", "0", "1", "0"], '
     '["3/4", "-1/4", "-1/4", "-1/4", "-1/4", "-1/4", "-1/4", "-1/4", "0", "0", "0", "0", "0", "0", "0", "1"]]}'),
    (("lin-kernel", "D12"),
     '{"class_reps": [[0], [0, 2], [0, 4], [0, 6], [0, 3, 10], [0, 2, 6, 11], '
     '[0, 1, 3, 6, 9, 10], [0, 2, 3, 7, 8, 10], [0, 3, 4, 5, 10, 11], '
     '[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]], "group": "D12", "kernel_dim": 4, '
     '"vectors": [["1/2", "-1/2", "-1/2", "-1/2", "0", "1", "0", "0", "0", "0"], '
     '["1/2", "-1", "0", "0", "-1/2", "0", "0", "1", "0", "0"], '
     '["1/2", "0", "-1", "0", "-1/2", "0", "0", "0", "1", "0"], '
     '["1/2", "-1/2", "-1/2", "0", "0", "0", "-1/2", "0", "0", "1"]]}'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_JSON,
                         ids=["bouc-S3-C2", "bouc-Q8-S3", "ahat-rq-C5", "ahat-crc-C3", "crc-check-S3-D10",
                              "crc-check-C5-C3", "crc-check-C13-C5", "crc-check-D16-C16",
                              "ahat-crc-C4", "ahat-rb-S3", "ahat-rb-D8",
                              "ahat-rbc-S3-C2", "ahat-rbc-C3-C3",
                              "lin-kernel-A4", "lin-kernel-C2xC2xC2",
                              "lin-kernel-D12"])
def test_json_output_golden(capsys, argv, expected):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert out == expected + "\n"


# element files with non-unit coefficients over S3 x C2, C2 x V4 and V4 x S3
ELEMENTS = {
    "b": {"left": "S3", "right": "C2", "terms": [
        {"num": 3, "den": 2, "class": [0, 1]}, {"num": -1, "den": 1, "class": [0, 5]},
        {"num": 2, "den": 1, "class": [0, 1, 4, 5]}]},
    "c": {"left": "C2", "right": "V4", "terms": [
        {"num": 1, "den": 3, "class": [0, 2]}, {"num": 2, "den": 1, "class": [0, 4]},
        {"num": 1, "den": 1, "class": [0]}]},
    "d": {"left": "V4", "right": "S3", "terms": [
        {"num": 5, "den": 1, "class": [0, 8]}, {"num": -2, "den": 3, "class": [0, 20]}]},
}
GOLDEN_COMPOSE = [
    (("b", "C2", "c"),
     '{"left": "S3", "right": "V4", "terms": [{"class": [0], "den": 2, "num": 7}, '
     '{"class": [0, 2], "den": 6, "num": 1}, {"class": [0, 2, 8, 10], "den": 3, "num": 2}, '
     '{"class": [0, 8], "den": 1, "num": 4}]}'),
    (("d", "S3", "b"),
     '{"left": "V4", "right": "C2", "terms": [{"class": [0], "den": 3, "num": -13}, '
     '{"class": [0, 1], "den": 6, "num": 169}, {"class": [0, 1, 2, 3], "den": 1, "num": 10}, '
     '{"class": [0, 1, 6, 7], "den": 3, "num": -4}, {"class": [0, 3], "den": 1, "num": -5}, '
     '{"class": [0, 7], "den": 3, "num": 2}]}'),
]


@pytest.mark.parametrize("names, expected", GOLDEN_COMPOSE, ids=["S3-C2-V4", "V4-S3-C2"])
def test_compose_json_golden(tmp_path, capsys, names, expected):
    left, mid, right = names
    for name in (left, right):
        (tmp_path / f"{name}.json").write_text(json.dumps(ELEMENTS[name]))
    code, out, _ = run(capsys, "--json", "compose", "--left", str(tmp_path / f"{left}.json"),
                       "--mid", mid, "--right", str(tmp_path / f"{right}.json"))
    assert code == 0
    assert out == expected + "\n"


# malformed input ends in one error line and exit 1, never a traceback or a
# silently different answer
BAD_INPUT = [
    ("dress-compose", "C2", "C2", "C2", "C2", "--e", "1,1", "--d", "0,0,0"),
    ("bouc", "S3", "C2", "9,9"),
    ("bouc", "S3", "C2", "x"),
    ("bouc", "S3", "C2", "12"),
    ("bouc", "S3", "C2", "0,-1"),
    ("--order-bound", "4", "ahat", "--backend", "rb", "--group", "S3"),
    ("no-bridge", "C4", "V4", "C9999"),
    ("crc-check", "C17", "C16"),
]


@pytest.mark.parametrize("argv", BAD_INPUT,
                         ids=["dress-compose-short-generator", "bouc-component-range",
                              "bouc-not-integer", "bouc-index-range",
                              "bouc-negative-component", "order-bound-ahat",
                              "order-bound-before-table", "crc-check-order-bound"])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


LEADING_MINUS = [
    (("bouc", "S3", "C2", "-1,0"), ("bouc", "S3", "C2", "--", "-1,0")),
    (("dress-compose", "C2", "C2", "C2", "C2", "--e", "-1,0,0", "--d", "0,0,0"),
     ("dress-compose", "C2", "C2", "C2", "C2", "--e=-1,0,0", "--d", "0,0,0")),
    (("dress-compose", "C2", "C2", "C2", "C2", "--e", "0,0,0", "--d", "-1,0,0"),
     ("dress-compose", "C2", "C2", "C2", "C2", "--e", "0,0,0", "--d=-1,0,0")),
]


@pytest.mark.parametrize("argv,quoted", LEADING_MINUS, ids=["bouc", "dress-e", "dress-d"])
def test_generator_with_leading_minus_is_one_error_line(capsys, argv, quoted):
    # a generator such as '-1,0' is a bad value, not an unknown option
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert (code, out, err) == run(capsys, *quoted)


def _c2_element(**term) -> str:
    return json.dumps({"left": "C2", "right": "C2",
                       "terms": [{"num": 1, "den": 1, "class": [0], **term}]})


# element files for compose over C2 x C2 (order 4); None is a missing file
BAD_ELEMENT = [
    ("empty-object", "{}"),
    ("zero-denominator", _c2_element(den=0)),
    ("not-json", "not json"),
    ("missing-file", None),
    ("class-out-of-range", _c2_element(**{"class": [0, 9]})),
    ("class-not-closed", _c2_element(**{"class": [0, 1, 2]})),
    ("fractional-num", _c2_element(num=1.5)),
    ("class-without-identity", _c2_element(**{"class": [1]})),
]


@pytest.mark.parametrize("text", [t for _, t in BAD_ELEMENT], ids=[i for i, _ in BAD_ELEMENT])
def test_bad_element_file_is_one_error_line(tmp_path, capsys, text):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    if text is not None:
        bad.write_text(text)
    good.write_text(_c2_element())
    code, out, err = run(capsys, "compose", "--left", str(bad), "--mid", "C2",
                         "--right", str(good))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


USAGE_ERRORS = [
    ("seeds", "--max-m", "-3"),
    ("--order-bound", "0", "group", "info", "C2"),
    ("accept", "--only", "x"),
    ("accept", "--only", "99"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS,
                         ids=["seeds-negative", "order-bound-zero", "accept-not-integer",
                              "accept-unknown-criterion"])
def test_bad_integer_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


# Malformed CLI input, built so that no case is valid: it must end in exit 1
# with exactly one error line, or in an argparse usage error (exit 2).
_BOUC_VALID = st.tuples(st.integers(0, 5), st.integers(0, 1)).map(lambda t: f"{t[0]},{t[1]}")
_BOUC_BAD = st.one_of(
    st.tuples(st.integers(6, 99), st.integers(0, 1)).map(lambda t: f"{t[0]},{t[1]}"),
    st.tuples(st.integers(0, 5), st.integers(2, 99)).map(lambda t: f"{t[0]},{t[1]}"),
    st.integers(12, 999).map(str),
    st.lists(st.integers(0, 1), min_size=3, max_size=4).map(lambda c: ",".join(map(str, c))),
    st.sampled_from(["x", "1.5", "0x1", ",", "1,,0", "1,0,"]),
)
_GENERATORS = st.tuples(st.lists(_BOUC_VALID, max_size=3), _BOUC_BAD, st.integers(0, 3)).map(
    lambda t: ";".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]))
# no group name contains "#", so each of these names is unknown
_BAD_NAMES = st.one_of(
    st.text(max_size=6).map(lambda s: s + "#"),
    st.integers(2, 999).map(lambda n: f"C{n}#"),
    st.sampled_from(["", "C", "C0", "D3", "prod(C2)", "prod(C2,)", "E8", "C-1", "C²"]),
)
_NOT_POSITIVE = st.one_of(
    st.integers(max_value=0).map(str),
    st.from_regex(r"[0-9]*[a-z.][0-9a-z.]*", fullmatch=True),
)
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                     st.lists(st.integers(0, 3), max_size=2))
_NOT_SUBGROUP = st.lists(st.integers(0, 3), unique=True).filter(
    lambda c: sorted(c) not in ([0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]))


def _break_term(term: dict, draw) -> dict:
    key = draw(st.sampled_from(["num", "den", "class"]))
    if key == "num":
        value = draw(_NOT_INT)
    elif key == "den":
        value = draw(st.one_of(_NOT_INT, st.integers(max_value=0)))
    else:
        value = draw(st.one_of(
            _NOT_SUBGROUP, st.just(5), st.lists(st.integers(4, 99), min_size=1),
            st.lists(st.integers(max_value=-1), min_size=1),
            st.lists(_NOT_INT.filter(lambda v: not isinstance(v, int)), min_size=1)))
    return {**term, key: value}


@st.composite
def _bad_element_doc(draw):
    """Text of a malformed element file over C2 x C2."""
    doc = {"left": "C2", "right": "C2",
           "terms": [{"num": 1, "den": 1, "class": [0]}, {"num": 2, "den": 3, "class": [0, 1]}]}
    how = draw(st.sampled_from(["text", "drop", "group", "terms", "term", "field"]))
    if how == "text":  # a valid document is longer than 30 characters
        return draw(st.text(max_size=30))
    if how == "drop":
        del doc[draw(st.sampled_from(["left", "right", "terms"]))]
    elif how == "group":
        doc[draw(st.sampled_from(["left", "right"]))] = draw(st.one_of(
            _BAD_NAMES, st.none(), st.integers(), st.lists(st.text(max_size=2), max_size=2)))
    elif how == "terms":
        doc["terms"] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                                      st.dictionaries(st.text(max_size=3), st.integers(),
                                                      max_size=2)))
    elif how == "term":
        doc["terms"][draw(st.integers(0, 1))] = draw(st.one_of(_NOT_INT, st.just([])))
    else:
        i = draw(st.integers(0, 1))
        doc["terms"][i] = _break_term(doc["terms"][i], draw)
    return json.dumps(doc)


@st.composite
def _malformed_argv(draw):
    """(argv, text of the element file or None); the file path is ELEMENT."""
    kind = draw(st.sampled_from(["bouc", "dress", "group", "ints", "element"]))
    if kind == "bouc":
        return ["bouc", "S3", "C2", draw(_GENERATORS)], None
    if kind == "dress":
        e = draw(st.sampled_from(["1,1", "1,1,2", "2,0,0", "1,1,0;x"]))
        return ["dress-compose", "C2", "C2", "C2", "C2", "--e", e, "--d", "0,0,0"], None
    if kind == "group":
        command = draw(st.sampled_from([["group", "info"], ["lin-kernel"],
                                        ["ahat", "--backend", "rb", "--group"]]))
        return command + [draw(_BAD_NAMES)], None
    if kind == "ints":
        command = draw(st.sampled_from([["seeds", "--max-m"], ["accept", "--only"]]))
        bound = ["--order-bound", draw(_NOT_POSITIVE), "group", "info", "C2"]
        return draw(st.sampled_from([command + [draw(_NOT_POSITIVE)], bound])), None
    return ["compose", "--left", "ELEMENT", "--mid", "C2", "--right", "ELEMENT"], \
        draw(_bad_element_doc())


@given(case=_malformed_argv())
@settings(max_examples=200, deadline=None)
def test_malformed_input_is_rejected(tmp_path_factory, case):
    argv, text = case
    if text is not None:
        path = tmp_path_factory.getbasetemp() / "malformed-element.json"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "ELEMENT" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, err.getvalue())
            return
    assert code == 1, (argv, out.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def test_bouc_lone_index_in_range(capsys):
    # 11 is the product index of (5, 1) in S3 x C2
    code, out, _ = run(capsys, "--json", "bouc", "S3", "C2", "11")
    assert code == 0
    assert json.loads(out) == json.loads(run(capsys, "--json", "bouc", "S3", "C2", "5,1")[1])


# sha256 of the stdout of `bisetkit --help` and `bisetkit COMMAND --help` with
# COLUMNS=80, frozen on Python 3.11 from the parser that built every subcommand
_HELP_SHA256 = {
    None: "8a4d0be01132d49fe21e2807baee99ffc13239933daf3c6ef656a93ae83cd8dd",
    "group": "4797b7adefdcad71ffa06b6463440c0e0076e7c284555330a53196a468f5c7ba",
    "compose": "a8776ddc4d20f87229c0e110cf76e1ae2b7f7f769852beb549df65854eb0c09e",
    "bouc": "dbc2c5487b8f74f21038104db23851d784f27b5b69fdd8a5e801fcb2e8e7c5f3",
    "ahat": "2e04d7bd3861b9a0a072ee3cd07a05bd21004cb0152a559176531b81dfba87cf",
    "lin-kernel": "92ba39f2b126795926919c4000baa3e683cadeec6b42bb543362aedc4c6c04e0",
    "seeds": "45f4cfea8dfe55ed2ac0aa88c8266f28fa5dbe551119304a2873824afe55ae6e",
    "crc-check": "d1a694470ae4375e6157f61ced8c736e7662f2f67545cf8c24e6e89275bde903",
    "dress-compose": "6b66b153ace446a38ed1a9724bf8917488165b23c9eaee3958d0870298a58166",
    "no-bridge": "c54abde8cd6a404fb605f9557be1e2c4ce21383baef2ee38193060c7998a5e19",
    "counterexample": "47a07c1fa05945066357f7d1ab403b98b32b9e13e542acf2ef01ba455e3edf0b",
    "accept": "9013a5f372da2916c3768ef0ecd170d7aae886447c131dd56a154a5658284189",
}


# argparse's help layout changes between Python versions (its "options" heading
# was "optional arguments" before 3.10), so the pins hold on 3.11 only
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help text pinned on Python 3.11")
@pytest.mark.parametrize("command", list(_HELP_SHA256), ids=[c or "main" for c in _HELP_SHA256])
def test_help_text_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256[command], out


# argv, and the subcommand main reads off it to build that subparser alone
# (None: the full parser)
PARSER_CASES = [
    (("group", "info", "C2"), "group"),
    (("compose", "--left", "x.json", "--mid", "C2", "--right", "y.json"), "compose"),
    (("bouc", "S3", "C2", "1,0;0,1"), "bouc"),
    (("--json", "ahat", "--backend", "rb", "--group", "C3"), "ahat"),
    (("lin-kernel", "S3"), "lin-kernel"),
    (("seeds", "--max-m", "6"), "seeds"),
    (("crc-check", "C2", "C3"), "crc-check"),
    (("dress-compose", "C2", "C2", "C2", "C2", "--e", "0,0,0", "--d", "0,0,0"), "dress-compose"),
    (("no-bridge", "C2", "C2", "C2"), "no-bridge"),
    (("counterexample",), "counterexample"),
    (("accept", "--only", "9,10"), "accept"),
    (("--order-bound", "0", "group", "info", "C2"), "group"),
    (("--cache", "ahat", "--json", "group", "info", "C2"), "group"),
    (("--cache-dir=ahat", "group", "info", "C2"), "group"),
    (("--cache-dir", "ahat", "group", "info", "C2"), "group"),
    (("--order", "8", "--c=x", "--j", "seeds", "--max-m", "3"), "seeds"),
    (("--json=1", "group", "info", "C2"), None),
    (("--cache-dir", "--json", "group", "info", "C2"), None),
    (("group", "info", "C2", "--json"), "group"),
    (("group", "info", "--", "C2"), None),
    (("not-a-command",), None),
    ((), None),
    (("--json",), None),
    (("-h",), None),
    (("--he",), None),
    (("group", "-h"), "group"),
    (("ahat", "--help"), "ahat"),
]


class _Parsed(Exception):
    """Carries the namespace of a parse out of main, before any handler runs."""


def _parse_outcome(monkeypatch, argv, full):
    """main's namespace, or its SystemExit code, with its stdout and stderr;
    ``full`` makes main build every subparser."""
    parse_args = cli._Parser.parse_args

    def stop_after_parse(self, args=None, namespace=None):
        raise _Parsed(parse_args(self, args, namespace))
    monkeypatch.setattr(cli._Parser, "parse_args", stop_after_parse)
    if full:
        monkeypatch.setattr(cli, "_command_in", lambda argv: None)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(argv))
        except _Parsed as parsed:
            result = vars(parsed.args[0])
        except SystemExit as exc:
            result = exc.code
    monkeypatch.undo()
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, command", PARSER_CASES,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in PARSER_CASES])
def test_one_subparser_parses_as_all(monkeypatch, argv, command):
    assert cli._command_in(argv) == command
    lazy = _parse_outcome(monkeypatch, argv, full=False)
    assert lazy == _parse_outcome(monkeypatch, argv, full=True)
    assert isinstance(lazy[0], dict) or lazy[0] in (0, 2)


def test_parsers_built(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["--json", "ahat", "--backend", "rb", "--group", "C3"]) == 0
    assert built == ["bisetkit", "bisetkit ahat"]
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert built == ["bisetkit"] + [f"bisetkit {name}" for name in cli._COMMANDS]
    assert len(built) == 12


def test_module_entry_reads_sys_argv(tmp_path, capsys):
    argv = ["--json", "ahat", "--backend", "rb", "--group", "C3"]
    env = {**os.environ, "PYTHONPATH": str(Path(bisetkit.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "bisetkit.cli", *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, "") == (0, "")
    assert proc.stdout == out
