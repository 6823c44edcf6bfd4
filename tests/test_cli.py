import json

import pytest

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


# --json stdout of character-stack commands, pinned byte for byte
GOLDEN_JSON = [
    (("ahat", "--backend", "rq", "--group", "C5"),
     '{"ambient": 7, "backend": "rq", "basis": ["[0, 6, 12, 18, 24]", '
     '"[0, 7, 14, 16, 23]", "[0, 8, 11, 19, 22]"], "group": "C5", "ideal": 4, '
     '"quotient": 3}'),
    (("ahat", "--backend", "crc", "--group", "C3"),
     '{"ambient": 9, "backend": "crc", "basis": [], "group": "C3", "ideal": 9, '
     '"quotient": 0}'),
    (("crc-check", "S3", "D10"),
     '{"g": "S3", "k": "D10", "match": true, "product_rank": 12, "target_dim": 12}'),
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
                         ids=["ahat-rq-C5", "ahat-crc-C3", "crc-check-S3-D10",
                              "lin-kernel-A4", "lin-kernel-C2xC2xC2",
                              "lin-kernel-D12"])
def test_json_output_golden(capsys, argv, expected):
    code, out, _ = run(capsys, "--json", *argv)
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
]


@pytest.mark.parametrize("argv", BAD_INPUT,
                         ids=["dress-compose-short-generator", "bouc-component-range",
                              "bouc-not-integer", "bouc-index-range",
                              "bouc-negative-component", "order-bound-ahat",
                              "order-bound-before-table"])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_bouc_lone_index_in_range(capsys):
    # 11 is the product index of (5, 1) in S3 x C2
    code, out, _ = run(capsys, "--json", "bouc", "S3", "C2", "11")
    assert code == 0
    assert json.loads(out) == json.loads(run(capsys, "--json", "bouc", "S3", "C2", "5,1")[1])
