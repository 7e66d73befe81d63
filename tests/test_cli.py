import json
import sys

import pytest

from polycomp.cli import main

SQUARE = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]], "lattice": "auto"}
SEGMENT_AMBIENT = {"points": [[0], [2]], "lattice": "ambient"}
K5 = {"n": 5, "edges": [[i, j] for i in range(1, 6) for j in range(i + 1, 6)]}
PATH_MODEL = {"n": 3, "facets": [[1, 2], [2, 3]], "d": [3, 3, 3]}
SEGMENT_MATRIX = {"matrix": [[1, 1, 1], [0, 1, 2]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_square(tmp_path, capsys):
    path = write(tmp_path, "square.json", SQUARE)
    code, out, _ = run(capsys, ["certify", "--polytope", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert "violation" not in payload
    assert len(payload["profiles"]) == 4


def test_certify_segment_negative_exit(tmp_path, capsys):
    path = write(tmp_path, "seg.json", SEGMENT_AMBIENT)
    code, out, _ = run(capsys, ["certify", "--polytope", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["violation"]["high_level"] == 2
    assert payload["violation"]["low_level"] == 1


def test_certify_explicit_lattice(tmp_path, capsys):
    poly = {"points": [[0], [2]], "lattice": {"anchor": [0], "basis": [[2]]}}
    path = write(tmp_path, "seg2.json", poly)
    code, out, _ = run(capsys, ["certify", "--polytope", path])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_triangulate_orders(tmp_path, capsys):
    path = write(
        tmp_path, "seg012.json", {"points": [[0], [1], [2]], "lattice": "auto"}
    )
    code, out, _ = run(capsys, ["triangulate", "--polytope", path, "--order", "0,1,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["simplices"] == [[0, 2]]
    assert payload["volumes"] == [2]
    assert payload["unimodular"] is False
    code, out, _ = run(capsys, ["triangulate", "--polytope", path, "--order", "1,0,2"])
    payload = json.loads(out)
    assert sorted(payload["simplices"]) == [[0, 1], [1, 2]]
    assert payload["volumes"] == [1, 1]
    assert payload["unimodular"] is True


def test_triangulate_rejects_bad_order(tmp_path, capsys):
    path = write(tmp_path, "sq.json", SQUARE)
    code, _, err = run(capsys, ["triangulate", "--polytope", path, "--order", "0,1"])
    assert code == 2
    assert "permutation" in err


def test_cut_classify_k5(tmp_path, capsys):
    path = write(tmp_path, "k5.json", K5)
    code, out, _ = run(capsys, ["cut-classify", "--graph", path])
    assert code == 1
    payload = json.loads(out)
    assert payload == {"compressed": False, "k5_minor": True, "max_induced_cycle": 3}


def test_cut_classify_k3(tmp_path, capsys):
    path = write(tmp_path, "k3.json", {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    code, out, _ = run(capsys, ["cut-classify", "--graph", path])
    assert code == 0
    assert json.loads(out)["compressed"] is True


def test_margin_classify(tmp_path, capsys):
    path = write(tmp_path, "path.json", PATH_MODEL)
    code, out, _ = run(capsys, ["margin-classify", "--model", path])
    assert code == 0
    assert json.loads(out) == {"compressed": "true", "rule": "decomposable"}
    c5 = {"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], "d": [2] * 5}
    path2 = write(tmp_path, "c5.json", c5)
    code, out, _ = run(capsys, ["margin-classify", "--model", path2])
    assert code == 1
    assert json.loads(out) == {"compressed": "false", "rule": "binary-graph"}


def test_bounds_matches_spec_shape(tmp_path, capsys):
    path = write(tmp_path, "A.json", SEGMENT_MATRIX)
    code, out, _ = run(capsys, ["bounds", "--matrix", path, "--b", "1,1", "--cell", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lp"] == "1/2"
    assert payload["ip"] == 0


def test_bounds_minimize_flag(tmp_path, capsys):
    path = write(tmp_path, "A.json", SEGMENT_MATRIX)
    code, out, _ = run(
        capsys,
        ["bounds", "--matrix", path, "--b", "2,2", "--cell", "2", "--minimize"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "min"
    assert payload["ip"] == 0


def test_bounds_infeasible(tmp_path, capsys):
    path = write(tmp_path, "A.json", SEGMENT_MATRIX)
    code, out, _ = run(capsys, ["bounds", "--matrix", path, "--b=-1,0", "--cell", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lp"] == "infeasible"
    assert payload["ip"] == "infeasible"


def test_gap_witness_cli(tmp_path, capsys):
    path = write(tmp_path, "A.json", SEGMENT_MATRIX)
    code, out, _ = run(capsys, ["gap-witness", "--matrix", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["compressed"] is False
    assert payload["witness"]["b"] == [1, 1]
    assert payload["witness"]["lp"] == "1/2"
    assert payload["witness"]["ip"] == 0
    square = {"matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]}
    path2 = write(tmp_path, "sq.json", square)
    code, out, _ = run(capsys, ["gap-witness", "--matrix", path2])
    assert code == 1
    assert json.loads(out) == {"witness": None, "compressed": True}


def test_sweep_json_and_tsv(tmp_path, capsys):
    path = write(tmp_path, "A.json", SEGMENT_MATRIX)
    code, out, _ = run(capsys, ["sweep", "--matrix", path, "--budget", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["counterexample"]["b"] == [1, 1]
    code, out, _ = run(
        capsys, ["sweep", "--matrix", path, "--budget", "2", "--format", "tsv"]
    )
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["holds", "checked_rhs", "b", "cell", "lp", "ip"]
    assert lines[1].startswith("false\t")


def test_sweep_restricted_cells(tmp_path, capsys):
    example = {"matrix": [[1, 1, 1, 1, 1], [0, 0, 1, 2, 3], [1, 0, 0, 0, 0]]}
    path = write(tmp_path, "ex.json", example)
    code, out, _ = run(
        capsys, ["sweep", "--matrix", path, "--budget", "3", "--cells", "1"]
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_sweep_negative_budget_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "A.json", SEGMENT_MATRIX)
    code, out, err = run(capsys, ["sweep", "--matrix", path, "--budget", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: budget must be nonnegative\n"


def test_margin_classify_bad_size_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "d1.json", {"n": 2, "facets": [[1, 2]], "d": [1, 3]})
    code, out, err = run(capsys, ["margin-classify", "--model", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("lattice", [
    {"anchor": [0, 0], "basis": [[1, 0], [2, 0]]},  # dependent basis rows
    {"anchor": [0], "basis": [[1, 0]]},  # anchor narrower than the basis
    {"anchor": [0, 0], "basis": [[1]]},  # basis narrower than the anchor
    {"anchor": [0], "basis": [[1]]},  # a 1-d lattice for 2-d points
])
def test_certify_malformed_lattice_is_input_error(tmp_path, capsys, lattice):
    path = write(tmp_path, "seg.json", {"points": [[0, 0], [1, 0]], "lattice": lattice})
    code, out, err = run(capsys, ["certify", "--polytope", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_certify_integers_beyond_the_str_digit_limit(tmp_path, capsys):
    # the unit square translated by 4301-digit integers, past the default
    # int-string limit of json.load and json.dumps
    low, high = "7" * 4301, "7" * 4300 + "8"
    square = ", ".join(f"[{x}, {y}]" for x in (low, high) for y in (low, high))
    path = tmp_path / "huge.json"
    path.write_text('{"points": [' + square + '], "lattice": "auto"}')
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["certify", "--polytope", str(path)])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    assert '"verdict": true' in out
    assert len(out) > 4 * 4301


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"points": [[0, 0],\n [1, ]]}')
    code, _, err = run(capsys, ["certify", "--polytope", str(path)])
    assert code == 2
    assert "line 2" in err and "column" in err


def test_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["certify", "--polytope", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no such file" in err


def test_unknown_flag_rejected(tmp_path, capsys):
    path = write(tmp_path, "sq.json", SQUARE)
    code, _, _ = run(capsys, ["certify", "--polytope", path, "--frobnicate"])
    assert code == 2


def test_unknown_subcommand_rejected(capsys):
    assert run(capsys, ["transmogrify"])[0] == 2


def test_repro_list_and_determinism(capsys):
    code, out1, _ = run(capsys, ["repro", "--list"])
    assert code == 0
    assert "pentagonal-values" in out1
    code, out1, _ = run(capsys, ["repro", "--all"])
    assert code == 0
    code, out2, _ = run(capsys, ["repro", "--all"])
    assert out1 == out2
    assert all(line.startswith("PASS") for line in out1.strip().split("\n")[:-1])
