import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polycomp
import polycomp.cutpoly as cutpoly
from polycomp.cli import main
from polycomp.compressed import is_compressed
from polycomp.jsonio import certificate_to_json, polytope_from_json

SQUARE = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]], "lattice": "auto"}
SEGMENT_AMBIENT = {"points": [[0], [2]], "lattice": "ambient"}
K5 = {"n": 5, "edges": [[i, j] for i in range(1, 6) for j in range(i + 1, 6)]}
PATH_MODEL = {"n": 3, "facets": [[1, 2], [2, 3]], "d": [3, 3, 3]}
SEGMENT_MATRIX = {"matrix": [[1, 1, 1], [0, 1, 2]]}
# the reviewed stdout of `polycomp repro --all`; outputs are the contract, so
# a change to this file is a change of results and needs its own reason
REPRO_ALL = Path(__file__).parent / "fixtures" / "repro_all.txt"


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


def grid(rows, cols):
    edges = [[r * cols + c + 1, r * cols + c + 2] for r in range(rows) for c in range(cols - 1)]
    edges += [[r * cols + c + 1, (r + 1) * cols + c + 1] for r in range(rows - 1) for c in range(cols)]
    return {"n": rows * cols, "edges": edges}


@pytest.mark.parametrize(
    "graph, k5, longest",
    [
        ({"n": 1200, "edges": K5["edges"]}, True, 3),
        ({"n": 1200, "edges": [[i, i + 1] for i in range(1, 1200)] + [[1, 1200]]}, False, 1200),
        (grid(3, 4), False, 10),
        (grid(5, 5), False, 16),
    ],
    ids=["k5-plus-isolated", "cycle-1200", "grid-3x4", "grid-5x5"],
)
def test_cut_classify_large_graphs_in_a_subprocess(tmp_path, graph, k5, longest):
    path = write(tmp_path, "graph.json", graph)
    res = subprocess.run(
        [sys.executable, "-m", "polycomp", "cut-classify", "--graph", path],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(polycomp.__file__).parents[1])},
    )
    assert res.stderr == ""
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload == {"compressed": False, "k5_minor": k5, "max_induced_cycle": longest}


@pytest.mark.parametrize("argv", [
    ["certify", "--polytope", "square.json"],
    ["repro", "--all"],
    ["sweep", "--matrix", "segment.json", "--budget", "2", "--format", "tsv"],
], ids=["certify", "repro", "sweep-tsv"])
def test_closed_stdout_is_one_error_line(tmp_path, argv):
    write(tmp_path, "square.json", SQUARE)
    write(tmp_path, "segment.json", SEGMENT_MATRIX)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        res = subprocess.run(
            [sys.executable, "-m", "polycomp", *argv], cwd=tmp_path,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(polycomp.__file__).parents[1])},
        )
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ")


def test_cut_classify_refuses_at_the_search_budget(tmp_path, capsys, monkeypatch):
    k34 = {"n": 7, "edges": [[i, j] for i in (1, 2, 3) for j in (4, 5, 6, 7)]}
    path = write(tmp_path, "k34.json", k34)
    monkeypatch.setattr(cutpoly, "MINOR_SEARCH_BUDGET", 10)
    code, out, err = run(capsys, ["cut-classify", "--graph", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: K5 minor search gave up") and err.count("\n") == 1


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
    {"anchor": 0},  # anchor not a list
    {"anchor": [0, 0], "basis": [5]},  # basis row not a list
    {"anchor": [0, 0], "basis": ["10"]},  # a string is not a row of digits
])
def test_certify_malformed_lattice_is_input_error(tmp_path, capsys, lattice):
    path = write(tmp_path, "seg.json", {"points": [[0, 0], [1, 0]], "lattice": lattice})
    code, out, err = run(capsys, ["certify", "--polytope", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, flag, payload", [
    ("cut-classify", "--graph", {"n": 3, "edges": 5}),
    ("margin-classify", "--model", {"n": 3, "facets": [1, 2], "d": [2, 2, 2]}),
    ("margin-classify", "--model", {"n": 3, "facets": [[1, 2], 3], "d": [2, 2, 2]}),
])
def test_non_list_shapes_are_input_errors(tmp_path, capsys, command, flag, payload):
    path = write(tmp_path, "in.json", payload)
    code, out, err = run(capsys, [command, flag, path])
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


def _jittered_cross_polytope(dim, seed):
    """A cross-polytope with its vertices moved by at most one unit off the
    axes: few generators, dozens of lattice points and hundreds of witness
    rows in its certificate."""
    rng = random.Random(seed)
    center = [5] * dim
    points = {tuple(center)}
    for axis in range(dim):
        for sign in (1, -1):
            p = [c + rng.randint(-1, 1) for c in center]
            p[axis] = center[axis] + sign * rng.randint(2, 3)
            points.add(tuple(p))
    return {"points": [list(p) for p in sorted(points)], "lattice": "ambient"}


# the unit square translated by 4301-digit integers, built by arithmetic:
# int("7" * 4301) would hit the int-string limit at import
_SEVENS = 7 * (10 ** 4301 - 1) // 9
_HUGE_SQUARE = [[x, y] for x in (_SEVENS, _SEVENS + 1) for y in (_SEVENS, _SEVENS + 1)]


@pytest.mark.parametrize("polytope", [
    {"points": [[3, 4]]},  # 0-dimensional: no profiles
    {"points": [[0], [3]], "lattice": "ambient"},  # a violation over 3 levels
    {"points": [[0, 0], [4, 0], [0, 2], [4, 2]],
     "lattice": {"anchor": [0, 0], "basis": [[2, 0], [0, 1]]}},
    {"points": _HUGE_SQUARE, "lattice": "auto"},
    _jittered_cross_polytope(4, 0),
], ids=["point", "segment", "declared-lattice", "huge-square", "jittered-cross"])
def test_certify_prints_the_bytes_of_json_dumps(tmp_path, capsys, polytope):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path = write(tmp_path, "poly.json", polytope)
        cert = is_compressed(polytope_from_json(polytope))
        expected = json.dumps(certificate_to_json(cert), indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, _ = run(capsys, ["certify", "--polytope", path])
    assert code == (0 if cert.verdict else 1)
    assert out == expected


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
    assert out1 == out2 == REPRO_ALL.read_text(encoding="utf-8")
    assert all(line.startswith("PASS") for line in out1.strip().split("\n")[:-1])
