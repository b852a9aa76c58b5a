"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from nlpoly.cli import main, parse_matrix
from nlpoly.errors import ParseError

CYCLE3 = "digraph 3\n0 1\n1 2\n2 0\n"
DIGON = "digraph 2\n0 1\n1 0\n"
COLOOP_JSON = '{"rows": [[1]]}'


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# matrix parsing


def test_parse_matrix_accepts_ints_and_fraction_strings():
    m = parse_matrix('{"rows": [[1, "-3/4"], ["2", 0]]}')
    assert m.rows == 2 and m.cols == 2
    assert m.at(0, 1) * 4 == -3


def test_parse_matrix_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_matrix('{"rows": [[1], [1, 2]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"rows": [[true]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"cols": []}')
    with pytest.raises(ParseError) as exc:
        parse_matrix('{"rows": [[1,]]}')
    assert exc.value.line is not None


def test_parse_matrix_empty():
    m = parse_matrix('{"rows": []}')
    assert (m.rows, m.cols) == (0, 0)


# ---------------------------------------------------------------------------
# commands


def test_coflow_text(tmp_path, capsys):
    path = _write(tmp_path, "c3.digraph", CYCLE3)
    code, out, _ = _run(capsys, ["coflow", path])
    assert code == 0 and out == "x^2 - 1\n"


def test_coflow_both_oracles(tmp_path, capsys):
    path = _write(tmp_path, "c3.digraph", CYCLE3)
    code, out, _ = _run(capsys, ["coflow", path, "--oracle", "both"])
    assert code == 0
    assert out == "graphic: x^2 - 1\nmatroid: x^2 - 1\nagree: yes\n"


def test_coflow_json_schema(tmp_path, capsys):
    path = _write(tmp_path, "c3.digraph", CYCLE3)
    code, out, _ = _run(capsys, ["coflow", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == [
        {"x": 2, "y": 0, "z": 0, "c": 1},
        {"x": 0, "y": 0, "z": 0, "c": -1},
    ]


def test_flow_matrix_input(tmp_path, capsys):
    path = _write(tmp_path, "c3.json", '{"rows": [[1, 0, -1], [-1, 1, 0]]}')
    code, out, _ = _run(capsys, ["flow", path])
    assert code == 0 and out == "x\n"


def test_dichromate_text_and_basis(tmp_path, capsys):
    path = _write(tmp_path, "coloop.json", COLOOP_JSON)
    code, out, _ = _run(capsys, ["dichromate", path])
    assert code == 0 and out == "x - x*y\nbasis: 1\n"


def test_dichromate_explicit_basis(tmp_path, capsys):
    path = _write(tmp_path, "digon.json", '{"rows": [[1, -1]]}')
    code, out, _ = _run(capsys, ["dichromate", path, "--basis", "2"])
    assert code == 0
    assert out.endswith("basis: 2\n")


def test_dichromate_json(tmp_path, capsys):
    path = _write(tmp_path, "coloop.json", COLOOP_JSON)
    code, out, _ = _run(capsys, ["dichromate", path, "--format", "json"])
    data = json.loads(out)
    assert data["basis"] == [1]
    assert {"x": 1, "y": 1, "z": 0, "c": -1} in data["polynomial"]


def test_colorings(tmp_path, capsys):
    path = _write(tmp_path, "digon.digraph", DIGON)
    code, out, _ = _run(capsys, ["colorings", path, "--k", "2"])
    assert code == 0 and out == "2\n"


def test_check_passes_on_digraph(tmp_path, capsys):
    path = _write(tmp_path, "digon.digraph", DIGON)
    code, out, _ = _run(capsys, ["check", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("oracle-agreement" in line for line in lines)


def test_check_json_on_matrix(tmp_path, capsys):
    path = _write(tmp_path, "u24.json", '{"rows": [[1, 0, 1, 1], [0, 1, 1, 2]]}')
    code, out, _ = _run(capsys, ["check", path, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "minor-recovery" in names and "oracle-agreement" not in names


def test_outputs_are_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "c3.digraph", CYCLE3)
    runs = []
    for _ in range(2):
        code, out, err = _run(capsys, ["check", path, "--format", "json"])
        runs.append((code, out, err))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_missing_file(capsys):
    code, _, err = _run(capsys, ["coflow", "/nonexistent/input"])
    assert code == 2 and "error" in err


def test_exit_2_on_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.digraph", "digraph 2\n0 junk\n")
    code, _, err = _run(capsys, ["coflow", path])
    assert code == 2 and "line 2" in err


def test_exit_2_on_graphic_oracle_for_matrix(tmp_path, capsys):
    path = _write(tmp_path, "m.json", COLOOP_JSON)
    code, _, err = _run(capsys, ["coflow", path, "--oracle", "graphic"])
    assert code == 2


def test_exit_2_on_colorings_for_matrix(tmp_path, capsys):
    path = _write(tmp_path, "m.json", COLOOP_JSON)
    code, _, _ = _run(capsys, ["colorings", path, "--k", "2"])
    assert code == 2


def test_exit_2_on_invalid_basis(tmp_path, capsys):
    path = _write(tmp_path, "m.json", COLOOP_JSON)
    code, _, err = _run(capsys, ["dichromate", path, "--basis", "7"])
    assert code == 2
    code, _, _ = _run(capsys, ["dichromate", path, "--basis", "a,b"])
    assert code == 2


def test_exit_3_on_cap(tmp_path, capsys):
    path = _write(tmp_path, "c3.digraph", CYCLE3)
    code, _, err = _run(capsys, ["coflow", path, "--cap", "2"])
    assert code == 3 and "cap" in err
    # the dichromate doubles the ground set, so its cap bites at cap/2
    code, _, _ = _run(capsys, ["dichromate", path, "--cap", "5"])
    assert code == 3
    code, _, _ = _run(capsys, ["dichromate", path, "--cap", "6"])
    assert code == 0


def test_exit_2_on_negative_cap(tmp_path, capsys):
    path = _write(tmp_path, "c3.digraph", CYCLE3)
    for command in ("coflow", "flow", "dichromate", "check"):
        code, out, err = _run(capsys, [command, path, "--cap", "-5"])
        assert code == 2 and not out
        assert err == "error: --cap must be nonnegative, got -5\n", command


def test_matrix_rows_are_reduced_to_a_row_basis(tmp_path, capsys):
    # dependent rows realize the same matroid as their row basis
    for command in ("coflow", "flow", "dichromate", "check"):
        outputs = []
        for name, text in (
            ("dep.json", '{"rows": [[1, 1], [2, 2]]}'),
            ("one.json", '{"rows": [[1, 1]]}'),
        ):
            code, out, err = _run(capsys, [command, _write(tmp_path, name, text)])
            assert code == 0 and not err
            outputs.append(out)
        assert outputs[0] == outputs[1], command
    path = _write(tmp_path, "blank.json", '{"rows": [[]]}')
    assert _run(capsys, ["dichromate", path]) == (0, "1\nbasis: \n", "")


def test_exit_2_on_unreadable_input(tmp_path, capsys):
    binary = tmp_path / "bin.dat"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (str(tmp_path), str(binary)):
        code, out, err = _run(capsys, ["coflow", path])
        assert code == 2 and not out
        assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_invalid_basis_is_reported_1_based(tmp_path, capsys):
    path = _write(tmp_path, "digon.json", '{"rows": [[1, -1]]}')
    code, _, err = _run(capsys, ["dichromate", path, "--basis", "1,1"])
    assert code == 2
    assert err == "error: basis [1, 1] is not a set of valid column indices\n"
    code, _, err = _run(capsys, ["dichromate", path, "--basis", "1,2"])
    assert code == 2 and err.startswith("error: basis [1, 2] has size 2")


def test_exit_2_on_input_that_python_refuses_to_convert(tmp_path, capsys):
    long = "7" * 5000
    inputs = {
        "deep.json": '{"rows": ' + "[" * 100_000,
        "long-int.json": '{"rows": [[' + long + "]]}",
        "long-fraction.json": '{"rows": [["1/' + long + '"]]}',
        "long-header.digraph": f"digraph {long}\n0 1\n",
        "long-arc.digraph": f"digraph 3\n0 {long}\n",
        "superscript.digraph": "digraph \u00b2\n",
    }
    for name, text in inputs.items():
        code, out, err = _run(capsys, ["coflow", _write(tmp_path, name, text)])
        assert code == 2 and not out, name
        assert err.startswith("error: ") and err.count("\n") == 1, name


# Runs every command on a header of 10**12 vertices in a child whose address
# space is capped, so code that allocates per vertex fails there instead of
# exhausting the host's memory.
_HUGE_HEADER_CHILD = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nlpoly.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append((code, out.getvalue(), err.getvalue(), time.perf_counter() - t0))
print(json.dumps(runs))
"""


def test_vertex_count_of_the_header_costs_nothing(tmp_path, capsys):
    commands = [
        ["coflow"], ["coflow", "--oracle", "matroid"], ["coflow", "--oracle", "both"],
        ["flow"], ["dichromate"], ["check"], ["check", "--format", "json"],
        ["colorings", "--k", "1"], ["colorings", "--k", "2"],
    ]
    small = _write(tmp_path, "small.digraph", DIGON)
    huge = _write(tmp_path, "huge.digraph", DIGON.replace("digraph 2", "digraph 1000000000000"))
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_HEADER_CHILD, json.dumps([c + [huge] for c in commands])],
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for command, (code, out, err, seconds) in zip(commands, json.loads(proc.stdout)):
        assert seconds < 1.0, command
        if code == 3:
            assert not out and err.startswith("error: ") and err.count("\n") == 1, command
        else:
            assert (code, out, err) == _run(capsys, command + [small]), command
