"""tools/report_gate.py: its corpus, and one command compared both ways."""

import json
import shutil
from pathlib import Path

import pytest

import report_gate as gate

ROOT = Path(__file__).resolve().parent.parent


def test_corpus_holds_readme_edge_cases_and_workloads():
    cases = gate.corpus()
    names = [name for name, _flags, _argv in cases]
    assert len(names) == len(set(names))
    readme = gate.readme_commands(ROOT / "README.md")
    # the multi-line `solve --a ... \` command is joined into one argv
    assert ("solve", "--a",
            "0.5773502691896258,0.5773502691896258,0.5773502691896258",
            "--n", "3", "--theta", "critical", "--beta", "2", "--gamma", "1",
            "--out", "run.json") in readme
    assert len(readme) >= 6
    # every command line names a command, but the top-level help and the
    # parser cases that give none or an unknown one
    assert [argv for _name, _flags, argv in cases
            if argv[:1] not in (("verify",), ("scan-eps",), ("solve",))] == \
        [("-h",), (), ("scan",), ("--grid", "3")]
    workloads = [name.split(" #")[0] for name in names if " #" in name]
    per_workload = {w: workloads.count(w) for w in set(workloads)}
    assert per_workload == {"scan-fine": 25, "solve-sweep": 25,
                            "verify-exact": 25}
    assert len(cases) == (len(readme) + len(gate.EDGE_CASES)
                          + len(gate.CONTRACT) + 75)


def test_corpus_holds_each_contract_line_once():
    # the contract's lines are written once, as CONTRACT rows: no other
    # part of the corpus repeats one
    argvs = [argv for _name, _flags, argv in gate.corpus()]
    assert [argv for argv, _code, _err in gate.CONTRACT
            if argvs.count(argv) != 1] == []
    assert {code for _argv, code, _err in gate.CONTRACT} == {0, 1, 2}


def test_one_command_compared_against_this_tree():
    argv = ("solve", "--family", "iso", "--n", "3", "--theta", "critical",
            "--grid", "4", "--out", "run.json")
    here = gate.run(ROOT, (), argv)
    assert here["exit code"] == 0
    assert list(here["--out bytes"]) == ["run.json"]
    assert b"PASS" in here["stderr"]
    assert gate.differences(here, gate.run(ROOT, (), argv)) == []
    # one more shell changes the report ("grid" and "points") only
    other = gate.run(ROOT, (), argv[:-4] + ("--grid", "5", "--out",
                                            "run.json"))
    diff = gate.differences(here, other)
    assert "--out bytes" in diff and "exit code" not in diff


def test_gate_rejects_a_tree_without_slex(tmp_path):
    with pytest.raises(SystemExit) as exc:
        gate.main([str(tmp_path)])
    assert exc.value.code == 2


def test_json_moves_name_added_removed_and_changed_paths():
    old = {"schema_version": 4, "passed": True, "mu": {"at_gamma": 1.5},
           "trajectory": {"r": [1.0, 2.0, 3.0]}, "seed": 7,
           "gap": float("nan")}
    new = {"schema_version": 4, "passed": False, "mu": {"at_gamma": 1.5,
                                                        "at_10gamma": 0.1},
           "trajectory": {"r": [1.0, 2.5]}, "gap": float("nan")}
    assert gate.json_moves(old, new) == [
        ("added", "mu.at_10gamma"), ("changed", "passed"),
        ("removed", "seed"), ("changed", "trajectory.r.1"),
        ("removed", "trajectory.r.2")]
    assert gate.json_moves(old, old) == []
    assert gate.json_moves(1, 2) == [("changed", ".")]
    # the float leaves that changed: r.1 moved by 0.5, 0.5/2.5 = 0.2
    # relative; an int, a bool, an added float and a NaN do not count
    assert gate.largest_float_moves(old, new) == ((0.2, "trajectory.r.1"),
                                                  (0.5, "trajectory.r.1"))
    assert gate.largest_float_moves(old, old) is None
    assert gate.largest_float_moves({"n": 1, "nan": 1.0},
                                    {"n": 2, "nan": float("nan"),
                                     "x": 1.5}) is None
    assert gate.largest_float_moves([1.0, -2.0, 4.0],
                                    [1.0, -2.5, 4.0 + 1e-12]) == \
        ((0.2, "1"), (0.5, "1"))
    # a minimum near zero leads the relative moves, a large leaf the
    # absolute ones
    assert gate.largest_float_moves({"min": 1e-15, "big": 1000.0},
                                    {"min": 2e-15, "big": 1000.5}) == \
        ((0.5, "min"), (0.5, "big"))


def test_report_moves_reads_json_outputs_only():
    def record(stdout, out, code=0):
        return {"stdout": stdout, "--out bytes": out, "exit code": code,
                "stdout sha256": hash(stdout), "stderr": b""}

    old = json.dumps({"a": 1, "b": [1, 2]}).encode()
    new = json.dumps({"a": 2, "b": [1, 2], "c": None}).encode()
    many = json.dumps({f"k{i}": i for i in range(12)}).encode()
    here = record(new, {"run.json": many, "table.csv": b"x\n2\n"})
    there = record(old, {"run.json": b"{}", "table.csv": b"x\n1\n"})
    assert gate.report_moves(here, there) == [
        "stdout JSON: changed a, added c",
        "--out run.json JSON: added k0, added k1, added k10, added k11, "
        "added k2, added k3, added k4, added k5 (and 4 more)"]
    assert gate.report_moves(here, here) == []
    # 1.0 and 1 parse to equal values
    assert gate.report_moves(record(b"[1.0]", {}), record(b"[1]", {})) == [
        "stdout JSON: same values, other bytes"]
    # a float leaf that moved gives the largest relative and absolute moves
    assert gate.report_moves(record(b'{"mu": [2.0, 3.0000000000003]}', {}),
                             record(b'{"mu": [2.0, 3.0]}', {})) == [
        "stdout JSON: changed mu.1; largest relative move 1e-13 at mu.1, "
        "absolute 3e-13 at mu.1"]
    # the summary counts the commands that differ and those whose exit
    # code moved
    results = [(here, here), (here, there), (record(new, {}, 1), there)]
    assert gate.summary(results, ROOT) == (
        "3 commands, 1 identical, 2 differ, 1 with another exit code "
        f"(this tree against {ROOT})")


def test_a_gate_run_writes_no_bytecode(tmp_path, monkeypatch):
    # whatever the caller's environment says
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "slex", tree / "src" / "slex",
                    ignore=shutil.ignore_patterns("__pycache__"))
    here = gate.run(tree, (), ("scan-eps", "--grid", "2"))
    assert here["exit code"] == 0
    assert list((tree / "src").rglob("__pycache__")) == []
