"""tools/report_gate.py: its corpus, and one command compared both ways."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "report_gate", ROOT / "tools" / "report_gate.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


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
    # every command line names a command, but the two parser cases that
    # give none or an unknown one
    assert [argv for _name, _flags, argv in cases
            if argv[:1] not in (("verify",), ("scan-eps",), ("solve",))] == \
        [(), ("scan",)]
    workloads = [name.split(" #")[0] for name in names if " #" in name]
    per_workload = {w: workloads.count(w) for w in set(workloads)}
    assert per_workload == {"scan-fine": 25, "solve-sweep": 25,
                            "verify-exact": 25}
    assert len(cases) == len(readme) + len(gate.EDGE_CASES) + 75


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
