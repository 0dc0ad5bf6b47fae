"""Tests for the command line interface: exit codes, formats, determinism."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slex import cli, phasepoly, radial, subsol, symfun, weights


ISO3 = ",".join([repr(1.0 / math.sqrt(3.0))] * 3)


def run(tmp_path, args, name="out"):
    path = tmp_path / name
    code = cli.main(args + ["--out", str(path)])
    return code, path


def test_verify_passes(tmp_path):
    code, path = run(tmp_path, ["verify", "--grid", "40"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["schema_version"] == 2
    assert report["command"] == "verify"
    assert report["zstar_unit6"] == 192
    assert report["passed"] is True
    assert report["exact_requested"] is False
    assert all(s["failures"] == 0 for s in report["suites"])
    assert {"wronskian_modes", "newton_margins"} <= \
        {s["name"] for s in report["suites"]}


def test_verify_exact_flag_and_seed(tmp_path):
    code, path = run(tmp_path, ["verify", "--grid", "25", "--exact",
                                "--seed", "7"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["exact_requested"] is True
    assert report["seed"] == 7


def test_cli_surface(tmp_path, capsys):
    # each subcommand takes only the flags it reads
    common = ["--seed", "--out", "--format"]
    assert {name: list(c.flags) for name, c in cli.COMMANDS.items()} == {
        "verify": common + ["--grid", "--exact"],
        "scan-eps": common + ["--grid"],
        "solve": common + ["--n", "--theta", "--a", "--family", "--beta",
                           "--gamma", "--alpha", "--rmax", "--grid"],
    }
    for argv in (["scan-eps", "--grid", "5"],
                 ["solve", "--family", "iso", "--n", "3", "--theta",
                  "critical", "--grid", "4"]):
        assert cli.main(argv + ["--exact", "--out",
                                str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: --exact" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
    code, path = run(tmp_path, ["verify", "--grid", "3", "--exact"])
    assert code == 0
    assert json.loads(path.read_text())["exact_requested"] is True


ISO3_SOLVE = ["solve", "--family", "iso", "--n", "3", "--theta", "critical",
              "--grid", "4"]


@pytest.mark.parametrize("argv, code, err", [
    # a value is the next token as given: a negative vector in the space
    # form
    (["solve", "--a", ",".join([repr(-1 / math.sqrt(3))] * 3), "--n", "3",
      "--theta=" + repr(-math.pi / 2), "--grid", "4"], 0, "PASS\n"),
    # the last of a repeated flag wins; both spellings are one flag
    (["scan-eps", "--grid", "1", "--grid=3"], 0, "PASS\n"),
    (["scan-eps", "--grid=3", "--grid", "1"], 2,
     "invalid input: scan grid needs at least 2 points\n"),
    # no command, or an unknown one
    ([], 2, "slex: error: the following arguments are required: command"),
    (["scan"], 2, "slex: error: argument command: invalid choice: 'scan'"),
    (["--grid", "3"], 2, "argument command: invalid choice: '--grid'"),
    # an unknown flag, an abbreviation or a stray token
    (ISO3_SOLVE + ["--exact"], 2, "unrecognized arguments: --exact"),
    (["verify", "--gri", "3"], 2, "unrecognized arguments: --gri 3"),
    (["verify", "3"], 2, "unrecognized arguments: 3"),
    (["verify", "--exact=1"], 2, "unrecognized arguments: --exact=1"),
    # a missing value, or one its converter rejects
    (["verify", "--grid"], 2, "argument --grid: expected one argument"),
    (["verify", "--grid", "x"], 2, "argument --grid: invalid literal"),
    (["verify", "--seed=1.5"], 2, "argument --seed: invalid literal"),
    (ISO3_SOLVE + ["--beta", "two"], 2, "argument --beta: could not convert"),
    (["scan-eps", "--format", "xml"], 2,
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
])
@pytest.mark.parametrize("via_sys_argv", [False, True])
def test_command_line_contract(tmp_path, capsys, monkeypatch, argv, code,
                               err, via_sys_argv):
    # --out goes right after the command, so each case's last token stays
    full = argv[:1] + ["--out", str(tmp_path / "x")] * bool(argv) + argv[1:]
    if via_sys_argv:
        # main() reads sys.argv[1:], the path the `slex` script takes
        monkeypatch.setattr(sys, "argv", ["slex"] + full)
        assert cli.main() == code
    else:
        assert cli.main(full) == code
    captured = capsys.readouterr()
    assert err in captured.err and captured.out == ""
    assert (tmp_path / "x").exists() == (code != 2)
    if code == 2 and not err.startswith("invalid input"):
        name = argv[0] if argv and argv[0] in cli.COMMANDS else None
        usage = "usage: slex" + ("" if name is None else f" {name}")
        assert captured.err.startswith(usage + " [-h]")
        assert captured.err.count("\n") == 2


def test_parse_takes_the_next_token_and_the_last_value():
    command, args = cli.parse(["solve", "--theta", "--n", "--out", "-h",
                               "--a=-1,-2", "--a", "-3,-4", "--grid", "7"])
    assert command is cli.COMMANDS["solve"]
    assert vars(args) == {"seed": 42, "out": "-h", "fmt": "json", "n": None,
                          "theta": "--n", "a": "-3,-4", "family": None,
                          "beta": 2.0, "gamma": 1.0, "alpha": 0.0,
                          "rmax": 1.0e4, "grid": 7}
    _command, args = cli.parse(("verify", "--exact", "--exact"))
    assert (args.exact, args.grid, args.fmt) == (True, 200, "json")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "-h"],
                                  ["solve", "--n", "3", "--help"],
                                  ["scan-eps", "--bogus", "-h"]])
def test_help_comes_from_the_table(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    name = argv[0] if argv[0] in cli.COMMANDS else None
    listed = cli.COMMANDS if name is None else cli.COMMANDS[name].flags
    rows = captured.out.splitlines()[4:]
    assert [row.split()[0] for row in rows] == list(listed)


def test_readme_flag_table_is_the_parser_table():
    # README's `| subcommand | flags |` rows name each command's flags in
    # the table's order, and its --format default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if (len(cells) == 2 and cells[0].startswith("`")
                and cells[0].strip("`") in cli.COMMANDS):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    assert set(rows) == set(cli.COMMANDS)
    for name, command in cli.COMMANDS.items():
        words = rows[name]
        assert [w for w in words if w.startswith("--")] == list(command.flags)
        fmt = words[words.index("--format") + 1]
        assert fmt == command.flags["--format"][2]


def test_verify_deterministic_bytes(tmp_path):
    _, p1 = run(tmp_path, ["verify", "--grid", "30", "--seed", "5"], "a.json")
    _, p2 = run(tmp_path, ["verify", "--grid", "30", "--seed", "5"], "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    _, p3 = run(tmp_path, ["verify", "--grid", "30", "--seed", "6"], "c.json")
    assert p1.read_bytes() != p3.read_bytes()


def test_verify_csv_format(tmp_path):
    code, path = run(tmp_path, ["verify", "--grid", "20", "--format", "csv"],
                     "v.csv")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,cases,failures,worst"
    assert lines[-1] == "passed,,,true"


def test_verify_fault_injection(tmp_path, monkeypatch):
    real = cli.phasepoly.ray_wronskian

    def lying(values, mode="product"):
        out = real(values, mode=mode)
        return out + 1 if mode == "product" else out

    monkeypatch.setattr(cli.phasepoly, "ray_wronskian", lying)
    code, path = run(tmp_path, ["verify", "--grid", "10"], "bad.json")
    assert code == 1
    report = json.loads(path.read_text())
    assert report["passed"] is False
    broken = [s for s in report["suites"] if s["failures"] > 0]
    assert broken
    assert any("counterexample" in s for s in broken)


def _failing_suites(path):
    report = json.loads(path.read_text())
    assert report["passed"] is False
    broken = {s["name"] for s in report["suites"] if s["failures"] > 0}
    assert all("counterexample" in s for s in report["suites"]
               if s["name"] in broken)
    return broken


def test_verify_fault_injection_exclusion_rows(tmp_path, monkeypatch):
    real = cli.symfun.elem_sym_excl_all

    def lying(values, excl=()):
        # only sigma_1(a | 1): a change to every row could cancel out of
        # the pair identity
        row = real(values, excl)
        if tuple(excl) == (1,):
            row[1] = row[1] + 1
        return row

    monkeypatch.setattr(cli.symfun, "elem_sym_excl_all", lying)
    code, path = run(tmp_path, ["verify", "--grid", "10"], "bad.json")
    assert code == 1
    # the rank-one suite reads the same kernel's rows of each float p
    assert _failing_suites(path) == {"sigma_recurrences",
                                     "pair_exclusion_difference",
                                     "rank_one_vs_eigen"}


def test_verify_fault_injection_gen_sym_table(tmp_path, monkeypatch):
    real = cli.symfun.gen_sym_table

    def lying(values):
        # every table but the all-ones ones of combinatorial_sums
        table = real(values)
        if list(values) != [1] * len(values):
            table[1][1] = table[1][1] + 1
        return table

    monkeypatch.setattr(cli.symfun, "gen_sym_table", lying)
    code, path = run(tmp_path, ["verify", "--grid", "10"], "bad.json")
    assert code == 1
    assert _failing_suites(path) == {"product_decomposition"}


def test_verify_exact_suites_hand_the_kernels_ints(tmp_path, monkeypatch):
    # the homogeneous suites run on each vector's integer numerators: no
    # Fraction goes into or comes out of these kernels, and int input gives
    # int output (the float suites reach elem_sym_all with floats)
    int_calls = dict.fromkeys(("elem_sym_all", "elem_sym_excl_all",
                               "gen_sym_table"), 0)

    def watch(name, real):
        def wrapped(values, *rest):
            out = real(values, *rest)
            flat = ([v for row in out for v in row]
                    if name == "gen_sym_table" else out)
            into, back = {type(v) for v in values}, {type(v) for v in flat}
            assert into | back <= {int, float}, (name, values)
            if into == {int}:
                assert back == {int}, (name, values)
                int_calls[name] += 1
            return out
        return wrapped

    for name in int_calls:
        monkeypatch.setattr(cli.symfun, name,
                            watch(name, getattr(cli.symfun, name)))
    code, _path = run(tmp_path, ["verify", "--grid", "12"])
    assert code == 0
    # per drawn vector (n = 3..8, twice): 2n - 1 exclusion rows, each one
    # elem_sym_all call inside, one sigma row (which newton_check reads
    # too) and one table; combinatorial_sums adds ten all-ones tables
    assert int_calls == {"elem_sym_all": 120 + 12,
                         "elem_sym_excl_all": 120, "gen_sym_table": 22}


def _product_plus_one(real):
    def lying(values, mode="product"):
        out = real(values, mode=mode)
        return out + 1 if mode == "product" else out
    return lying


def _excl_row_plus_one(excl_len):
    # sigma_1 of the rows that exclude excl_len entries, plus one
    def fault(real):
        def lying(values, excl=()):
            row = real(values, excl)
            if len(excl) == excl_len:
                row[1] = row[1] + 1
            return row
        return lying
    return fault


def _table_11_plus_one(real):
    # T[1][1] plus one, on every table but the all-ones ones of
    # combinatorial_sums
    def lying(values):
        table = real(values)
        if list(values) != [1] * len(values):
            table[1][1] = table[1][1] + 1
        return table
    return lying


def _flip_y(real):
    def lying(values):
        x, y = real(values)
        return x, -y
    return lying


def _negated(real):
    def lying(values):
        x, y = real(values)
        return -x, -y
    return lying


# verify suite -> (cli layer, kernel, fault): the fault breaks that suite
VERIFY_FAULTS = {
    "wronskian_modes": ("phasepoly", "ray_wronskian", _product_plus_one),
    "sigma_recurrences": ("symfun", "elem_sym_excl_all",
                          _excl_row_plus_one(1)),
    "pair_exclusion_difference": ("symfun", "elem_sym_excl_all",
                                  _excl_row_plus_one(2)),
    "product_decomposition": ("symfun", "gen_sym_table", _table_11_plus_one),
    "combinatorial_sums": ("symfun", "signed_odd_binomial_sum",
                           lambda real: lambda q: real(q) + 1),
    "tangent_and_sign": ("phasepoly", "alternating_parts", _flip_y),
    "wronskian_implication": ("phasepoly", "alternating_parts_weighted",
                              _negated),
    "rank_one_vs_eigen": ("symfun", "sigma_rank_one",
                          lambda real: lambda *args: real(*args) + 1.0),
    "newton_margins": ("symfun", "newton_check",
                       lambda real: lambda values: symfun.NewtonReport(
                           margins={1: -1.0}, passed=False)),
}


def test_every_verify_suite_has_a_fault(tmp_path):
    code, path = run(tmp_path, ["verify", "--grid", "2"])
    assert code == 0
    assert [s["name"] for s in json.loads(path.read_text())["suites"]] == \
        list(VERIFY_FAULTS)


@pytest.mark.parametrize("suite", list(VERIFY_FAULTS))
def test_verify_fault_injection_every_suite(tmp_path, monkeypatch, capsys,
                                            suite):
    layer, kernel, fault = VERIFY_FAULTS[suite]
    module = getattr(cli, layer)
    monkeypatch.setattr(module, kernel, fault(getattr(module, kernel)))
    code, path = run(tmp_path, ["verify", "--grid", "10"])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == "FAIL"
    report = json.loads(path.read_text())
    assert report["passed"] is False
    entry = {s["name"]: s for s in report["suites"]}[suite]
    assert entry["failures"] > 0
    assert entry["counterexample"]


def test_scan_eps_csv(tmp_path):
    code, path = run(tmp_path, ["scan-eps", "--grid", "25"], "scan.csv")
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,m_pipeline,m_closed_form"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(5.0, abs=1e-10)
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(math.pi / 12, rel=1e-15)
    assert float(last[1]) == pytest.approx((16 + 4 * math.sqrt(3)) / 13,
                                           abs=1e-9)


@pytest.mark.parametrize("grid", [2, 97, 8000])
def test_scan_eps_csv_is_the_per_value_join(tmp_path, grid):
    # one filled template gives the join of repr(float(x)) per value
    code, path = run(tmp_path, ["scan-eps", "--grid", str(grid)], "scan.csv")
    assert code == 0
    command, args = cli.parse(["scan-eps", "--grid", str(grid)])
    rows = command.run(args)["rows"]
    want = "".join(
        f"{repr(float(row['eps']))},{repr(float(row['m_pipeline']))},"
        f"{repr(float(row['m_closed_form']))}\n" for row in rows)
    assert path.read_text() == "eps,m_pipeline,m_closed_form\n" + want


def test_scan_eps_json_summary(tmp_path):
    code, path = run(tmp_path, ["scan-eps", "--grid", "25", "--format",
                                "json"], "scan.json")
    assert code == 0
    report = json.loads(path.read_text())
    s = report["summary"]
    assert s["monotone_decreasing"] is True
    assert s["max_discrepancy"] <= 1e-9
    assert 0.206 <= s["crossing_low"] <= s["crossing_high"] <= 0.208
    assert report["passed"] is True


def test_scan_eps_deterministic_bytes(tmp_path):
    _, p1 = run(tmp_path, ["scan-eps", "--grid", "15"], "s1.csv")
    _, p2 = run(tmp_path, ["scan-eps", "--grid", "15"], "s2.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_scan_eps_one_exponent_call_per_row_in_row_order(tmp_path,
                                                        monkeypatch):
    # the traced benchmark replay reads the scan rows from these calls
    results = []
    real = weights.decay_exponent

    def counted(*args, **kwargs):
        m = real(*args, **kwargs)
        results.append(m)
        return m

    monkeypatch.setattr(weights, "decay_exponent", counted)
    code, path = run(tmp_path, ["scan-eps", "--grid", "25", "--format",
                                "json"], "scan.json")
    assert code == 0
    rows = json.loads(path.read_text())["rows"]
    assert len(results) == 25 + 60
    assert results[:25] == [row["m_pipeline"] for row in rows]


# verify suite -> the symfun kernel that each of its cases calls once
VERIFY_CALL_PER_CASE = {"rank_one_vs_eigen": "sigma_rank_one",
                        "newton_margins": "newton_check",
                        "product_decomposition": "product_decomposition"}


def test_verify_one_kernel_call_per_case(tmp_path, monkeypatch):
    # the traced benchmark replay counts these calls against the cases, so
    # a suite that batches its kernel calls fails here first
    calls = dict.fromkeys(VERIFY_CALL_PER_CASE.values(), 0)

    def counted(kernel, real):
        def wrapper(*args, **kwargs):
            calls[kernel] += 1
            return real(*args, **kwargs)
        return wrapper

    for kernel in calls:
        monkeypatch.setattr(cli.symfun, kernel,
                            counted(kernel, getattr(cli.symfun, kernel)))
    code, path = run(tmp_path, ["verify", "--grid", "12"])
    assert code == 0
    cases = {s["name"]: s["cases"]
             for s in json.loads(path.read_text())["suites"]}
    assert {suite: calls[kernel]
            for suite, kernel in VERIFY_CALL_PER_CASE.items()} == \
        {suite: cases[suite] for suite in VERIFY_CALL_PER_CASE}


def test_verify_builds_rank_one_rows_once_and_batches_its_eigen_oracle(
        tmp_path, monkeypatch):
    # the rank-one suite builds each trial's n exclusion rows of the float
    # vector p once and reads every k from them; its eigenvalue oracle runs
    # once per dimension (n = 3..8) on the stacked matrices; and
    # product_decomposition hands back one tuple per (j, k, n)
    calls = {"float_rows": 0, "eigvalsh": 0, "expansions": 0}
    expansions = {}
    real_excl = symfun.elem_sym_excl_all
    real_eigvalsh = np.linalg.eigvalsh
    real_expansion = symfun.product_decomposition

    def excl(values, *rest):
        if all(type(v) is float for v in values):
            calls["float_rows"] += 1
        return real_excl(values, *rest)

    def eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return real_eigvalsh(*args, **kwargs)

    def expansion(j, k, n):
        calls["expansions"] += 1
        terms = real_expansion(j, k, n)
        assert type(terms) is tuple
        assert expansions.setdefault((j, k, n), terms) == terms
        return terms

    monkeypatch.setattr(cli.symfun, "elem_sym_excl_all", excl)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(cli.symfun, "product_decomposition", expansion)
    code, _path = run(tmp_path, ["verify", "--grid", "12"])
    assert code == 0
    assert calls["float_rows"] == sum(3 + t % 6 for t in range(12))
    assert calls["eigvalsh"] <= 6
    # every (j, k, n) comes twice: two drawn vectors per dimension
    assert calls["expansions"] == 2 * len(expansions)


def test_solve_closed_case(tmp_path):
    code, path = run(tmp_path, ["solve", "--a", ISO3, "--n", "3",
                                "--theta", "critical", "--beta", "2.0",
                                "--grid", "30"], "solve.json")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["admissibility"]["klass"] == "admissible"
    assert report["admissibility"]["m"] == pytest.approx(3.0, abs=1e-10)
    assert report["first_integral"]["log_amplitude"] == \
        pytest.approx(math.log(1.5), abs=1e-12)
    assert report["route_gap_max"] <= 1e-8
    assert report["decay_fit"]["m_est"] == pytest.approx(3.0, rel=2e-2)
    assert report["verification"]["passed"] is True
    assert report["verification"]["min_phase_gap"] >= -1e-9
    assert report["passed"] is True
    n_r = len(report["trajectory"]["r"])
    assert n_r == len(report["trajectory"]["psi_numeric"])
    assert n_r == len(report["trajectory"]["psi_implicit"])


def test_solve_iso_family(tmp_path):
    code, path = run(tmp_path, ["solve", "--family", "iso", "--n", "4",
                                "--theta", "3.6", "--beta", "1.5",
                                "--grid", "25"], "iso.json")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["admissibility"]["m"] == pytest.approx(4.0, abs=1e-10)
    assert report["passed"] is True


def test_solve_round_trip_bytes(tmp_path):
    neg3 = ",".join([repr(-1.0 / math.sqrt(3.0))] * 3)
    commands = [
        ["solve", "--a", ISO3, "--n", "3", "--theta", "critical",
         "--grid", "20"],
        # inadmissible: slow decay past the crossing, and off the level set
        ["solve", "--family", "eps:0.25", "--grid", "20"],
        ["solve", "--a", "1,2,3", "--n", "3", "--theta", "critical"],
        # all-negative data, solved through the sign reflection
        ["solve", f"--a={neg3}", "--n", "3",
         "--theta=-1.5707963267948966", "--grid", "20"],
        ["verify", "--grid", "12", "--seed", "3"],
        ["scan-eps", "--grid", "40", "--format", "json"],
    ]
    for i, args in enumerate(commands):
        _, path = run(tmp_path, args, f"rt{i}.json")
        text = path.read_text()
        # every float reparses and re-serializes to the identical document
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) \
            + "\n" == text, args


def test_solve_deterministic_bytes(tmp_path):
    args = ["solve", "--family", "iso", "--n", "3", "--theta", "critical",
            "--grid", "20"]
    _, p1 = run(tmp_path, args, "d1.json")
    _, p2 = run(tmp_path, args, "d2.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_large_eigenvalues_pass_the_scale_free_gate(tmp_path):
    # the raw level minimum is about -6.6e-8 here; the scaled one ~ -5e-15
    code, path = run(tmp_path, ["solve", "--family", "iso", "--n", "8",
                                "--theta", "11", "--grid", "24"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["verification"]["min_level_value"] < -1e-9
    assert report["passed"] is True
    assert report["verification"]["passed"] is True


def test_solve_fails_a_numeric_route_off_by_1e7(tmp_path, capsys,
                                                monkeypatch):
    args = ["solve", "--family", "iso", "--n", "5", "--theta", "critical",
            "--grid", "4"]
    code, path = run(tmp_path, args, "good.json")
    assert code == 0 and json.loads(path.read_text())["passed"] is True
    real = radial.solve_profile

    def shifted(*args, **kwargs):
        sol = real(*args, **kwargs)
        if kwargs.get("route") == "numeric":
            sol = dataclasses.replace(sol, psi=sol.psi + 1e-7)
        return sol

    monkeypatch.setattr(radial, "solve_profile", shifted)
    capsys.readouterr()
    code, path = run(tmp_path, args, "bad.json")
    report = json.loads(path.read_text())
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == "FAIL"
    assert report["route_gap_max"] == pytest.approx(1e-7, rel=1e-6)
    assert report["verification"]["passed"] is True
    assert report["passed"] is False


def test_solve_all_negative_data_runs_the_reflected_problem(tmp_path):
    # classify reflects all-negative data to (-theta, -a); every later stage
    # must run on that problem too, and the report says it did
    iso = repr(1.0 / math.sqrt(3.0))
    right = repr(math.pi / 2)
    code, pos_path = run(tmp_path, ["solve", f"--a={iso},{iso},{iso}",
                                    "--n", "3", f"--theta={right}",
                                    "--grid", "8"], "pos.json")
    assert code == 0
    code, neg_path = run(tmp_path, ["solve", f"--a=-{iso},-{iso},-{iso}",
                                    "--n", "3", f"--theta=-{right}",
                                    "--grid", "8"], "neg.json")
    assert code == 0
    pos = json.loads(pos_path.read_text())
    neg = json.loads(neg_path.read_text())
    assert "reflected" not in pos["admissibility"]
    assert neg["admissibility"] == {**pos["admissibility"], "reflected": True}
    assert neg["config"]["a"] == [-v for v in pos["config"]["a"]]
    assert neg["config"]["theta"] == -pos["config"]["theta"]
    for key in ("first_integral", "trajectory", "verification"):
        assert neg[key] == pos[key]
    assert neg["passed"] is True


@pytest.mark.parametrize("source", [
    ["--family", "iso", "--n", "5", "--theta", "critical"],
    ["--a", "10.0,10.0,0.20202020211387478", "--n", "3",
     f"--theta={math.pi!r}"],
    ["--a=-1000.0,-1000.0,-0.002000002090002129", "--n", "3",
     f"--theta={-math.pi!r}"],
], ids=["iso", "a", "reflected a"])
def test_solve_analyses_its_problem_once(tmp_path, monkeypatch, source):
    # classify checks (theta, a) and builds its profile, and
    # first_integral reads that profile: one level check, one positivity
    # check, one phase H(a), one sigma row and chain, and one first
    # integral per admissible solve.  The grid and the tail integral get
    # that same profile object, not a copy of its fields
    calls = {}
    seen = {}

    def count(module, name):
        real = getattr(module, name)
        key = f"{module.__name__.split('.')[-1]}.{name}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            seen[key] = args
            result = real(*args, **kwargs)
            seen[key + " result"] = result
            return result

        monkeypatch.setattr(module, name, counted)

    for name in ("_level_point", "_ascending_positive", "_chain", "phase",
                 "classify"):
        count(weights, name)
    count(phasepoly, "phase")
    count(radial, "first_integral")
    count(radial, "tail_integral")
    count(subsol, "verify_subsolution")
    code, path = run(tmp_path, ["solve", *source, "--grid", "4"])
    assert code == 0
    assert json.loads(path.read_text())["admissibility"]["klass"] == \
        "admissible"
    assert calls == {"weights._level_point": 1,
                     "weights._ascending_positive": 1, "weights._chain": 1,
                     "weights.phase": 1, "weights.classify": 1,
                     "phasepoly.phase": 0, "radial.first_integral": 1,
                     "radial.tail_integral": 1,
                     "subsol.verify_subsolution": 1}
    adm = seen["weights.classify result"]
    pf = seen["radial.first_integral result"]
    assert pf.prof is adm.profile
    for key in ("radial.tail_integral", "subsol.verify_subsolution"):
        assert seen[key][0].prof is adm.profile


def test_solve_slow_decay_exits_one(tmp_path):
    code, path = run(tmp_path, ["solve", "--family", "eps:0.25"],
                     "slow.json")
    assert code == 1
    report = json.loads(path.read_text())
    assert report["admissibility"]["klass"] == "slow_decay"
    assert report["admissibility"]["m"] is not None
    assert report["admissibility"]["m"] < 2.0
    assert report["passed"] is False
    assert "verification" not in report


def test_solve_off_level_exits_one(tmp_path):
    code, path = run(tmp_path, ["solve", "--a", "1.0,2.0,3.0", "--n", "3",
                                "--theta", "critical"], "off.json")
    assert code == 1
    report = json.loads(path.read_text())
    assert report["admissibility"]["klass"] == "outside"
    assert report["admissibility"]["m"] is None


@pytest.mark.parametrize("source", [["--family", "iso"],
                                    ["--a", "1,1,1"]])
def test_solve_subcritical_phase_exits_one(tmp_path, capsys, source):
    # the iso point is on the level set, (1, 1, 1) is not; both are outside
    code, path = run(tmp_path, ["solve"] + source + ["--n", "3", "--theta",
                                                     "0.5"], "sub.json")
    assert code == 1
    report = json.loads(path.read_text())
    assert report["admissibility"] == {"klass": "outside", "m": None}
    assert report["passed"] is False
    assert "verification" not in report
    assert "inadmissible: klass=outside" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["verify", "--grid", "2"],
    ["scan-eps", "--grid", "3"],
    ["scan-eps", "--grid", "3", "--format", "json"],
    ["solve", "--family", "iso", "--n", "3", "--theta", "critical",
     "--grid", "4"],
])
def test_unwritable_out_exits_two(tmp_path, args):
    # a fresh process: the OSError must not escape as a traceback (exit 1)
    out = tmp_path / "missing" / "x.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "slex.cli", *args,
                           "--out", str(out)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"invalid input: cannot write --out {out}: "
                           "No such file or directory\n")


def test_invalid_inputs_exit_two(tmp_path, capsys):
    assert cli.main(["solve", "--a", ISO3, "--family", "iso", "--n", "3",
                     "--theta", "critical"]) == 2
    assert cli.main(["solve", "--n", "3", "--theta", "critical"]) == 2
    assert cli.main(["solve", "--family", "eps:0.1", "--n", "4"]) == 2
    assert cli.main(["solve", "--family", "iso", "--n", "3", "--theta",
                     "critical", "--format", "csv"]) == 2
    assert cli.main(["solve", "--a", "1.0,1.0", "--n", "3", "--theta",
                     "critical"]) == 2
    assert cli.main(["solve", "--family", "nope"]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err


@pytest.mark.parametrize("flag", ["--beta", "--gamma", "--alpha", "--rmax"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_non_finite_parameter_exits_two(tmp_path, capsys, flag, value):
    code, path = run(tmp_path, ["solve", "--family", "iso", "--n", "3",
                                "--theta", "critical", f"{flag}={value}"])
    assert code == 2
    assert f"invalid input: {flag} must be finite" in capsys.readouterr().err
    assert not path.exists()


def test_solve_huge_gamma_exits_two(tmp_path, capsys):
    # beta = 1 too: its zero tail no longer skips the range check
    for beta in ("2", "1"):
        code, _ = run(tmp_path, ["solve", "--family", "iso", "--n", "3",
                                 "--theta", "critical", "--gamma", "1e300",
                                 "--beta", beta])
        assert code == 2
        assert capsys.readouterr().err == (
            "invalid input: --gamma out of range: the grid radius 50*gamma "
            "overflows\n")


@pytest.mark.parametrize("gamma", ["1e308", "-1e308"])
def test_solve_gamma_overflowing_the_grid_radius_names_gamma(tmp_path, capsys,
                                                             gamma):
    # the grid radius 50*gamma overflows before any stage runs
    code, path = run(tmp_path, ["solve", "--family", "iso", "--n", "3",
                                "--theta", "critical", f"--gamma={gamma}"])
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid input: --gamma out of range: the grid radius 50*gamma "
        "overflows\n")
    assert not path.exists()


@pytest.mark.parametrize("gamma", ["0.5", "0.999"])
def test_solve_gamma_below_one_names_gamma(tmp_path, capsys, gamma):
    code, path = run(tmp_path, ["solve", "--family", "iso", "--n", "3",
                                "--theta", "critical", "--gamma", gamma])
    assert code == 2
    assert capsys.readouterr().err == \
        "invalid input: gamma must be finite and at least 1\n"
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("args", [
    ["scan-eps", "--grid", "3000"],
    ["scan-eps", "--grid", "3"],
    ["solve", "--family", "iso", "--n", "3", "--theta", "critical",
     "--grid", "4"],
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_unwritable_stdout_exits_two(args, unbuffered):
    # a fresh process whose stdout is full: the write error is invalid
    # input, reported on one line, with no traceback.  Block-buffered, a short
    # report fails only when flushed; unbuffered, at the write itself.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "slex.cli", *args],
                              stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("invalid input: cannot write stdout: "
                           "No space left on device\n")


@pytest.mark.parametrize("n, theta", [("170", "266"), ("200", "critical")])
def test_solve_sigma_overflow_exits_two(tmp_path, capsys, n, theta):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, path = run(tmp_path, ["solve", "--family", "iso", "--n", n,
                                    "--theta", theta])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid input: sigma row of the vector leaves the float range" \
        in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not path.exists()


@pytest.mark.parametrize("n, beta, message", [
    (64, "1e6", "integration failed"),
    (156, "2", "ray polynomial shifted to 1 leaves the float range"),
    (170, "2", "ray polynomial shifted to 1 leaves the float range")])
def test_solve_radial_failure_exits_two(n, beta, message):
    # the radial solvers' errors are reported like invalid input, in a
    # fresh process, with no traceback: the numeric route's D at psi = 1e6
    # overflows at n = 64, the shifted ray polynomial from n = 155
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "slex.cli", "solve",
                           "--family", "iso", "--n", str(n), "--theta",
                           "critical", "--beta", beta, "--grid", "4"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"invalid input: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [(), ("-W", "error")])
def test_solve_large_beta_does_not_warn(flags):
    # a fresh process with the default warning filters, and one under
    # python -W error: beta = 2000 binds like any beta in range, and the
    # log of C never overflows, so no warning is raised
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, *flags, "-m", "slex.cli",
                           "solve", "--family", "iso", "--n", "4", "--theta",
                           "3.6", "--beta", "2000", "--grid", "4"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert proc.stderr.splitlines() == _solve_status(report) + ["PASS"]
    assert report["config"]["beta"] == 2000.0


def test_solve_warning_made_an_error_exits_two(tmp_path, capsys,
                                               monkeypatch):
    # a warning that the filters make an error (python -W error) is
    # reported like invalid input, on one line, with no report and no
    # traceback; without the error filter it is printed as "warning:"
    real = radial.tail_integral

    def warns(*args):
        warnings.warn("tail integral warns", RuntimeWarning)
        return real(*args)

    monkeypatch.setattr(radial, "tail_integral", warns)
    argv = ["solve", "--family", "iso", "--n", "4", "--theta", "3.6",
            "--grid", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, path = run(tmp_path, argv)
    assert code == 2
    assert capsys.readouterr().err == "invalid input: tail integral warns\n"
    assert not path.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, path = run(tmp_path, argv)
    assert code == 0
    assert capsys.readouterr().err.splitlines() == (
        ["warning: tail integral warns"]
        + _solve_status(json.loads(path.read_text())) + ["PASS"])


@pytest.mark.parametrize("entries", ["nan,1,1", "inf,1,1", "1,-inf,1"])
def test_solve_non_finite_entry_exits_two(tmp_path, capsys, entries):
    code, path = run(tmp_path, ["solve", f"--a={entries}", "--n", "3",
                                "--theta", "critical"])
    assert code == 2
    assert "invalid input: --a entries must be finite" in \
        capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("family", ["iso", "eps:0.25"])
@pytest.mark.parametrize("grid", ["0", "-2"])
def test_solve_grid_below_one_exits_two(tmp_path, capsys, family, grid):
    # eps:0.25 is inadmissible: the grid is rejected before classification
    code, path = run(tmp_path, ["solve", "--family", family, "--n",
                                "3" if family == "iso" else "5", "--theta",
                                "critical" if family == "iso" else
                                repr(5 * math.pi / 3), f"--grid={grid}"])
    assert code == 2
    assert "invalid input: the grid needs at least one shell" in \
        capsys.readouterr().err
    assert not path.exists()


OFF_LEVEL = ["--a", "1,2,3", "--n", "3", "--theta", "critical"]


@pytest.mark.parametrize("flag, message", [
    ("--grid=0", "the grid needs at least one shell"),
    ("--grid=-2", "the grid needs at least one shell"),
    ("--beta=0.5", "beta must be at least 1"),
    ("--beta=2e6", "beta above the supported cap 1e6"),
    ("--gamma=0.5", "gamma must be finite and at least 1"),
    ("--rmax=0.5", "r_max must be finite and exceed 1"),
    # above 1, but the 241 log-spaced sample radii round together
    ("--rmax=1.00000000000002", "--rmax 1.00000000000002 is too close to 1: "
     "its 241 log-spaced sample radii do not increase"),
    ("--rmax=1.00000000000005", "--rmax 1.00000000000005 is too close to 1: "
     "its 241 log-spaced sample radii do not increase"),
])
def test_solve_flag_out_of_range_exits_two_whatever_the_vector(
        tmp_path, capsys, flag, message):
    # every flag is range-checked before the vector is classified: an
    # admissible and an off-level vector give the same exit and message
    for source in (["--family", "iso", "--n", "3", "--theta", "critical"],
                   OFF_LEVEL):
        code, path = run(tmp_path, ["solve", *source, flag])
        assert code == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert not path.exists()


def test_solve_large_beta_on_an_off_level_vector_does_not_warn(tmp_path,
                                                               capsys):
    # beta = 2000 is in range: the vector is classified, nothing binds
    # beta, and the warning, made only where it is bound, never fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, path = run(tmp_path, ["solve", *OFF_LEVEL, "--beta", "2000"])
    assert code == 1
    assert capsys.readouterr().err == \
        "inadmissible: klass=outside m=None\n"
    assert json.loads(path.read_text())["admissibility"]["klass"] == \
        "outside"


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_verify_grid_below_one_exits_two(tmp_path, capsys, grid):
    code, path = run(tmp_path, ["verify", f"--grid={grid}"])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err
    assert not path.exists()


def test_verify_negative_seed_exits_two(tmp_path, capsys):
    code, path = run(tmp_path, ["verify", "--seed=-1", "--grid", "5"])
    assert code == 2
    assert "invalid input: --seed must be a non-negative integer" in \
        capsys.readouterr().err
    assert not path.exists()


def test_verify_exclusion_suite_case_counts(tmp_path):
    code, path = run(tmp_path, ["verify", "--grid", "60"])
    assert code == 0
    cases = {s["name"]: s["cases"]
             for s in json.loads(path.read_text())["suites"]}
    # n = 3..8, ten vectors each: sum (n+1)^2 and sum n(n-1)
    assert cases["sigma_recurrences"] == 2710
    assert cases["pair_exclusion_difference"] == 1660


def _status_lines(tmp_path, capsys, argv):
    # (exit code, report, stderr lines) of one run with a JSON report
    capsys.readouterr()
    (tmp_path / "status.json").unlink(missing_ok=True)
    code, path = run(tmp_path, argv, "status.json")
    report = json.loads(path.read_text()) if path.exists() else None
    return code, report, capsys.readouterr().err.splitlines()


def _verify_status(report):
    return [f"{s['name']}: cases={s['cases']} failures={s['failures']} "
            f"worst={s['worst']}" for s in report["suites"]]


def _solve_status(report):
    check = report["verification"]
    return [f"route_gap_max={report['route_gap_max']!r} "
            f"min_phase_gap={check['min_phase_gap']!r} "
            f"min_level_value={check['min_level_value']!r}"]


def test_stderr_status_lines(tmp_path, capsys, monkeypatch):
    # the exact stderr of each outcome; the numbers come from the report
    code, report, lines = _status_lines(tmp_path, capsys,
                                        ["verify", "--grid", "10"])
    assert code == 0 and len(report["suites"]) == 9
    assert lines == _verify_status(report) + ["PASS"]

    code, report, lines = _status_lines(
        tmp_path, capsys, ["scan-eps", "--grid", "5", "--format", "json"])
    s = report["summary"]
    assert code == 0
    assert lines == [f"m(0)={s['m_at_zero']!r} "
                     f"m(pi/12)={s['m_at_endpoint']!r} "
                     f"max_discrepancy={s['max_discrepancy']!r} "
                     f"monotone=True "
                     f"crossing=[{s['crossing_low']!r}, "
                     f"{s['crossing_high']!r}]", "PASS"]

    iso = ["solve", "--family", "iso", "--n", "4", "--theta", "3.6",
           "--grid", "4"]
    code, report, lines = _status_lines(tmp_path, capsys, iso)
    assert code == 0
    assert lines == _solve_status(report) + ["PASS"]

    code, report, lines = _status_lines(
        tmp_path, capsys, ["solve", "--family", "eps:0.25", "--grid", "4"])
    assert code == 1 and report["admissibility"]["klass"] == "slow_decay"
    assert lines == [f"inadmissible: klass=slow_decay "
                     f"m={report['admissibility']['m']!r}"]

    code, report, lines = _status_lines(tmp_path, capsys,
                                        ["solve", "--n", "3"])
    assert (code, report) == (2, None)
    assert lines == ["invalid input: provide exactly one of --a or --family"]

    monkeypatch.setattr(cli.phasepoly, "ray_wronskian", _product_plus_one(
        cli.phasepoly.ray_wronskian))
    code, report, lines = _status_lines(tmp_path, capsys,
                                        ["verify", "--grid", "10"])
    assert code == 1 and report["suites"][0]["failures"] > 0
    assert lines == _verify_status(report) + ["FAIL"]


IMPORT_GUARD = """
import contextlib, io, json, sys
import slex.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": scipy_modules(),
        "lazy": [m for m in ("numpy.random", "argparse", "gettext", "locale")
                 if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = slex.cli.main(argv)
    seen[" ".join(argv)] = [code, scipy_modules() + [
        m for m in ("argparse", "gettext", "locale") if m in sys.modules]]
print(json.dumps(seen))
"""


def test_no_command_imports_scipy():
    # a cold `slex` pays no scipy import, and no argparse, gettext or
    # locale: the flag table parses every command line; numpy.random is
    # loaded with the package, so no command imports it inside its run
    argvs = [["solve", "--family", "iso", "--n", "5", "--theta", "critical",
              "--grid", "4"],
             ["solve", "--family", "eps:0.1", "--grid", "4"],
             ["verify", "--grid", "2"], ["scan-eps", "--grid", "5"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           json.dumps(argvs)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("import") == []
    assert seen.pop("lazy") == ["numpy.random"]
    assert seen == {" ".join(argv): [0, []] for argv in argvs}
