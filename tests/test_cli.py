"""Tests for the command line interface: exit codes, formats, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from slex import cli, weights


ISO3 = ",".join([repr(1.0 / math.sqrt(3.0))] * 3)


def run(tmp_path, args, name="out"):
    path = tmp_path / name
    code = cli.main(args + ["--out", str(path)])
    return code, path


def test_verify_passes(tmp_path):
    code, path = run(tmp_path, ["verify", "--grid", "40"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["schema_version"] == 1
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
        if tuple(excl) == (1,) and isinstance(values[0], Fraction):
            row[1] = row[1] + 1
        return row

    monkeypatch.setattr(cli.symfun, "elem_sym_excl_all", lying)
    code, path = run(tmp_path, ["verify", "--grid", "10"], "bad.json")
    assert code == 1
    assert _failing_suites(path) == {"sigma_recurrences",
                                     "pair_exclusion_difference"}


def test_verify_fault_injection_gen_sym_table(tmp_path, monkeypatch):
    real = cli.symfun.gen_sym_table

    def lying(values):
        table = real(values)
        if isinstance(values[0], Fraction):
            table[1][1] = table[1][1] + 1
        return table

    monkeypatch.setattr(cli.symfun, "gen_sym_table", lying)
    code, path = run(tmp_path, ["verify", "--grid", "10"], "bad.json")
    assert code == 1
    assert _failing_suites(path) == {"product_decomposition"}


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


def test_solve_closed_case(tmp_path):
    code, path = run(tmp_path, ["solve", "--a", ISO3, "--n", "3",
                                "--theta", "critical", "--beta", "2.0",
                                "--grid", "30"], "solve.json")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["admissibility"]["klass"] == "admissible"
    assert report["admissibility"]["m"] == pytest.approx(3.0, abs=1e-10)
    assert report["partial_fractions"]["roots"] == \
        pytest.approx([-1.0, 1.0], abs=1e-12)
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
    _, path = run(tmp_path, ["solve", "--a", ISO3, "--n", "3", "--theta",
                             "critical", "--grid", "20"], "rt.json")
    text = path.read_text()
    # every float reparses and re-serializes to the identical document
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" \
        == text


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
    code, _ = run(tmp_path, ["solve", "--family", "iso", "--n", "3",
                             "--theta", "critical", "--gamma", "1e300"])
    assert code == 2
    assert "invalid input: R too large" in capsys.readouterr().err


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


def test_stderr_status_lines(tmp_path, capsys):
    run(tmp_path, ["verify", "--grid", "10"])
    assert "PASS" in capsys.readouterr().err
    run(tmp_path, ["solve", "--family", "eps:0.25"], "s.json")
    assert "inadmissible" in capsys.readouterr().err


IMPORT_GUARD = """
import contextlib, io, json, sys
import slex.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": scipy_modules(),
        "lazy": [m for m in ("numpy.random", "locale") if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = slex.cli.main(argv)
    seen[" ".join(argv)] = [code, scipy_modules()]
print(json.dumps(seen))
"""


def test_no_command_imports_scipy():
    # a cold `slex` pays no scipy import; numpy.random and locale (which
    # argparse imports on first use) are loaded with the package, so no
    # command imports them inside its run
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
    assert seen.pop("lazy") == ["numpy.random", "locale"]
    assert seen == {" ".join(argv): [0, []] for argv in argvs}
