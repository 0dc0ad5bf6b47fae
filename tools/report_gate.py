"""Compare the reports of this checkout and another on one fixed corpus.

    python tools/report_gate.py OTHER_CHECKOUT

Every command of the corpus runs as a fresh `slex` process, once with
PYTHONPATH=<this tree>/src and once with PYTHONPATH=OTHER_CHECKOUT/src,
each in an empty working directory of its own and with
PYTHONDONTWRITEBYTECODE=1, so that neither checkout gains a bytecode
cache it would later run from.  The gate compares, per command, the exit
code, the sha256 of stdout, stderr, and the bytes of the --out file.  It
prints one line per command that differs, and under it, where stdout or
an --out file differs and both sides parse as JSON, up to MOVES_SHOWN of
the dotted key paths that were added, removed or changed, and the
largest relative and the largest absolute move of a float leaf (a
minimum near zero can move far relative to itself while it moves at
rounding level).  A summary line follows, with
the count of commands whose exit code moved; the gate exits 1 on any
difference, 0 when every command agrees.

The corpus:
  * the `slex ...` command lines of README.md's shell blocks;
  * CONTRACT below: command lines with the exit code and stderr each
    must give: every invalid input a command reaches (exit 2), check
    failures (exit 1) and two parser cases that pass;
  * EDGE_CASES below: inputs at the ends of the supported range, help,
    the one line run under an interpreter flag (-W error) and an --out
    in a missing directory;
  * 25 operations of each benchmark workload at seed 11, drawn by
    bench/workloads.py.

A speed-up counts only if it reproduces the same reports (ROADMAP, aim 1):
this is the check for it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 11
WORKLOAD_OPS = 25
JOBS = 2  # commands run at once
TIMEOUT_S = 600
MOVES_SHOWN = 8  # key paths printed per differing JSON output
# what decides whether a command agrees; a run's raw stdout is kept only to
# say how a JSON report moved
COMPARED = ("exit code", "stdout sha256", "stderr", "--out bytes")
RUN = "import sys; from slex.cli import main; sys.exit(main(sys.argv[1:]))"

_PI = repr(math.pi)
# (argv, exit code, stderr) of each command line whose outcome is the exit
# code contract: 0 pass, 1 check failure, 2 invalid input.  err is the whole
# of stderr for an "invalid input:" row, and a part of it otherwise (a
# parser error, a verdict).  The gate runs every row; tests/test_cli.py
# holds each to its code and err, and tests/test_layering.py runs each
# under a line tracer to find the raises no command line reaches.
_ISO3 = ("solve", "--family", "iso", "--n", "3", "--theta", "critical")
_ISO3_GRID = _ISO3 + ("--grid", "4")
_OFF_LEVEL = ("solve", "--a", "1,2,3", "--n", "3", "--theta", "critical")
_EPS = ("solve", "--family", "eps:0.25", "--n", "5", "--theta",
        repr(5 * math.pi / 3))
_ISO_A = ",".join([repr(1.0 / math.sqrt(3.0))] * 3)
_OUTSIDE = "inadmissible: klass=outside m=None\n"
_NO_VECTOR = "provide exactly one of --a or --family"
_GRID = "the grid needs at least one shell"
_GAMMA = "gamma must be finite and at least 1"
_RMAX = "r_max must be finite and exceed 1"
_HUGE_GAMMA = ("--gamma out of range: the grid points, up to "
               "50*gamma/sqrt(min a_i) from the origin, may overflow")
_TOO_CLOSE = ("--rmax {0} is too close to 1: its 241 log-spaced sample "
              "radii do not increase")
_EPS_THETA = "the eps family lives at theta = 5*pi/3"
_LENGTH = "--a length disagrees with --n"
_INVALID = [
    # verify and scan-eps: the grid and the seed
    *((("verify",) + grid, "verify grid needs at least 1 vector")
      for grid in (("--grid", "0"), ("--grid=0",), ("--grid=-3",))),
    *((argv, "--seed must be a non-negative integer")
      for argv in (("verify", "--seed", "-1"),
                   ("verify", "--seed=-1", "--grid", "5"),
                   ("verify", "--grid", "1", "--seed", "-1"))),
    (("scan-eps", "--grid", "1"), "scan grid needs at least 2 points"),
    # solve's flags, each before the vector is read and whatever it is,
    # in the order checked: finite, the grid's reach, the grid count, beta
    # at least 1 and at most the cap, gamma at least 1, then r_max
    *((_ISO3 + (f"--{name}={value}",), f"--{name} must be finite")
      for name in ("beta", "gamma", "alpha", "rmax")
      for value in ("nan", "inf", "-inf")),
    (_ISO3 + ("--beta", "nan"), "--beta must be finite"),
    (_ISO3_GRID + ("--beta", "nan"), "--beta must be finite"),
    *((_ISO3 + gamma, _HUGE_GAMMA)
      for gamma in (("--gamma", "1e300", "--beta", "2"),
                    ("--gamma", "1e300", "--beta", "1"),
                    ("--gamma", "1e300", "--grid", "4"),
                    ("--gamma", "1e308"), ("--gamma=1e308",),
                    ("--gamma=-1e308",), ("--grid", "4", "--gamma", "1e308"))),
    *((source + (flag,), message)
      for source in (_ISO3, _OFF_LEVEL)
      for flag, message in (
          ("--grid=0", _GRID), ("--grid=-2", _GRID),
          ("--beta=0.5", "beta must be at least 1"),
          ("--beta=2e6", "beta above the supported cap 1e6"),
          ("--gamma=0.5", _GAMMA), ("--rmax=0.5", _RMAX),
          ("--rmax=1.00000000000002", _TOO_CLOSE.format("1.00000000000002")),
          ("--rmax=1.00000000000005",
           _TOO_CLOSE.format("1.00000000000005")))),
    *((_EPS + (grid,), _GRID) for grid in ("--grid=0", "--grid=-2")),
    *((_ISO3_GRID + (flag,), message)
      for flag, message in (("--grid=0", _GRID), ("--gamma=0.5", _GAMMA),
                            ("--beta=0.5", "beta must be at least 1"),
                            ("--rmax=0.5", _RMAX))),
    (_ISO3_GRID + ("--grid", "0"), _GRID),
    (_ISO3_GRID + ("--beta", "0.5"), "beta must be at least 1"),
    *((argv, "beta above the supported cap 1e6")
      for argv in (_ISO3_GRID + ("--beta", "2e6"),
                   _ISO3 + ("--beta", "2e6", "--grid", "4"))),
    (_ISO3_GRID + ("--gamma", "0.5"), _GAMMA),
    (_ISO3 + ("--gamma", "0.5"), _GAMMA),
    (_ISO3 + ("--gamma", "0.999"), _GAMMA),
    (_ISO3_GRID + ("--rmax", "0.5"), _RMAX),
    *((argv, _TOO_CLOSE.format("1.0000000000000002"))
      for argv in (_ISO3_GRID + ("--rmax", "1.0000000000000002"),
                   _ISO3 + ("--rmax", "1.0000000000000002", "--grid", "4"))),
    # the vector's source: --a or --family, n, theta and the entries
    (("solve",), _NO_VECTOR),
    (("solve", "--grid", "4"), _NO_VECTOR),
    (("solve", "--n", "3", "--theta", "critical"), _NO_VECTOR),
    (("solve", "--a", _ISO_A) + _ISO3[1:], _NO_VECTOR),
    (("solve", "--family", "iso"), "--family iso needs --n and --theta"),
    (("solve", "--family", "iso", "--grid", "4"),
     "--family iso needs --n and --theta"),
    (("solve", "--family", "eps:0.1", "--n", "4"),
     "the eps family is five dimensional"),
    (("solve", "--family", "eps:0.1", "--theta", "1"), _EPS_THETA),
    # a NaN theta is not 5 pi/3 either
    (("solve", "--family", "eps:0.1", "--theta", "nan", "--grid", "2"),
     _EPS_THETA),
    (("solve", "--family", "eps:1"), "eps must lie in [0, pi/12]"),
    (("solve", "--family", "eps:1", "--grid", "4"),
     "eps must lie in [0, pi/12]"),
    *((("solve", "--family", family), "family must be 'iso' or 'eps:<value>'")
      for family in ("cube", "nope")),
    (("solve", "--a", "1,2,3"), "--a needs --n and --theta"),
    *((("solve", entries) + _ISO3[3:], "--a entries must be finite")
      for entries in ("--a=nan,1,1", "--a=inf,1,1", "--a=1,-inf,1")),
    (("solve", "--a", "inf,1,1") + _ISO3[3:], "--a entries must be finite"),
    (("solve", "--a", "1,2") + _ISO3[3:], _LENGTH),
    (("solve", "--a", "1.0,1.0") + _ISO3[3:], _LENGTH),
    # the phase and the dimension
    *((("solve", "--family", "iso", "--n", "2", "--theta", "1") + grid,
       "dimension must be at least 3") for grid in ((), ("--grid", "4"))),
    *((("solve", "--family", "iso", "--n", "3", "--theta", "10") + grid,
       "theta must lie strictly inside (-n*pi/2, n*pi/2)")
      for grid in ((), ("--grid", "4"))),
]
# vectors past the float range
_PAST_FLOAT_RANGE = [
    (("solve", "--family", "iso", "--n", "200", "--theta", "critical",
      "--grid", "4"), "sigma row of the vector leaves the float range"),
    *((("solve", "--family", "iso", "--n", "154", "--theta", "critical")
       + beta + ("--grid", "4"),
       "ray polynomial shifted to 1 leaves the float range")
      for beta in ((), ("--beta", "1e6"))),
]
# solve's exit rule (ROADMAP items 1 and 18): exit 1 is an inadmissible
# problem or a failed cli.GATES row.  A route that fails its own check (a
# ProfileSolution or residue check) on valid input exits 2, as invalid
# input does: no gate reads it, and a fault still never exits 0
CONTRACT = [
    # a value is the next token as given: a negative vector in the space
    # form
    (("solve", "--a", ",".join([repr(-1 / math.sqrt(3))] * 3), "--n", "3",
      "--theta=" + repr(-math.pi / 2), "--grid", "4"), 0, "PASS\n"),
    # the last of a repeated flag wins; both spellings are one flag
    (("scan-eps", "--grid", "1", "--grid=3"), 0, "PASS\n"),
    (("scan-eps", "--grid=3", "--grid", "1"), 2,
     "invalid input: scan grid needs at least 2 points\n"),
    # no command, or an unknown one
    ((), 2, "slex: error: the following arguments are required: command"),
    (("scan",), 2, "slex: error: argument command: invalid choice: 'scan'"),
    (("--grid", "3"), 2, "argument command: invalid choice: '--grid'"),
    # an unknown flag, an abbreviation or a stray token
    (_ISO3_GRID + ("--exact",), 2, "unrecognized arguments: --exact"),
    (("verify", "--gri", "3"), 2, "unrecognized arguments: --gri 3"),
    (("verify", "3"), 2, "unrecognized arguments: 3"),
    (("verify", "--exact=1"), 2, "unrecognized arguments: --exact=1"),
    # a missing value, or one its converter rejects
    (("verify", "--grid"), 2, "argument --grid: expected one argument"),
    (("verify", "--grid", "x"), 2, "argument --grid: invalid literal"),
    (("verify", "--seed=1.5"), 2, "argument --seed: invalid literal"),
    (_ISO3_GRID + ("--beta", "two"), 2, "argument --beta: could not convert"),
    (("scan-eps", "--format", "xml"), 2,
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    # the flags that changed no report are unknown flags, with no alias
    (("verify", "--exact"), 2, "unrecognized arguments: --exact"),
    (("scan-eps", "--seed", "3"), 2, "unrecognized arguments: --seed 3"),
    (_ISO3_GRID + ("--seed", "3"), 2, "unrecognized arguments: --seed 3"),
    (_ISO3_GRID + ("--format", "json"), 2,
     "unrecognized arguments: --format json"),
    *((argv, 2, "unrecognized arguments: --exact")
      for argv in (("verify", "--grid", "3", "--exact"),
                   ("scan-eps", "--grid", "5", "--exact"))),
    (("scan-eps", "--grid", "5", "--seed", "3"), 2,
     "unrecognized arguments: --seed 3"),
    (_ISO3 + ("--format", "csv"), 2, "unrecognized arguments: --format csv"),
    *((argv, 2, f"invalid input: {message}\n") for argv, message in _INVALID),
    # the iso point at theta = -1 is all negative, and its reflection, at
    # theta = 1, is subcritical.  Rows keep their places and new ones go
    # last: the contract test names each row by its index
    *((("solve", "--family", "iso", "--n", "3", "--theta", "-1") + grid, 1,
       _OUTSIDE) for grid in ((), ("--grid", "4"))),
    *((argv, 2, f"invalid input: {message}\n")
      for argv, message in _PAST_FLOAT_RANGE),
    # check failures: off the level set, of mixed sign, subcritical, slow
    # decay, and a grid check that fails
    *((argv, 1, _OUTSIDE)
      for argv in (_OFF_LEVEL, _OFF_LEVEL + ("--grid", "4"),
                   _OFF_LEVEL + ("--beta=2000",),
                   ("solve", "--a=-1,2,3") + _ISO3[3:],
                   ("solve", "--a", "100,100,0.02", "--n", "3", "--theta",
                    _PI, "--grid", "4"),
                   ("solve", "--family", "iso", "--n", "4", "--theta", "1.0"),
                   ("solve", "--a=-0.1,-0.1,-0.1", "--n", "3",
                    "--theta=-0.3"))),
    *((("solve", "--family", family), 1, "inadmissible: klass=slow_decay m=")
      for family in ("eps:0.25", "eps:" + repr(math.pi / 12))),
    # (n - 1) pi/2 at beta = 1e6 fails both grid gates: the phase gap
    # reads -2.0e-9 and the scaled level -1.1e-9
    (("solve", "--family", "iso", "--n", "12", "--theta",
      repr(11 * math.pi / 2), "--beta", "1e6", "--grid", "4"), 1,
     "\nFAIL: phase, level\n"),
    # sigma_n, the product of the entries, is past the sigma row's bound
    # from n = 175 on, as at n = 200 above: classify refuses it before
    # _chain's O(n^2) rows.  At n = 174 only inner sigma_k are past it,
    # and _chain finds them
    *((("solve", "--family", "iso", "--n", str(n), "--theta", "critical",
        "--grid", "4"), 2,
       "invalid input: sigma row of the vector leaves the float range\n")
      for n in (174, 8000)),
    # the iso point at a negative theta is all negative: the problem of
    # the first row, reflected
    (("solve", "--family", "iso", "--n", "3",
      "--theta=" + repr(-math.pi / 2), "--grid", "4"), 0, "PASS\n"),
]
# (name, interpreter flags, argv) of the lines the corpus holds besides the
# contract's: inputs at the ends of the supported range, and the paths
# that need a file system or interpreter flags
EDGE_CASES = [
    ("verify default", (), ("verify",)),
    # the smallest grid, csv and a large grid
    ("verify grid=1", (), ("verify", "--grid", "1")),
    ("verify grid=7 csv", (), ("verify", "--grid", "7", "--format", "csv")),
    ("verify grid=1000", (), ("verify", "--grid", "1000", "--seed", "7")),
    ("iso critical n=5", (), ("solve", "--family", "iso", "--n", "5",
                              "--theta", "critical")),
    ("reflected data", (), ("solve", "--a=" + ",".join(
        ["-0.5773502691896258"] * 3), "--n", "3",
        "--theta=" + repr(-math.pi / 2), "--grid", "8")),
    # past n = 64: the routes agree to 2.5e-13 up to n = 150, and the
    # shifted ray polynomial leaves the float range from n = 154
    ("iso critical n=80", (), ("solve", "--family", "iso", "--n", "80",
                               "--theta", "critical", "--grid", "4")),
    ("iso critical n=120", (), ("solve", "--family", "iso", "--n", "120",
                                "--theta", "critical", "--grid", "4")),
    ("iso critical n=132", (), ("solve", "--family", "iso", "--n", "132",
                                "--theta", "critical", "--grid", "4")),
    ("beta=1e6", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                      "critical", "--beta", "1e6", "--grid", "4")),
    # beta above 1e3 binds without a warning, under -W error too
    ("beta=2000", (), ("solve", "--family", "iso", "--n", "4",
                       "--theta", "3.6", "--beta", "2000", "--grid", "4")),
    ("beta=2000 -W error passes", ("-W", "error"), (
        "solve", "--family", "iso", "--n", "4", "--theta", "3.6",
        "--beta", "2000", "--grid", "4")),
    ("beta=1 n=3", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                        "critical", "--beta", "1", "--grid", "4")),
    ("beta=1 n=4", (), ("solve", "--family", "iso", "--n", "4", "--theta",
                        "3.6", "--beta", "1", "--grid", "4")),
    ("rmax=1e30", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                       "critical", "--rmax", "1e30", "--grid", "4")),
    # the isotropic end of the eps family; its slow_decay end (exit 1) at
    # pi/12 is a CONTRACT row
    ("eps:0 iso limit", (), ("solve", "--family", "eps:0")),
    ("n=12 beta=1e6", (), ("solve", "--family", "iso", "--n", "12",
                           "--theta", "16.008", "--beta", "1e6",
                           "--grid", "8")),
    # beta = 1e6 past n = 44, where C and the unscaled level value leave
    # the float range: the report holds log C and the scaled level only,
    # so every n up to 153 passes (n = 154 exits 2, a CONTRACT row)
    *((f"iso critical n={n} beta=1e6", (), (
        "solve", "--family", "iso", "--n", str(n), "--theta", "critical",
        "--beta", "1e6", "--grid", "4")) for n in (48, 64, 153)),
    # beta = 1e6 with --rmax 1e100: valid input that exits 1, because the
    # route gate is absolute in psi (ROADMAP item 3, the route gap in log
    # x); that fix shows here as an exit-code move
    *((f"iso critical n={n} beta=1e6 rmax=1e100", (), (
        "solve", "--family", "iso", "--n", str(n), "--theta", "critical",
        "--beta", "1e6", "--rmax", "1e100", "--grid", "4")) for n in (3, 12)),
    # gamma = 1e152, near the top of the flag range: the grid forms no
    # rho^2, so its minima stay finite and the problem passes
    ("iso n=5 theta=7.5 gamma=1e152", (), (
        "solve", "--family", "iso", "--n", "5", "--theta", "7.5",
        "--gamma", "1e152", "--grid", "4")),
    # solve inverts the table once, on the sample radii, the shells and
    # (gamma, 10 gamma) together: shells and tail radii all beyond the
    # trajectory, 3 of the 8 shells past the table; and beta - 1 = 1e-6,
    # where 79 of the 241 sample radii lie past the table
    ("iso critical n=5 gamma=1000 rmax=10", (), (
        "solve", "--family", "iso", "--n", "5", "--theta", "critical",
        "--gamma", "1000", "--rmax", "10", "--grid", "8")),
    ("iso critical n=5 beta=1.000001", (), (
        "solve", "--family", "iso", "--n", "5", "--theta", "critical",
        "--beta", "1.000001", "--grid", "8")),
    # |H - theta| = 9e-11 at theta = pi: classify admits all three, whose
    # root 1 moves by about 2.3e-10, 2.3e-9 and 2.3e-8; the sign test and
    # the residue check read the pair shifted to 1, den(1) dropped
    ("level edge b=10", (), ("solve", "--a", "10.0,10.0,0.20202020211387478",
                             "--n", "3", "--theta", _PI, "--grid", "4")),
    ("level edge b=100", (), ("solve", "--a",
                              "100.0,100.0,0.02000200010998367",
                              "--n", "3", "--theta", _PI, "--grid", "4")),
    ("level edge b=1000", (), ("solve", "--a",
                               "1000.0,1000.0,0.002000002090002129",
                               "--n", "3", "--theta", _PI, "--grid", "4")),
    # the b=10 and b=1000 level edges reflected: classify hands the solver
    # the profile of (pi, -a)
    ("reflected level edge b=10", (), (
        "solve", "--a=-10.0,-10.0,-0.20202020211387478", "--n", "3",
        "--theta=" + repr(-math.pi), "--grid", "4")),
    ("reflected level edge b=1000", (), (
        "solve", "--a=-1000.0,-1000.0,-0.002000002090002129", "--n", "3",
        "--theta=" + repr(-math.pi), "--grid", "4")),
    # help, and a negative vector given in the space form (the value is the
    # next token as given)
    ("solve help", (), ("solve", "--help")),
    ("top-level help", (), ("-h",)),
    ("reflected data space form", (), ("solve", "--a", ",".join(
        ["-0.5773502691896258"] * 3), "--n", "3",
        "--theta=" + repr(-math.pi / 2), "--grid", "8")),
    # an --out that cannot be written: relative to the command's own
    # working directory
    ("out in a missing directory", (), _ISO3_GRID + ("--out",
                                                     "missing/run.json")),
    # the smallest scans in both formats, and a large scan in the default
    # csv format
    ("scan-eps grid=2 json", (), ("scan-eps", "--grid", "2", "--format",
                                  "json")),
    ("scan-eps grid=3 csv", (), ("scan-eps", "--grid", "3")),
    ("scan-eps grid=8000 csv", (), ("scan-eps", "--grid", "8000")),
    # gamma within 0.1 % of the largest the flag check admits
    ("iso critical n=12 gamma=2.68e152", (), (
        "solve", "--family", "iso", "--n", "12", "--theta", "critical",
        "--gamma", "2.68e152", "--grid", "4")),
]


def readme_commands(readme: Path) -> list:
    """The `slex ...` command lines of README's sh blocks, as argv tuples."""
    commands, block, line = [], False, ""
    for raw in readme.read_text().splitlines():
        if raw.startswith("```"):
            block = raw.strip() == "```sh"
            continue
        if not block:
            continue
        line += raw.strip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        if line.startswith("slex "):
            commands.append(tuple(shlex.split(line)[1:]))
        line = ""
    return commands


def workload_commands(seed: int, count: int) -> list:
    """(name, argv) of `count` operations of every benchmark workload."""
    # the solve workload draws its level points with this tree's slex
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        from workloads import WORKLOADS, generate

        return [(f"{name} #{i}", op.argv)
                for name in sorted(WORKLOADS)
                for i, op in enumerate(generate(WORKLOADS[name], seed,
                                                count))]
    finally:
        del sys.path[:2]


def corpus() -> list:
    """(name, interpreter flags, argv) of every command the gate runs."""
    cases = [(f"README: slex {' '.join(argv)}", (), argv)
             for argv in readme_commands(ROOT / "README.md")]
    cases += EDGE_CASES
    cases += [(f"contract: slex {shlex.join(argv)}", (), argv)
              for argv, _code, _err in CONTRACT]
    cases += [(name, (), argv)
              for name, argv in workload_commands(WORKLOAD_SEED,
                                                  WORKLOAD_OPS)]
    return cases


def run(tree: Path, flags: tuple, argv: tuple) -> dict:
    """Exit code, stdout (and its sha256), stderr and --out bytes of one
    command."""
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, *flags, "-c", RUN, *argv],
                              cwd=work, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
        outputs = {path.name: path.read_bytes()
                   for path in sorted(Path(work).iterdir())}
    return {"exit code": proc.returncode,
            "stdout": proc.stdout,
            "stdout sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": proc.stderr,
            "--out bytes": outputs}


def differences(here: dict, there: dict) -> list:
    return [key for key in COMPARED if here[key] != there[key]]


def _leaf_moves(old, new, path: str = ""):
    """(kind, dotted key path, old leaf, new leaf) of every leaf where the
    parsed JSON value new differs from old, in key and index order, kind
    "added", "removed" or "changed" (a missing leaf is None).  A list
    index is a path component like a key; NaN equals NaN."""
    if isinstance(old, (dict, list)) and type(new) is type(old):
        if isinstance(old, list):
            old, new = dict(enumerate(old)), dict(enumerate(new))
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                yield "removed", sub, old[key], None
            elif key not in old:
                yield "added", sub, None, new[key]
            else:
                yield from _leaf_moves(old[key], new[key], sub)
    elif not (old == new or (old != old and new != new)):
        yield "changed", path or ".", old, new


def json_moves(old, new) -> list:
    """("added" | "removed" | "changed", dotted key path) of every leaf where
    the parsed JSON value new differs from old, in key and index order."""
    return [(kind, path) for kind, path, _old, _new in _leaf_moves(old, new)]


def largest_float_moves(old, new):
    """((size, dotted key path), (size, dotted key path)) of the changed
    float leaves of two parsed JSON values that moved most relative to
    their larger magnitude, |new - old|/max(|old|, |new|), and most in
    absolute size, |new - old|; None when no finite float changed."""
    moved = [(abs(b - a), max(abs(a), abs(b)), path)
             for _kind, path, a, b in _leaf_moves(old, new)
             if type(a) is float and type(b) is float
             and math.isfinite(a) and math.isfinite(b)]
    if not moved:
        return None
    return (max((size / scale, path) for size, scale, path in moved),
            max((size, path) for size, _scale, path in moved))


def report_moves(here: dict, there: dict) -> list:
    """One line per differing stdout or --out file that parses as JSON on
    both sides: its name, up to MOVES_SHOWN key paths that moved from
    there to here, and the largest relative and absolute moves of a float
    leaf."""
    pairs = [("stdout", there["stdout"], here["stdout"])]
    pairs += [(f"--out {name}", there["--out bytes"][name], data)
              for name, data in here["--out bytes"].items()
              if name in there["--out bytes"]]
    lines = []
    for label, old, new in pairs:
        if old == new:
            continue
        try:
            old, new = json.loads(old), json.loads(new)
        except ValueError:  # not JSON on one side: a CSV, or a crash
            continue
        moves = json_moves(old, new)
        shown = ", ".join(f"{kind} {path}" for kind, path
                          in moves[:MOVES_SHOWN])
        more = len(moves) - MOVES_SHOWN
        largest = largest_float_moves(old, new)
        lines.append(f"{label} JSON: {shown or 'same values, other bytes'}"
                     + (f" (and {more} more)" if more > 0 else "")
                     + ("" if largest is None else
                        "; largest relative move {:.2g} at {}, absolute "
                        "{:.2g} at {}".format(*largest[0], *largest[1])))
    return lines


def summary(results: list, other: Path) -> str:
    """The gate's last line, from the (here, there) record of every
    command: how many agree, how many differ, and in how many the exit
    code moved."""
    differ = sum(bool(differences(here, there)) for here, there in results)
    moved = sum(here["exit code"] != there["exit code"]
                for here, there in results)
    return (f"{len(results)} commands, {len(results) - differ} identical, "
            f"{differ} differ, {moved} with another exit code (this tree "
            f"against {other})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the reports of this checkout and another")
    parser.add_argument("other", type=Path,
                        help="root of the other checkout (its src/ is run)")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "slex").is_dir():
        parser.error(f"{other} has no src/slex")
    cases = corpus()

    def compare(case):
        _name, flags, cmd = case
        return run(ROOT, flags, cmd), run(other, flags, cmd)

    results = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for (name, _flags, cmd), (here, there) in zip(cases,
                                                      pool.map(compare,
                                                               cases)):
            results.append((here, there))
            diff = differences(here, there)
            if diff:
                print(f"DIFFER {name}: {', '.join(diff)} "
                      f"(exit {there['exit code']} -> {here['exit code']})"
                      f"\n    slex {shlex.join(cmd)}")
                for line in report_moves(here, there):
                    print(f"    {line}")
    print(summary(results, other))
    return 1 if any(differences(*pair) for pair in results) else 0


if __name__ == "__main__":
    sys.exit(main())
