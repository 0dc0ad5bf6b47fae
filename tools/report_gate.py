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
the dotted key paths that were added, removed or changed.  A summary
line follows; the gate exits 1 on any difference, 0 when every command
agrees.

The corpus:
  * the `slex ...` command lines of README.md's shell blocks;
  * EDGE_CASES below: inputs at the ends of the supported range and the
    error paths (exit codes 0, 1 and 2);
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
# (name, interpreter flags, argv): edge inputs and error paths of every
# command
EDGE_CASES = [
    ("verify default", (), ("verify",)),
    # the smallest grid, csv, a large grid, and the exit-2 inputs
    ("verify grid=1", (), ("verify", "--grid", "1")),
    ("verify grid=7 csv", (), ("verify", "--grid", "7", "--format", "csv")),
    ("verify grid=1000", (), ("verify", "--grid", "1000", "--seed", "7")),
    ("verify grid=0", (), ("verify", "--grid", "0")),
    ("verify seed=-1", (), ("verify", "--seed", "-1")),
    ("iso critical n=5", (), ("solve", "--family", "iso", "--n", "5",
                              "--theta", "critical")),
    ("reflected data", (), ("solve", "--a=" + ",".join(
        ["-0.5773502691896258"] * 3), "--n", "3",
        "--theta=" + repr(-math.pi / 2), "--grid", "8")),
    ("off-level a", (), ("solve", "--a", "1,2,3", "--n", "3",
                         "--theta", "critical")),
    ("subcritical theta", (), ("solve", "--family", "iso", "--n", "4",
                               "--theta", "1.0")),
    ("sigma overflow n=200", (), ("solve", "--family", "iso", "--n", "200",
                                  "--theta", "critical", "--grid", "4")),
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
    ("beta=nan", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                      "critical", "--beta", "nan")),
    ("rmax=1e30", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                       "critical", "--rmax", "1e30", "--grid", "4")),
    ("gamma=1e300", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                         "critical", "--gamma", "1e300", "--grid", "4")),
    ("gamma=1e308", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                         "critical", "--gamma", "1e308")),
    ("eps:0.25", (), ("solve", "--family", "eps:0.25")),
    # both ends of the eps family: the isotropic limit, and slow_decay
    # (exit 1) at pi/12
    ("eps:0 iso limit", (), ("solve", "--family", "eps:0")),
    ("eps:pi/12 slow_decay", (), ("solve", "--family",
                                  "eps:" + repr(math.pi / 12))),
    ("mixed signs", (), ("solve", "--a=-1,2,3", "--n", "3",
                         "--theta", "critical")),
    ("short a", (), ("solve", "--a", "1,2", "--n", "3",
                     "--theta", "critical")),
    ("inf entry", (), ("solve", "--a", "inf,1,1", "--n", "3",
                       "--theta", "critical")),
    ("reflected subcritical", (), ("solve", "--a=-0.1,-0.1,-0.1", "--n", "3",
                                   "--theta=-0.3")),
    ("solve as csv", (), ("solve", "--family", "iso", "--n", "3",
                          "--theta", "critical", "--format", "csv")),
    ("n=12 beta=1e6", (), ("solve", "--family", "iso", "--n", "12",
                           "--theta", "16.008", "--beta", "1e6",
                           "--grid", "8")),
    # beta = 1e6 past n = 44, where C and the unscaled level value leave
    # the float range: the report holds log C and the scaled level only,
    # so every n up to 153 passes, and 154 exits 2 on the range check
    *((f"iso critical n={n} beta=1e6", (), (
        "solve", "--family", "iso", "--n", str(n), "--theta", "critical",
        "--beta", "1e6", "--grid", "4")) for n in (48, 64, 153, 154)),
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
    # (n - 1) pi/2 at beta = 1e6 fails both gates (exit 1): the phase gap
    # reads -2.0e-9 and the scaled level -1.1e-9
    ("iso n=12 theta=11pi/2 beta=1e6", (), (
        "solve", "--family", "iso", "--n", "12", "--theta",
        repr(11 * math.pi / 2), "--beta", "1e6", "--grid", "4")),
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
    ("off level b=100", (), ("solve", "--a", "100,100,0.02", "--n", "3",
                             "--theta", _PI, "--grid", "4")),
    # each solve flag out of range: exit 2 before the vector is classified,
    # on an admissible and on an off-level vector alike; an in-range beta
    # above 1e3 on the off-level vector binds nothing
    *((f"iso {flag}", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                           "critical", "--grid", "4", flag))
      for flag in ("--grid=0", "--gamma=0.5", "--beta=0.5", "--rmax=0.5")),
    *((f"off-level a {flag}", (), ("solve", "--a", "1,2,3", "--n", "3",
                                   "--theta", "critical", flag))
      for flag in ("--gamma=0.5", "--beta=0.5", "--rmax=0.5",
                   "--beta=2000")),
    # the command line parser: no or an unknown command, an unknown flag, a
    # missing value or one its converter rejects, help, and a negative
    # vector given in the space form (the value is the next token as given)
    ("no command", (), ()),
    ("unknown command", (), ("scan",)),
    ("scan-eps unknown flag", (), ("scan-eps", "--grid", "5", "--exact")),
    ("verify grid without value", (), ("verify", "--grid")),
    ("verify grid=x", (), ("verify", "--grid", "x")),
    ("scan-eps format=xml", (), ("scan-eps", "--format", "xml")),
    # flags that changed no report are unknown flags
    ("verify exact", (), ("verify", "--grid", "3", "--exact")),
    ("scan-eps seed", (), ("scan-eps", "--grid", "5", "--seed", "3")),
    ("solve seed", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                        "critical", "--grid", "4", "--seed", "3")),
    ("solve format=json", (), ("solve", "--family", "iso", "--n", "3",
                               "--theta", "critical", "--grid", "4",
                               "--format", "json")),
    ("solve help", (), ("solve", "--help")),
    ("reflected data space form", (), ("solve", "--a", ",".join(
        ["-0.5773502691896258"] * 3), "--n", "3",
        "--theta=" + repr(-math.pi / 2), "--grid", "8")),
    # every check a command line reaches, one line each: solve's vector
    # source, the help, an --out that cannot be written, the phase, beta,
    # r_max, eps and iso range checks
    ("solve without a vector", (), ("solve", "--grid", "4")),
    ("solve iso without n", (), ("solve", "--family", "iso", "--grid", "4")),
    ("eps family n=4", (), ("solve", "--family", "eps:0.1", "--n", "4")),
    ("eps family theta=1", (), ("solve", "--family", "eps:0.1",
                                "--theta", "1")),
    ("unknown family", (), ("solve", "--family", "cube")),
    ("a without n", (), ("solve", "--a", "1,2,3")),
    ("top-level help", (), ("-h",)),
    ("out in a missing directory", (), (
        "solve", "--family", "iso", "--n", "3", "--theta", "critical",
        "--grid", "4", "--out", "missing/run.json")),
    ("iso n=2", (), ("solve", "--family", "iso", "--n", "2", "--theta", "1",
                     "--grid", "4")),
    ("iso theta outside the range", (), ("solve", "--family", "iso", "--n",
                                         "3", "--theta", "10", "--grid",
                                         "4")),
    ("beta=2e6", (), ("solve", "--family", "iso", "--n", "3", "--theta",
                      "critical", "--beta", "2e6", "--grid", "4")),
    ("rmax one ulp above 1", (), ("solve", "--family", "iso", "--n", "3",
                                  "--theta", "critical", "--rmax",
                                  "1.0000000000000002", "--grid", "4")),
    ("eps:1", (), ("solve", "--family", "eps:1", "--grid", "4")),
    ("iso theta=-1", (), ("solve", "--family", "iso", "--n", "3",
                          "--theta", "-1", "--grid", "4")),
    # the smallest scans in both formats, and the one grid below them
    ("scan-eps grid=2 json", (), ("scan-eps", "--grid", "2", "--format",
                                  "json")),
    ("scan-eps grid=3 csv", (), ("scan-eps", "--grid", "3")),
    ("scan-eps grid=1", (), ("scan-eps", "--grid", "1")),
    # a large scan in the default csv format
    ("scan-eps grid=8000 csv", (), ("scan-eps", "--grid", "8000")),
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


def json_moves(old, new, path: str = "") -> list:
    """("added" | "removed" | "changed", dotted key path) of every leaf where
    the parsed JSON value new differs from old, in key and index order.  A
    list index is a path component like a key; NaN equals NaN."""
    if isinstance(old, (dict, list)) and type(new) is type(old):
        if isinstance(old, list):
            old, new = dict(enumerate(old)), dict(enumerate(new))
        moves = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                moves.append(("removed", sub))
            elif key not in old:
                moves.append(("added", sub))
            else:
                moves += json_moves(old[key], new[key], sub)
        return moves
    same = old == new or (old != old and new != new)
    return [] if same else [("changed", path or ".")]


def report_moves(here: dict, there: dict) -> list:
    """One line per differing stdout or --out file that parses as JSON on
    both sides: its name and up to MOVES_SHOWN key paths that moved from
    there to here."""
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
        lines.append(f"{label} JSON: {shown or 'same values, other bytes'}"
                     + (f" (and {more} more)" if more > 0 else ""))
    return lines


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

    failed = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for (name, _flags, cmd), (here, there) in zip(cases,
                                                      pool.map(compare,
                                                               cases)):
            diff = differences(here, there)
            if diff:
                failed += 1
                print(f"DIFFER {name}: {', '.join(diff)} "
                      f"(exit {there['exit code']} -> {here['exit code']})"
                      f"\n    slex {shlex.join(cmd)}")
                for line in report_moves(here, there):
                    print(f"    {line}")
    print(f"{len(cases)} commands, {len(cases) - failed} identical, "
          f"{failed} differ (this tree against {other})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
