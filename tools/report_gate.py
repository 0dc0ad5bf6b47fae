"""Compare the reports of this checkout and another on one fixed corpus.

    python tools/report_gate.py OTHER_CHECKOUT

Every command of the corpus runs as a fresh `slex` process, once with
PYTHONPATH=<this tree>/src and once with PYTHONPATH=OTHER_CHECKOUT/src,
each in an empty working directory of its own.  The gate compares, per
command, the exit code, the sha256 of stdout, stderr, and the bytes of
the --out file.  It prints one line per command that differs and a
summary, and exits 1 on any difference, 0 when every command agrees.

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
RUN = "import sys; from slex.cli import main; sys.exit(main(sys.argv[1:]))"

_PI = repr(math.pi)
# (name, interpreter flags, argv): edge inputs and error paths of every
# command
EDGE_CASES = [
    ("verify default", (), ("verify",)),
    # the smallest grid, csv with --exact, a large grid, and the exit-2
    # inputs
    ("verify grid=1", (), ("verify", "--grid", "1")),
    ("verify grid=7 exact csv", (), ("verify", "--grid", "7", "--exact",
                                     "--format", "csv")),
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
    # shifted ray polynomial leaves the float range from n = 155
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
    ("solve help", (), ("solve", "--help")),
    ("reflected data space form", (), ("solve", "--a", ",".join(
        ["-0.5773502691896258"] * 3), "--n", "3",
        "--theta=" + repr(-math.pi / 2), "--grid", "8")),
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
    """Exit code, stdout sha256, stderr and --out bytes of one command."""
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run([sys.executable, *flags, "-c", RUN, *argv],
                              cwd=work, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
        outputs = {path.name: path.read_bytes()
                   for path in sorted(Path(work).iterdir())}
    return {"exit code": proc.returncode,
            "stdout sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": proc.stderr,
            "--out bytes": outputs}


def differences(here: dict, there: dict) -> list:
    return [key for key in here if here[key] != there[key]]


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
    print(f"{len(cases)} commands, {len(cases) - failed} identical, "
          f"{failed} differ (this tree against {other})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
