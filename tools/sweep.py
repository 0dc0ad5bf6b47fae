"""The valid-input sweep over the wide box: print the valid problems that
do not pass.

    python tools/sweep.py --draws N --seed S

Each draw is a `solve` command line at --grid 4 for one valid problem,
from tests/oracles.py's sweep_argv, with beta log-uniform in [1, 1e6] and
--rmax log-uniform in [2, 1e100] (ROADMAP item 7's wide box; the tier-1
sweep, tests/test_sweep.py, keeps beta up to 1e4 and the default --rmax).
Both draw gamma by sweep_argv's law, up to the largest gamma solve admits.
The uniform draws come from numpy.random.default_rng(S).  Every draw runs
through cli.main in process.  An admissible problem must exit 0, a
slow_decay one 1, and one past the float range 2 with a float-range
message of CONTRACT (tools/report_gate.py).  Each draw that does not is
printed as its exit code and stderr, with the names of the gates rows
its report failed and its command line under them.  A summary line
follows, which counts each gate of cli.GATES among the failures.  The
tool exits 1 when some draw fails, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script: this tree's package and the tests' generator, which
    # a test run has on its path already
    _root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_root / "src"), str(_root / "tests")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import report_gate  # noqa: E402
from slex import cli  # noqa: E402

WIDE = {"beta_max": 1e6, "rmax_box": (2.0, 1e100)}
# the stderr of an invalid input past the float range
FLOAT_RANGE = frozenset(err for _argv, code, err in report_gate.CONTRACT
                        if code == 2 and "float range" in err)


def run(argv: list) -> tuple:
    """(exit code, the JSON report or None, stderr) of one command line,
    run through cli.main in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text else None, err.getvalue()


def outcome(code: int, report, err: str) -> str:
    """"pass", "slow_decay" or "float range" for each outcome a valid
    problem may have, "fail" for any other."""
    klass = report and report["admissibility"]["klass"]
    if (code, klass) == (0, "admissible"):
        return "pass"
    if (code, klass) == (1, "slow_decay"):
        return "slow_decay"
    if code == 2 and err in FLOAT_RANGE:
        return "float range"
    return "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    tally = dict.fromkeys(("pass", "slow_decay", "float range", "fail"), 0)
    gates = dict.fromkeys((name for name, *_row in cli.GATES), 0)
    for _ in range(args.draws):
        line = oracles.sweep_argv(rng.random, **WIDE)
        code, report, err = run(line)
        kind = outcome(code, report, err)
        tally[kind] += 1
        if kind == "fail":
            failed = [row["name"] for row in (report or {}).get("gates", ())
                      if not row["passed"]]
            for gate in failed:
                gates[gate] += 1
            print(f"exit {code}: {' | '.join(err.splitlines())}")
            print(f"  gates: {' '.join(failed) or 'none'}")
            print(f"  slex {shlex.join(line)}")
    counts = [f"{count} {kind}" for kind, count in tally.items()]
    by_gate = [f"{count} {gate}" for gate, count in gates.items()]
    print(f"{args.draws} draws, seed {args.seed}: {', '.join(counts)} "
          f"({', '.join(by_gate)})")
    return 1 if tally["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
