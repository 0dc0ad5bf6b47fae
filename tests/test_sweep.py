"""The valid-input sweep: a right answer must PASS (ROADMAP item 7).

The construction holds on the whole admissible set, so every valid
problem inside the flag ranges must exit 0 when it is admissible and 1
when it is slow_decay; past the float range it may exit 2, with one of
the float-range messages of CONTRACT.  The draws are tests/oracles.py's
sweep_argv: n log-uniform in 3..150, theta the critical angle or up to
0.9*pi above it, beta log-uniform in [1, 1e4], gamma 1 on a third of the
draws, within a factor 1e3 of the largest gamma solve admits on a third
and log-uniform in [1, 1e100] on the rest, --rmax at its default, the
vector the iso point or a random admissible one, each run through
cli.main in process at --grid 4.  Each admissible report must agree
with its own gates list, whatever its verdict.  At gamma = 1 the grid's
shells reach psi near beta, where the grid gates read their rounding; at
the top of the gamma range the grid's radii would overflow if squared.

The box leaves out the regions where valid problems FAIL today, each
pinned by a strict xfail in tests/test_cli.py and reachable with
tools/sweep.py, which runs the same generator over the wide box and
names the gate each FAIL failed:
  * a wide --rmax: the route gate is absolute in psi and FAILs at large
    beta and --rmax (ROADMAP item 3; test_solve_huge_rmax_iso_passes);
  * beta above the box at a supercritical angle: the grid's fixed gate
    FAILs exact solutions, from beta = 3e4 at n = 100 (ROADMAP item 2;
    test_solve_supercritical_large_beta_iso_passes).
"""

import operator
import shlex

from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
import sweep
from slex import cli

UNIT = st.floats(min_value=0.0, max_value=1.0)
SENSES = {"<=": operator.le, ">=": operator.ge}


def check_gates(report):
    """An admissible report agrees with its own gates: one row per row of
    cli.GATES, each row's verdict its sense and bound applied to the
    value in its field, and passed their conjunction.  This is the one
    reader of the verdict rule besides cli."""
    rows = report["gates"]
    assert [(row["name"], row["field"], row["sense"], row["bound"])
            for row in rows] == list(cli.GATES)
    for row in rows:
        value = report
        for key in row["field"].split("."):
            value = value[key]
        assert row["passed"] is SENSES[row["sense"]](value, row["bound"])
    assert report["passed"] is all(row["passed"] for row in rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_valid_problems_pass(data):
    argv = oracles.sweep_argv(lambda: data.draw(UNIT))
    code, report, err = sweep.run(argv)
    kind = sweep.outcome(code, report, err)
    event(kind)
    assert kind != "fail", \
        (f"slex {shlex.join(argv)}", code, err)
    if report and report["admissibility"]["klass"] == "admissible":
        check_gates(report)
