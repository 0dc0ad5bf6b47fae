"""Per-operation correctness oracle.

`check(op, rc, stdout)` returns a Verdict.  An operation fails when

  * it exits 2, crashes (any exit code other than 0 and 1), or its report
    does not parse                                            -> hard
  * its report breaks an invariant of its command:
      verify    every suite has failures = 0
      scan-eps  one row per grid point, max_discrepancy <= 1e-9 and the
                m = 2 crossing inside [0.206, 0.208]
      solve     verification.points = shells * (2n + 96)        -> hard
  * it disagrees with the outcome the construction predicts (a FAIL
    verdict on an admissible problem, or PASS past the eps crossing)
                                                               -> verdict

Hard failures mean the program or its report is broken and make the run's
result incorrect.  Verdict failures are counted in `failed` but leave the
result correct: they are the program's known wrong answers (the mis-scaled
level gate reports FAIL on admissible iso points), and hiding them would
hide the defect a later change should fix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from workloads import Op

SCAN_TOL = 1e-9
CROSSING = (0.206, 0.208)
SPHERE_DIRECTIONS = 96


@dataclass(frozen=True)
class Verdict:
    ok: bool
    hard: bool = False
    reason: Optional[str] = None
    report: Optional[dict] = None


def _hard(reason: str, report: Optional[dict] = None) -> Verdict:
    return Verdict(ok=False, hard=True, reason=reason, report=report)


def check(op: Op, rc: int, stdout: bytes) -> Verdict:
    if rc == 2:
        return _hard("exit 2 (invalid input)")
    if rc not in (0, 1):
        return _hard(f"crashed with exit {rc}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return _hard("report does not parse")
    if not isinstance(report, dict) or report.get("command") != op.argv[0]:
        return _hard("report is not a report of this command", report)
    broken = _invariant(op, report)
    if broken:
        return _hard(broken, report)
    if bool(report.get("passed")) != (rc == 0):
        return _hard(f"exit {rc} disagrees with passed={report.get('passed')}",
                     report)
    got = _outcome(op, rc, report)
    if got != op.expect:
        return Verdict(ok=False, reason=f"expected {op.expect}, got {got}",
                       report=report)
    return Verdict(ok=True, report=report)


def _invariant(op: Op, report: dict) -> Optional[str]:
    command = op.argv[0]
    try:
        if command == "verify":
            bad = [s["name"] for s in report["suites"] if s["failures"] != 0]
            return f"suites with failures: {bad}" if bad else None
        if command == "scan-eps":
            summary = report["summary"]
            if len(report["rows"]) != op.grid:
                return f"{len(report['rows'])} rows for grid {op.grid}"
            if not summary["max_discrepancy"] <= SCAN_TOL:
                return f"max_discrepancy {summary['max_discrepancy']}"
            if not (CROSSING[0] <= summary["crossing_low"]
                    and summary["crossing_high"] <= CROSSING[1]):
                return (f"crossing [{summary['crossing_low']}, "
                        f"{summary['crossing_high']}] outside {CROSSING}")
            return None
        if command == "solve":
            if report["admissibility"]["klass"] != "admissible":
                return None
            points = report["verification"]["points"]
            expect = op.grid * (2 * op.n + SPHERE_DIRECTIONS)
            if points != expect:
                return f"points {points} != {expect}"
            return None
    except (KeyError, TypeError) as exc:
        return f"report lacks field {exc}"
    return f"unknown command {command}"


def _outcome(op: Op, rc: int, report: dict) -> str:
    # rc already agrees with report["passed"]
    if op.argv[0] == "solve" and report["admissibility"]["klass"] != "admissible":
        return "inadmissible"
    return "pass" if rc == 0 else "fail"
