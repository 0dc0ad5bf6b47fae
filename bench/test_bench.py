"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import (EPS_CROSSING, WORKLOADS, Op, generate,  # noqa: E402
                       op_count)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _cli(argv) -> tuple:
    import slex.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = slex.cli.main(list(argv))
    return rc, out.getvalue().encode()


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS.values():
        count = op_count(workload, 10)
        first = generate(workload, 7, count)
        assert first == generate(workload, 7, count)
        assert first != generate(workload, 8, count)
        assert len(first) == count


def test_solve_workload_draws_all_three_sources():
    ops = generate(WORKLOADS["solve-sweep"], 3, 12)
    assert {op.source for op in ops} == {"random", "iso", "eps"}
    for op in ops:
        if op.source == "eps":
            v = float(op.argv[op.argv.index("--family") + 1][4:])
            assert 0.0 <= v <= math.pi / 12
            assert op.expect == ("pass" if v < EPS_CROSSING
                                 else "inadmissible")
        else:
            assert op.expect == "pass"
    # across seeds the eps draws reach past the crossing
    ops = [op for seed in range(5)
           for op in generate(WORKLOADS["solve-sweep"], seed, 12)]
    assert any(op.expect == "inadmissible" for op in ops)


def test_solve_mix_is_the_same_for_every_seed():
    def mix(seed):
        return sorted((op.source, op.n, op.expect, "critical" in op.argv)
                      for op in generate(WORKLOADS["solve-sweep"], seed, 15))

    assert mix(1) == mix(2) == mix(3)
    assert {n for _s, n, _e, _c in mix(1)} == set(range(3, 13)) | {5}


def test_oracle_accepts_a_good_report_and_rejects_corruption():
    op = Op(argv=("scan-eps", "--grid", "20", "--format", "json"),
            expect="pass", source="scan", grid=20)
    rc, out = _cli(op.argv)
    assert oracle.check(op, rc, out).ok

    truncated = oracle.check(op, rc, out[: len(out) // 2])
    assert truncated.hard and "parse" in truncated.reason

    report = json.loads(out)
    report["summary"]["max_discrepancy"] = 1e-3
    assert oracle.check(op, rc, json.dumps(report).encode()).hard

    report = json.loads(out)
    report["rows"].pop()
    assert oracle.check(op, rc, json.dumps(report).encode()).hard


def test_oracle_rejects_wrong_exit_codes():
    op = Op(argv=("scan-eps", "--grid", "20", "--format", "json"),
            expect="pass", source="scan", grid=20)
    rc, out = _cli(op.argv)
    assert rc == 0
    for bad in (1, 2, 70):
        assert oracle.check(op, bad, out).hard


def test_oracle_counts_a_wrong_verdict_without_calling_it_hard():
    past = Op(argv=("solve", "--family", "eps:0.25", "--grid", "8"),
              expect="inadmissible", source="eps", n=5, grid=8)
    rc, out = _cli(past.argv)
    assert rc == 1 and oracle.check(past, rc, out).ok
    wrong = Op(argv=past.argv, expect="pass", source="eps", n=5, grid=8)
    verdict = oracle.check(wrong, rc, out)
    assert not verdict.ok and not verdict.hard


def test_oracle_checks_the_point_count():
    op = Op(argv=("solve", "--family", "iso", "--n", "3", "--theta",
                  "critical", "--grid", "8"),
            expect="pass", source="iso", n=3, grid=8)
    rc, out = _cli(op.argv)
    assert oracle.check(op, rc, out).ok
    report = json.loads(out)
    report["verification"]["points"] += 1
    assert oracle.check(op, rc, json.dumps(report).encode()).hard


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]]
             + [run.METRIC_NAMES.get(span, span) + suffix
                for span in run.FUNCTION_SPANS for suffix in ("_s", ".calls")])
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.FINAL_LAYER_METRICS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(v) for v in range(40)])
    assert t["value"] == 29.0 and t["samples"] == 40
    assert t["percentile"] == 75.0
