"""The slex benchmark: cold CLI processes on three seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src, so
nothing has to be installed.  One operation is one `slex` command line
run as a fresh process (bench/child.py stands in for the `slex` script and
times `import slex.cli` and `main(argv)` from inside).  Operations run one
at a time, each after the previous one ends: a closed loop with one
client.  The operation set is drawn from --seed (bench/workloads.py) and
sized from --seconds at the per-operation cost measured when the benchmark
was defined, so two commits compared on one seed run identical inputs.

--trace 0 measures the end-to-end metrics: set-up (in-child import of
slex.cli), wall and in-child run time of each process, throughput, peak
memory and the share of failed operations.  A reference process
(bench/reference.py) runs before the first operation and after each one;
wall and run time are also given relative to the mean of the reference
runs around the operation, which cancels the drift of a shared host's
speed.  It checks every report (bench/oracle.py) and re-runs a seeded
sample of operations to require byte-identical reports.

--trace 1 runs every operation twice, untraced and traced
(bench/tracing.py), requires the two reports to be byte-identical and the
replay's own values to equal the report's, and measures per-layer
metrics summed over the operation set.

Every metric is printed by name and unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, every operation with its report's sha256) goes to
bench/out/.  Exit status is 0 with a result, non-zero without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS, Workload, generate, op_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
OP_TIMEOUT_S = 120
REFERENCE = BENCH / "reference.py"
# wall time of one reference process on the host the benchmark was defined
# on; sizes an untraced run, which runs one after every operation
REFERENCE_SECONDS = 1.3
# operations re-run after the timed loop to require byte-identical reports
RERUNS = 1
TAIL_BEYOND = 10
# a traced run runs each operation twice, untraced and traced, so it takes
# this share of the operations an untraced run of the same length takes
TRACE_SHARE = 1 / 3
# scan-eps evaluates the exponent once per grid point and 60 times in the
# bisection for the crossing
SCAN_BISECTION = 60

# metrics in the final line, as BENCHMARK.json lists them: "end_to_end"
# with --trace 0, "per_layer" with --trace 1.  Wall and run time in
# seconds, their tails and the throughput are printed and recorded but not
# gated: on a shared host they move with the host's speed, so the gate
# takes the same times relative to the reference process.  Traced
# function-level numbers are printed and recorded but kept out of the
# final line: they read exactly 0 on every workload that never calls the
# function.
END_TO_END = (
    ("setup_s", "s"), ("wall_rel.p50", "ratio"),
    ("work_rel", "items/ref"),
    ("peak_rss_mb", "MiB"),
)
FINAL_LAYER_METRICS = (
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("cli.glue_s", "s"),
    ("target.layer_s", "s"), ("trace.overhead_s", "s"),
    ("symfun.elem_sym_excl.calls", "count"),
    ("weights.decay_exponent.calls", "count"),
    ("subsol.points", "count"), ("cli.report_bytes", "bytes"),
    ("symfun.calls", "count"), ("phasepoly.calls", "count"),
    ("weights.calls", "count"), ("radial.calls", "count"),
    ("subsol.calls", "count"),
)
# function-level spans printed by the traced run, named as the metrics are
FUNCTION_SPANS = (
    "symfun.elem_sym_excl", "symfun.gen_sym_table", "symfun.sigma_rank_one",
    "symfun.newton_check", "phasepoly.ray_wronskian",
    "phasepoly.alternating_parts", "weights.decay_exponent",
    "weights.classify", "radial.partial_fractions",
    "radial.profile_implicit", "radial.profile_numeric",
    "radial.tail_integral", "radial.decay_fit", "subsol.SubsolutionSpec",
    "subsol.verify_subsolution",
)
METRIC_NAMES = {"subsol.SubsolutionSpec": "subsol.spec"}

# verify suites whose every case is exactly one call into a layer
SUITE_CALLS = {"rank_one_vs_eigen": "symfun.sigma_rank_one",
               "newton_margins": "symfun.newton_check",
               "product_decomposition": "symfun.product_decomposition"}


@dataclass(frozen=True)
class Run:
    rc: int
    stdout: bytes
    wall_s: float
    stats: dict

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def spawn(env: dict, argv=(), mode: tuple = ()) -> Run:
    cmd = [sys.executable, str(CHILD), *mode, "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    tail = proc.stderr.decode(errors="replace").rstrip().rsplit("\n", 1)[-1]
    if not tail.startswith("@@bench "):
        raise RuntimeError(f"child gave no timings (exit {proc.returncode}): "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return Run(proc.returncode, proc.stdout, wall,
               json.loads(tail[len("@@bench "):]))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["BENCH_SRC"] = str(SRC)
    return env


def tail(values: list):
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return {"value": sorted(values)[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def work_done(op, report: dict) -> int:
    command = op.argv[0]
    if command == "verify":
        return sum(s["cases"] for s in report["suites"])
    if command == "scan-eps":
        return op.grid + SCAN_BISECTION
    return report.get("verification", {}).get("points", 0)


def environment(workload: Workload, seed: int, ops: list) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "commit": commit, "seed": seed, "workload": workload.name,
        "why": workload.why, "operations": len(ops),
        "grids": sorted({op.grid for op in ops}),
        "dims": sorted({op.n for op in ops if op.n is not None}),
        "sources": {s: sum(op.source == s for op in ops)
                    for s in sorted({op.source for op in ops})},
        "loop": "closed, one client, one fresh process per operation",
    }


def measure(env: dict, ops: list) -> tuple:
    """Run every operation once, untraced; return (runs, verdicts)."""
    runs = [spawn(env, op.argv) for op in ops]
    return runs, [oracle.check(op, r.rc, r.stdout) for op, r in zip(ops, runs)]


@dataclass(frozen=True)
class Reference:
    wall_s: float
    import_s: float
    compute_s: float


def reference(env: dict) -> Reference:
    """One run of the reference process (bench/reference.py)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(REFERENCE)], cwd=ROOT,
                          env=env, check=True, capture_output=True,
                          timeout=OP_TIMEOUT_S)
    wall = time.perf_counter() - t0
    parts = json.loads(proc.stdout)
    return Reference(wall, parts["import_s"], parts["compute_s"])


def end_to_end(workload: Workload, env: dict, ops: list, seed: int) -> tuple:
    """Run every operation once, untraced, between reference processes.

    Each operation's times are also taken relative to the mean of the
    reference runs just before and just after it: its wall time to the
    reference's wall time, its in-child run time to the reference's
    in-process arithmetic.  The shared host's speed drifts by as much as a
    half over tens of seconds, and the ratios cancel that drift.
    """
    refs = [reference(env)]
    runs = []
    for op in ops:
        runs.append(spawn(env, op.argv))
        refs.append(reference(env))
    verdicts = [oracle.check(op, r.rc, r.stdout) for op, r in zip(ops, runs)]
    rng = random.Random(seed)
    rerun_idx = sorted(rng.sample(range(len(ops)), RERUNS))
    mismatched = [i for i in rerun_idx
                  if spawn(env, ops[i].argv).stdout != runs[i].stdout]

    def around(part: str) -> list:
        return [(getattr(a, part) + getattr(b, part)) / 2
                for a, b in zip(refs, refs[1:])]

    walls = [r.wall_s for r in runs]
    run_s = [r.stats["run_s"] for r in runs]
    work = sum(work_done(op, v.report) for op, v in zip(ops, verdicts)
               if v.report is not None)
    values = {
        "setup_s": statistics.median(r.stats["import_s"] for r in runs),
        "wall_rel.p50": statistics.median(
            w / a for w, a in zip(walls, around("wall_s"))),
        # items per reference time: each operation's run time counted in
        # units of the reference's arithmetic around it
        "work_rel": work / sum(t / a for t, a in zip(run_s,
                                                      around("compute_s"))),
        "peak_rss_mb": max(r.stats["maxrss_kb"] for r in runs) / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    extra = {
        "wall_s.p50": statistics.median(walls),
        "run_s.p50": statistics.median(run_s),
        "run_rel.p50": statistics.median(
            t / a for t, a in zip(run_s, around("compute_s"))),
        "wall_s.tail": tail(walls), "run_s.tail": tail(run_s),
        "reference_s.p50": statistics.median(r.wall_s for r in refs),
        f"{workload.work_unit}_per_s": work / sum(run_s),
        "work": work,
        "reference": [vars(r) for r in refs],
        "reruns": {"operations": rerun_idx, "mismatched": mismatched},
    }
    correct = not mismatched
    return runs, verdicts, metrics, extra, correct


def per_layer(workload: Workload, env: dict, ops: list) -> tuple:
    runs, verdicts = measure(env, ops)
    totals = {}
    glue = main = imports = 0.0
    report_bytes = 0
    points = 0
    mismatches = []
    OUT.mkdir(exist_ok=True)
    for i, (op, plain, verdict) in enumerate(zip(ops, runs, verdicts)):
        span_file = OUT / f"spans-{i}.json"
        traced = spawn(env, op.argv, ("--trace", str(span_file), str(i)))
        with open(span_file) as fh:
            trace = json.load(fh)
        span_file.unlink()
        agg = tracing.aggregate(trace)
        for name, (count, secs) in agg["per_name"].items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += secs
        main += traced.stats["run_s"]
        glue += agg["glue_s"]
        imports += traced.stats["import_s"]
        report_bytes += len(traced.stdout)
        points += trace["replay"].get("verification", {}).get("points", 0)
        problem = cross_check(op, plain, traced, trace["replay"],
                              agg["per_name"], verdict)
        if problem:
            mismatches.append({"operation": i, "problem": problem})

    def calls(prefix: str) -> int:
        return sum(c for name, (c, _s) in totals.items()
                   if name.startswith(prefix + "."))

    def secs(prefix: str) -> float:
        return sum(s for name, (_c, s) in totals.items()
                   if name.startswith(prefix + "."))

    values = {
        "cli.import_s": imports, "cli.main_s": main, "cli.glue_s": glue,
        "target.layer_s": sum(secs(layer) for layer in workload.target_layers),
        "trace.overhead_s": main - sum(r.stats["run_s"] for r in runs),
        "symfun.elem_sym_excl.calls":
            totals.get("symfun.elem_sym_excl", [0])[0],
        "weights.decay_exponent.calls":
            totals.get("weights.decay_exponent", [0])[0],
        "subsol.points": points, "cli.report_bytes": report_bytes,
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.calls"] = calls(layer)
    metrics = {name: (values[name], unit)
               for name, unit in FINAL_LAYER_METRICS}
    functions = {}
    for span in FUNCTION_SPANS:
        metric = METRIC_NAMES.get(span, span)
        count, seconds = totals.get(span, (0, 0.0))
        functions[f"{metric}_s"] = (seconds, "s")
        functions[f"{metric}.calls"] = (count, "count")
    for layer in tracing.LAYERS:
        functions[f"{layer}_s"] = (secs(layer), "s")
    vs = totals.get("subsol.verify_subsolution", (0, 0.0))[1]
    functions["subsol.points_per_s"] = (points / vs if vs else 0.0,
                                        "points/s")
    correct = not mismatches
    return runs, verdicts, metrics, functions, mismatches, correct


def cross_check(op, plain: Run, traced: Run, replay: dict, per_name: dict,
                verdict: oracle.Verdict):
    """The traced replay must reproduce the untraced report bit for bit."""
    if traced.stdout != plain.stdout or traced.rc != plain.rc:
        return "traced report differs from the untraced report"
    report = verdict.report
    if report is None:
        return None
    command = op.argv[0]
    if command == "verify":
        cases = {s["name"]: s["cases"] for s in report["suites"]}
        for suite, span in SUITE_CALLS.items():
            if per_name.get(span, [0])[0] != cases[suite]:
                return f"replayed {span} calls differ from {suite} cases"
    if command == "scan-eps":
        rows = [row["m_pipeline"] for row in report["rows"]]
        if replay["exponents"][:len(rows)] != rows:
            return "replayed exponents differ from the scan rows"
    if command == "solve" and "verification" in report:
        if replay.get("route_gap_max") != report["route_gap_max"]:
            return "replayed route_gap_max differs"
        want = {k: report["verification"][k]
                for k in ("points", "min_phase_gap", "min_level_value")}
        if replay.get("verification") != want:
            return "replayed verification differs"
    return None


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slex" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'slex' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    t_setup = time.perf_counter()
    if args.trace:
        count = op_count(workload, args.seconds * TRACE_SHARE)
    else:
        count = op_count(workload, args.seconds, REFERENCE_SECONDS)
    ops = generate(workload, args.seed, count)
    env = child_env()
    # the first import compiles bytecode: warm-up, not a sample
    spawn(env, mode=("--import-only",))
    record = {"environment": environment(workload, args.seed, ops),
              "trace": args.trace,
              "bench_setup_s": time.perf_counter() - t_setup}

    if args.trace:
        runs, verdicts, metrics, functions, mismatches, correct = per_layer(
            workload, env, ops)
        record.update(functions={k: v for k, (v, _u) in functions.items()},
                      cross_check=mismatches)
    else:
        runs, verdicts, metrics, extra, correct = end_to_end(
            workload, env, ops, args.seed)
        record.update(extra)
    hard = [v for v in verdicts if v.hard]
    failed = sum(not v.ok for v in verdicts)
    correct = correct and not hard
    record["operations"] = [
        {"argv": list(op.argv), "source": op.source, "expect": op.expect,
         "rc": r.rc, "sha256": r.sha256, "wall_s": r.wall_s,
         "run_s": r.stats["run_s"], "import_s": r.stats["import_s"],
         "ok": v.ok, "hard": v.hard, "reason": v.reason}
        for op, r, v in zip(ops, runs, verdicts)]
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    # one digest over every report, in operation order: equal digests mean
    # byte-identical reports
    record["reports_sha256"] = hashlib.sha256(
        "".join(r.sha256 for r in runs).encode()).hexdigest()
    record.update(correct=correct, attempted=len(ops), failed=failed)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, closed loop, one client")
    print(f"  why: {workload.why}")
    env_rec = record["environment"]
    print("  env: " + ", ".join(f"{k} {env_rec[k]}" for k in (
        "nproc", "cpu", "python", "numpy", "scipy", "commit")))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {fmt(value):>14s} {unit}")
    if args.trace:
        print("  function-level spans (calls from cli, summed over the set):")
        for name, (value, unit) in functions.items():
            print(f"    {name:34s} {fmt(value):>14s} {unit}")
        for m in mismatches:
            print(f"  CROSS-CHECK FAILED op {m['operation']}: {m['problem']}")
    else:
        for name in ("wall_s.p50", "run_s.p50", "reference_s.p50"):
            print(f"  {name:32s} {fmt(record[name]):>14s} s")
        print(f"  {'run_rel.p50':32s} {fmt(record['run_rel.p50']):>14s} "
              f"ratio")
        for name in ("wall_s.tail", "run_s.tail"):
            t = record[name]
            print(f"  {name:32s} " + (
                f"{fmt(t['value']):>14s} s at p{t['percentile']:.0f} of "
                f"{t['samples']} samples" if t else
                f"{'n/a':>14s} ({len(ops)} samples; needs "
                f"{TAIL_BEYOND + 1})"))
        unit = f"{workload.work_unit}_per_s"
        print(f"  {unit:32s} {fmt(record[unit]):>14s} "
              f"{workload.work_unit}/s")
        if record["reruns"]["mismatched"]:
            print(f"  NONDETERMINISTIC reports: operations "
                  f"{record['reruns']['mismatched']}")
    by_source = {}
    for op, v in zip(ops, verdicts):
        tally = by_source.setdefault(op.source, [0, 0])
        tally[0] += 1
        tally[1] += not v.ok
    print(f"  {'fail_share':32s} {fmt(failed / len(ops)):>14s} ratio "
          f"({failed} of {len(ops)} failed; " + ", ".join(
              f"{s} {f}/{n}" for s, (n, f) in sorted(by_source.items())) + ")")
    for i, v in enumerate(verdicts):
        if not v.ok:
            print(f"    op {i} {'HARD ' if v.hard else ''}{v.reason}: "
                  f"slex {' '.join(ops[i].argv)}")

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"  reports sha256 {record['reports_sha256']}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
