"""Seeded operation sets for the three benchmark workloads.

One operation is one `slex` command line, run later as a fresh process.
Every operation carries the outcome the construction predicts for it, so
the oracle can count a wrong verdict as a failure instead of hiding it:

  pass          exit 0 and a passing report
  inadmissible  exit 1 with an admissibility class other than "admissible"

The generator sees only the workload name, the seed and the operation
count; the program under test sees only the generated argv.  Where a run's
median depends on the mix of inputs (grid sizes, dimensions, where an eps
value falls against the crossing), every seed gets the same mix and only
the concrete values change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# The decay exponent of the five-point eps family equals 2 here; past it the
# family is inadmissible (scan-eps brackets it to [0.206, 0.208]).
EPS_CROSSING = 0.2068020961111225

VERIFY_GRID = 60
SCAN_GRID_RANGE = (2000, 8000)
# solve operations cycle through the three sources; the phase of the random
# and iso points alternates between critical and supercritical per cycle
SOLVE_PATTERN = ("random", "iso", "eps")


@dataclass(frozen=True)
class Op:
    argv: tuple
    expect: str
    source: str
    n: Optional[int] = None
    grid: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # cold-process wall time of one operation when the benchmark was
    # defined; sizes the operation set to the requested run length
    op_seconds: float
    # the layers this workload was chosen to stress
    target_layers: tuple
    # per-operation work unit for the throughput metric
    work_unit: str
    make: Callable


def op_count(workload: Workload, seconds: float,
             extra_per_op: float = 0.0) -> int:
    return max(3, round(seconds / (workload.op_seconds + extra_per_op)))


def generate(workload: Workload, seed: int, count: int) -> list:
    return workload.make(np.random.default_rng(seed), count)


# ------------------------------------------------------------------- draws

def _ladder(rng, count: int, lo: float, hi: float) -> list:
    """The midpoints of `count` equal slices of [lo, hi], each moved by at
    most a tenth of a slice, in seeded order.  Every seed gets the same
    spread of values, so a run's median does not depend on the seed."""
    vals = [lo + (hi - lo) * (i + 0.5 + rng.uniform(-0.1, 0.1)) / count
            for i in range(count)]
    return [vals[i] for i in rng.permutation(count)]


def _even(values: list, count: int) -> list:
    """`count` items taken at even steps through `values`, in order.  They
    do not depend on the seed: which dimension an operation gets, and with
    it the operation's cost, is the same in every run of a given length."""
    return [values[int((i + 0.5) * len(values) / count)]
            for i in range(count)]


# ------------------------------------------------------------------ verify

def _verify_ops(rng, count: int) -> list:
    seeds = rng.choice(2 ** 31, size=count, replace=False)
    return [Op(argv=("verify", "--grid", str(VERIFY_GRID),
                     "--seed", str(int(s))),
               expect="pass", source="suite", grid=VERIFY_GRID)
            for s in seeds]


# -------------------------------------------------------------------- scan

def _scan_ops(rng, count: int) -> list:
    return [Op(argv=("scan-eps", "--grid", str(g), "--format", "json"),
               expect="pass", source="scan", grid=g)
            for g in (int(round(v)) for v in _ladder(rng, count,
                                                      *SCAN_GRID_RANGE))]


# ------------------------------------------------------------------- solve

def _random_admissible(rng, n: int, theta: float) -> np.ndarray:
    """A level-set point from weights.complete_to_phase, kept when admissible.

    The n arctangents are pi/2 - delta_j with the deficits delta_j drawn
    from a Dirichlet split of n*pi/2 - theta, kept below pi/2 and above
    1e-3 so every entry is finite.
    """
    from slex import phasepoly, weights

    spec = phasepoly.PhaseSpec(n, theta)
    deficit = n * math.pi / 2 - theta
    for _ in range(1000):
        delta = rng.dirichlet(np.full(n, 4.0)) * deficit
        if np.any(delta < 1e-3) or np.any(delta > math.pi / 2 - 0.05):
            continue
        prefix = 1.0 / np.tan(delta[:-1])
        rem = theta - math.fsum(math.atan(v) for v in prefix)
        if not (0.0 < rem < math.pi / 2):
            continue
        vec = weights.complete_to_phase(prefix, spec)
        if weights.classify(spec, vec).klass == "admissible":
            return vec
    raise RuntimeError(f"no admissible point drawn for n={n}")


def _solve_ops(rng, count: int, n_values: list, grid: int) -> list:
    sources = [SOLVE_PATTERN[i % len(SOLVE_PATTERN)] for i in range(count)]
    dims = iter(_even(n_values, sum(s != "eps" for s in sources)))
    eps_values = iter(_ladder(rng, sources.count("eps"), 0.0, math.pi / 12))
    ops = []
    for i, source in enumerate(sources):
        beta = float(rng.uniform(1.5, 4.0))
        tail = ("--beta", repr(beta), "--grid", str(grid))
        if source == "eps":
            v = next(eps_values)
            ops.append(Op(argv=("solve", "--family", f"eps:{v!r}") + tail,
                          expect="pass" if v < EPS_CROSSING else "inadmissible",
                          source="eps", n=5, grid=grid))
            continue
        n = next(dims)
        critical = (i // len(SOLVE_PATTERN)) % 2 == 0
        theta = (n - 2) * math.pi / 2
        if not critical:
            theta += float(rng.uniform(0.05, 0.95)) * math.pi
        theta_arg = "critical" if critical else repr(theta)
        if source == "iso":
            argv = ("solve", "--family", "iso", "--n", str(n),
                    "--theta", theta_arg)
        else:
            vec = _random_admissible(rng, n, theta)
            argv = ("solve", "--a", ",".join(repr(float(v)) for v in vec),
                    "--n", str(n), "--theta", theta_arg)
        ops.append(Op(argv=argv + tail, expect="pass", source=source,
                      n=n, grid=grid))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-exact",
        why="verify --grid 60 on drawn seeds: exact Fraction suites in "
            "symfun and phasepoly (exclusion sigmas, gen_sym tables, ray "
            "wronskians); no radial or subsol work",
        op_seconds=3.0, target_layers=("symfun", "phasepoly"),
        work_unit="cases",
        make=_verify_ops),
    Workload(
        name="scan-fine",
        why="eps-family scan on 2k-8k points: weights.decay_exponent on "
            "the float path of symfun, the same layer verify uses exactly",
        op_seconds=2.2, target_layers=("weights",),
        work_unit="exponents",
        make=_scan_ops),
    Workload(
        name="solve-sweep",
        why="solve at grid 24, n 3-12: radial routes and set-up dominate, "
            "the case for one cached problem object and a faster import",
        op_seconds=1.2, target_layers=("radial", "subsol"),
        work_unit="points",
        make=lambda rng, count: _solve_ops(rng, count, list(range(3, 13)),
                                           24)),
)}
