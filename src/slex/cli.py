"""Command line entry points.

Three subcommands:

  verify    exact-arithmetic identity suites (wronskian modes, product
            decompositions, the signed odd binomial sum, the sigma split
            and weighted-sum recurrences) plus sampled floating-point
            property suites, with a replayable report.
  scan-eps  the five-point family scan: pipeline decay exponent vs the
            closed trigonometric form on a uniform grid over [0, pi/12],
            plus bisection for the crossing of the admissibility threshold.
  solve     one full problem: classification, partial fractions, both
            profile routes, tail integrals, decay fit, and the subsolution
            verification report, emitted as a single JSON document.

Exit codes: 0 success, 1 check failure (including inadmissible input to
solve), 2 invalid input.  Identical configuration and seed produce
byte-identical output; all numbers are emitted in shortest round-trip
decimal form.  Identity suites always run in exact rational arithmetic;
--exact records that request explicitly in the report.
"""

from __future__ import annotations

import argparse
import json
# argparse's messages import locale (through gettext) on first use: a
# one-time import, kept out of each command's run time
import locale  # noqa: F401
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
# numpy loads its random package lazily; verify's generator would pay that
# one-time import inside the command's run time
import numpy.random  # noqa: F401

from . import phasepoly, radial, subsol, symfun, weights

SCHEMA_VERSION = 1
RNG_NAME = "numpy.random.default_rng(PCG64)"


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    fmt: str
    out: Optional[str]
    exact: bool
    params: dict


def _fmt(x) -> str:
    return repr(float(x))


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_text(out, text)
    if not out:
        sys.stdout.write(text)


# ---------------------------------------------------------------- verify

def _rational_vector(rng, n: int) -> list:
    return [Fraction(int(rng.integers(1, 25)), int(rng.integers(1, 9)))
            for _ in range(n)]


def _suite(name: str, cases: int, failures: int, worst: str,
           counterexample=None) -> dict:
    entry = {"name": name, "cases": cases, "failures": failures,
             "worst": worst}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


def _run_verify(cfg: RunConfig) -> tuple:
    if cfg.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    trials = cfg.params["trials"]
    if trials < 1:
        raise ValueError("verify grid needs at least 1 vector")
    rng = np.random.default_rng(cfg.seed)
    vectors = []
    for t in range(trials):
        n = 3 + t % 6
        vectors.append(_rational_vector(rng, n))

    suites = []

    # wronskian: product mode vs all-positive closed form, exact; plus the
    # known all-ones values n * 2^(n-1)
    fails = 0
    ce = None
    cases = 0
    for vec in vectors:
        cases += 1
        prod = phasepoly.ray_wronskian(vec, mode="product")
        closed = phasepoly.ray_wronskian(vec, mode="closed_form")
        if prod != closed or closed <= 0:
            fails += 1
            if ce is None:
                ce = {"a": [_frac_str(v) for v in vec],
                      "product": _frac_str(Fraction(prod)),
                      "closed_form": _frac_str(Fraction(closed))}
    for n in range(3, 13):
        cases += 1
        if phasepoly.ray_wronskian([1] * n, mode="closed_form") != n * 2 ** (n - 1):
            fails += 1
            if ce is None:
                ce = {"a": ["1"] * n}
    suites.append(_suite("wronskian_modes", cases, fails,
                         "0" if fails == 0 else "exact mismatch", ce))

    # sigma split and weighted-sum recurrences, and the pairwise exclusion
    # difference identity, exact.  Both suites read the rows sigma(a | i)
    # and sigma(a | i, n), built once per vector; the trailing 0 on each row
    # is the zero convention at both ends, as row[-1] and row[len] read it.
    fails = pair_fails = 0
    ce = pair_ce = None
    cases = pair_cases = 0
    for vec in vectors:
        n = len(vec)
        sig = symfun.elem_sym_all(vec)
        rows = [symfun.elem_sym_excl_all(vec, (i,)) + [0]
                for i in range(1, n + 1)]
        pairs = [symfun.elem_sym_excl_all(vec, (i, n)) + [0]
                 for i in range(1, n)]
        for k in range(0, n + 1):
            acc = 0
            for i in range(1, n + 1):
                excl = rows[i - 1][k]
                excl1 = rows[i - 1][k - 1]
                cases += 1
                if sig[k] != excl + vec[i - 1] * excl1:
                    fails += 1
                    if ce is None:
                        ce = {"a": [_frac_str(v) for v in vec],
                              "k": k, "i": i, "identity": "split"}
                acc = acc + vec[i - 1] * excl1
            cases += 1
            if acc != k * sig[k]:
                fails += 1
                if ce is None:
                    ce = {"a": [_frac_str(v) for v in vec], "k": k,
                          "identity": "weighted_sum"}
        for k in range(1, n + 1):
            for i in range(1, n):
                j = n
                lhs = (vec[i - 1] * rows[i - 1][k - 1]
                       - vec[j - 1] * rows[j - 1][k - 1])
                rhs = (vec[i - 1] - vec[j - 1]) * pairs[i - 1][k - 1]
                pair_cases += 1
                if lhs != rhs:
                    pair_fails += 1
                    if pair_ce is None:
                        pair_ce = {"a": [_frac_str(v) for v in vec],
                                   "k": k, "i": i, "j": j}
    suites.append(_suite("sigma_recurrences", cases, fails,
                         "0" if fails == 0 else "exact mismatch", ce))
    suites.append(_suite("pair_exclusion_difference", pair_cases, pair_fails,
                         "0" if pair_fails == 0 else "exact mismatch",
                         pair_ce))

    # product decompositions, exact, all (j, k) per vector
    fails = 0
    ce = None
    cases = 0
    for vec in vectors:
        n = len(vec)
        sig = symfun.elem_sym_all(vec)
        table = symfun.gen_sym_table(vec)
        for j in range(0, n + 1):
            for k in range(j, n + 1):
                combo = 0
                for coeff, (kk, jj) in symfun.product_decomposition(j, k, n):
                    combo = combo + coeff * table[kk][jj]
                cases += 1
                if combo != sig[j] * sig[k]:
                    fails += 1
                    if ce is None:
                        ce = {"a": [_frac_str(v) for v in vec],
                              "j": j, "k": k}
    suites.append(_suite("product_decomposition", cases, fails,
                         "0" if fails == 0 else "exact mismatch", ce))

    # signed odd binomial sum and all-ones gen_sym counts, exact
    fails = 0
    ce = None
    cases = 0
    for q in range(0, 21):
        cases += 1
        expect = 1 if q == 0 else 0
        if symfun.signed_odd_binomial_sum(q) != expect:
            fails += 1
            if ce is None:
                ce = {"Q": q}
    for n in range(1, 11):
        ones = [1] * n
        table = symfun.gen_sym_table(ones)
        for k in range(n + 1):
            for j in range(k + 1):
                cases += 1
                if table[k][j] != math.comb(n, k) * math.comb(k, j):
                    fails += 1
                    if ce is None:
                        ce = {"n": n, "k": k, "j": j}
    suites.append(_suite("combinatorial_sums", cases, fails,
                         "0" if fails == 0 else "exact mismatch", ce))

    # sampled float properties
    fails = 0
    ce = None
    cases = 0
    worst = 0.0
    for t in range(trials):
        n = 3 + t % 6
        lam = rng.standard_normal(n) * 2.0
        x, y = phasepoly.alternating_parts(lam.tolist())
        h = phasepoly.phase(lam)
        if abs(math.cos(h)) > 1e-6 and abs(x) > 1e-6:
            cases += 1
            margin = abs(y / x - math.tan(h)) / max(1.0, abs(math.tan(h)))
            worst = max(worst, margin)
            if margin > 1e-10:
                fails += 1
                if ce is None:
                    ce = {"lam": [_fmt(v) for v in lam]}
        if abs(math.cos(h)) > 1e-6:
            cases += 1
            if math.copysign(1, x) != math.copysign(1, math.cos(h)):
                fails += 1
                if ce is None:
                    ce = {"lam": [_fmt(v) for v in lam], "part": "cos"}
        if abs(math.sin(h)) > 1e-6:
            cases += 1
            if math.copysign(1, y) != math.copysign(1, math.sin(h)):
                fails += 1
                if ce is None:
                    ce = {"lam": [_fmt(v) for v in lam], "part": "sin"}
    suites.append(_suite("tangent_and_sign", cases, fails, _fmt(worst), ce))

    # positive-cone implication: wronskian > 0 forces the weighted level
    # combination at theta = H(lam) to be positive
    fails = 0
    ce = None
    cases = 0
    for t in range(trials):
        n = 3 + t % 6
        lam = np.exp(rng.standard_normal(n))
        wron = phasepoly.ray_wronskian(lam.tolist(), mode="closed_form")
        h = phasepoly.phase(lam)
        xw, yw = phasepoly.alternating_parts_weighted(lam.tolist())
        cases += 1
        if not (wron > 0 and math.cos(h) * yw - math.sin(h) * xw > 0):
            fails += 1
            if ce is None:
                ce = {"lam": [_fmt(v) for v in lam]}
    suites.append(_suite("wronskian_implication", cases, fails,
                         "0" if fails == 0 else "implication failed", ce))

    # rank-one update vs dense eigenvalue oracle, float
    fails = 0
    ce = None
    cases = 0
    worst = 0.0
    for t in range(trials):
        n = 3 + t % 6
        p = np.exp(rng.standard_normal(n))
        q = rng.standard_normal(n)
        s = float(rng.standard_normal())
        mat = np.diag(p) + s * np.outer(q, q)
        lam = np.linalg.eigvalsh(mat)
        for k in range(1, n + 1):
            cases += 1
            direct = symfun.sigma_rank_one(p.tolist(), q.tolist(), s, k)
            oracle = symfun.elem_sym(lam.tolist(), k)
            margin = abs(direct - oracle) / max(1.0, abs(oracle))
            worst = max(worst, margin)
            if margin > 1e-10:
                fails += 1
                if ce is None:
                    ce = {"p": [_fmt(v) for v in p],
                          "q": [_fmt(v) for v in q], "s": _fmt(s), "k": k}
    suites.append(_suite("rank_one_vs_eigen", cases, fails, _fmt(worst), ce))

    # Newton inequality margins: exact on rationals, tolerant on floats
    fails = 0
    ce = None
    cases = 0
    for vec in vectors:
        cases += 1
        if not symfun.newton_check(vec).passed:
            fails += 1
            if ce is None:
                ce = {"a": [_frac_str(v) for v in vec]}
    for t in range(trials):
        n = 3 + t % 6
        lam = rng.standard_normal(n) * 3.0
        report = symfun.newton_check(lam.tolist())
        scale = max(1.0, max(abs(v) for v in report.margins.values())
                    if report.margins else 1.0)
        cases += 1
        if any(v < -1e-9 * scale for v in report.margins.values()):
            fails += 1
            if ce is None:
                ce = {"lam": [_fmt(v) for v in lam]}
    suites.append(_suite("newton_margins", cases, fails,
                         "0" if fails == 0 else "margin negative", ce))

    passed = all(s["failures"] == 0 for s in suites)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": cfg.seed,
        "rng": RNG_NAME,
        "trials": trials,
        "arithmetic": "exact rational identities + float property samples",
        "exact_requested": cfg.exact,
        "zstar_unit6": int(phasepoly.ray_wronskian([1] * 6,
                                                   mode="closed_form")),
        "suites": suites,
        "passed": passed,
    }
    return report, passed


def _verify_csv(report: dict) -> str:
    lines = ["name,cases,failures,worst"]
    for s in report["suites"]:
        lines.append(f"{s['name']},{s['cases']},{s['failures']},{s['worst']}")
    lines.append(f"passed,,,{str(report['passed']).lower()}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- scan-eps

def _closed_form_exponent(eps: float) -> float:
    s3 = math.sqrt(3.0)
    num = 4 * s3 * math.cos(4 * eps) + 4 * s3 * math.cos(2 * eps) + 2 * s3
    den = (2 * s3 * math.cos(4 * eps) + 2 * math.sin(6 * eps)
           + 2 * math.sin(2 * eps) + 3 * math.sin(4 * eps))
    return num / den


def _family_exponent(spec: phasepoly.PhaseSpec, eps: float) -> float:
    return weights.decay_exponent(spec, weights.epsilon_family(eps))


def _run_scan(cfg: RunConfig) -> tuple:
    grid_n = cfg.params["grid"]
    if grid_n < 2:
        raise ValueError("scan grid needs at least 2 points")
    eps_grid = np.linspace(0.0, math.pi / 12, grid_n)
    spec = phasepoly.PhaseSpec(5, 5 * math.pi / 3)
    rows = []
    pipe = []
    for eps in eps_grid:
        mp = _family_exponent(spec, float(eps))
        mc = _closed_form_exponent(float(eps))
        pipe.append(mp)
        rows.append((float(eps), mp, mc))
    disc = max(abs(mp - mc) for _e, mp, mc in rows)
    monotone = all(pipe[i] > pipe[i + 1] for i in range(len(pipe) - 1))

    lo, hi = 0.0, math.pi / 12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _family_exponent(spec, mid) > 2.0:
            lo = mid
        else:
            hi = mid

    ok = (disc <= 1e-9 and monotone and 0.206 <= lo and hi <= 0.208)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan-eps",
        "seed": cfg.seed,
        "grid": grid_n,
        "rows": [{"eps": e, "m_pipeline": mp, "m_closed_form": mc}
                 for e, mp, mc in rows],
        "summary": {
            "m_at_zero": rows[0][1],
            "m_at_endpoint": rows[-1][1],
            "max_discrepancy": disc,
            "monotone_decreasing": monotone,
            "crossing_low": lo,
            "crossing_high": hi,
        },
        "passed": ok,
    }
    return report, ok


def _scan_csv(report: dict) -> str:
    lines = ["eps,m_pipeline,m_closed_form"]
    for row in report["rows"]:
        lines.append(f"{_fmt(row['eps'])},{_fmt(row['m_pipeline'])},"
                     f"{_fmt(row['m_closed_form'])}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ solve

def _resolve_vector(cfg: RunConfig) -> tuple:
    params = cfg.params
    family = params.get("family")
    a_text = params.get("a")
    theta = params.get("theta")
    n = params.get("n")
    if (family is None) == (a_text is None):
        raise ValueError("provide exactly one of --a or --family")
    if family is not None:
        if family == "iso":
            if n is None or theta is None:
                raise ValueError("--family iso needs --n and --theta")
            theta_val = _parse_theta(theta, n)
            vec = weights.iso_point(phasepoly.PhaseSpec(n, theta_val))
            return vec, n, theta_val
        if family.startswith("eps:"):
            eps = float(family[4:])
            if n is not None and n != 5:
                raise ValueError("the eps family is five dimensional")
            theta_val = 5 * math.pi / 3
            if theta is not None:
                given = _parse_theta(theta, 5)
                if abs(given - theta_val) > 1e-12:
                    raise ValueError("the eps family lives at theta = 5*pi/3")
            return weights.epsilon_family(eps), 5, theta_val
        raise ValueError("family must be 'iso' or 'eps:<value>'")
    if n is None or theta is None:
        raise ValueError("--a needs --n and --theta")
    vec = np.array([float(v) for v in a_text.split(",")])
    if not np.all(np.isfinite(vec)):
        raise ValueError("--a entries must be finite")
    if vec.size != n:
        raise ValueError("--a length disagrees with --n")
    return vec, n, _parse_theta(theta, n)


def _parse_theta(text, n: int) -> float:
    if isinstance(text, (int, float)):
        return float(text)
    if text == "critical":
        return (n - 2) * math.pi / 2
    return float(text)


def _run_solve(cfg: RunConfig) -> tuple:
    params = cfg.params
    for name in ("beta", "gamma", "alpha", "rmax"):
        if not math.isfinite(params[name]):
            raise ValueError(f"--{name} must be finite")
    grid = subsol.ShellGrid(shells=params["grid"], directions=96,
                            r_max=50.0 * params["gamma"])
    vec, n, theta = _resolve_vector(cfg)
    pspec = phasepoly.PhaseSpec(n, theta)
    adm = weights.classify(pspec, vec)
    base = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "seed": cfg.seed,
        "config": {
            "n": n, "theta": theta, "a": [float(v) for v in np.sort(vec)],
            "beta": params["beta"], "gamma": params["gamma"],
            "alpha": params["alpha"], "rmax": params["rmax"],
            "grid": params["grid"],
        },
        "admissibility": {"klass": adm.klass, "m": adm.m},
    }
    if adm.klass != "admissible":
        base["passed"] = False
        return base, None

    beta = params["beta"]
    gamma = params["gamma"]
    alpha = params["alpha"]
    r_max = params["rmax"]

    pf = radial.partial_fractions(pspec, vec)
    sol_num = radial.solve_profile(pspec, vec, beta, r_max=r_max,
                                   route="numeric", pf=pf)
    sol_imp = radial.solve_profile(pspec, vec, beta, r_max=r_max,
                                   route="implicit", pf=pf)
    gap = float(np.max(np.abs(sol_num.psi - sol_imp.psi)))

    fit = None
    if beta > 1.0 and r_max >= 1.0e3:
        m_est, amp_est = radial.decay_fit(sol_imp)
        fit = {"m_est": m_est, "amp_est": amp_est}

    mu = {"at_gamma": radial.tail_integral(pspec, vec, beta, gamma, pf=pf),
          "at_10gamma": radial.tail_integral(pspec, vec, beta,
                                             10.0 * gamma, pf=pf)}

    sspec = subsol.SubsolutionSpec(alpha=alpha, beta=beta, gamma=gamma,
                                   diag=vec, theta=theta, pf=pf)
    rep = subsol.verify_subsolution(sspec, grid)

    base.update({
        "partial_fractions": {
            "roots": [float(v) for v in pf.roots],
            "weights": [float(v) for v in pf.weights],
            "m": pf.m,
        },
        "trajectory": {
            "r": [float(v) for v in sol_num.r],
            "psi_numeric": [float(v) for v in sol_num.psi],
            "psi_implicit": [float(v) for v in sol_imp.psi],
            "excess_numeric": [float(v) for v in sol_num.excess],
            "excess_implicit": [float(v) for v in sol_imp.excess],
        },
        "route_gap_max": gap,
        "tail_amplitude": radial.tail_amplitude(pf, beta),
        "mu": mu,
        "decay_fit": fit,
        "verification": {
            "points": rep.points,
            "min_phase_gap": rep.min_phase_gap,
            "min_level_value": rep.min_level_value,
            "worst_point": [float(v) for v in rep.worst_point],
            "passed": rep.passed,
        },
        "passed": rep.passed,
    })
    return base, rep


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slex",
        description="identity verification, family scans, and subsolution "
                    "runs for the exterior special Lagrangian construction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=None)
        p.add_argument("--exact", action="store_true",
                       help="request exact rational arithmetic where "
                            "supported (identity suites always use it)")

    pv = sub.add_parser("verify", help="run identity and property suites")
    common(pv)
    pv.add_argument("--grid", type=int, default=200,
                    help="number of random vectors per suite")

    ps = sub.add_parser("scan-eps", help="scan the five-point family")
    common(ps)
    ps.add_argument("--grid", type=int, default=97,
                    help="number of eps points on [0, pi/12]")

    po = sub.add_parser("solve", help="solve and verify one problem")
    common(po)
    po.add_argument("--n", type=int, default=None)
    po.add_argument("--theta", type=str, default=None,
                    help="radians, or the literal 'critical'")
    po.add_argument("--a", type=str, default=None,
                    help="comma separated positive entries")
    po.add_argument("--family", type=str, default=None,
                    help="'iso' or 'eps:<value>'")
    po.add_argument("--beta", type=float, default=2.0)
    po.add_argument("--gamma", type=float, default=1.0)
    po.add_argument("--alpha", type=float, default=0.0)
    po.add_argument("--rmax", type=float, default=1.0e4)
    po.add_argument("--grid", type=int, default=120,
                    help="number of radial shells in the verification grid")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(command=args.command, seed=args.seed,
                    fmt=args.fmt or ("json" if args.command == "solve"
                                     else "csv" if args.command == "scan-eps"
                                     else "json"),
                    out=args.out, exact=args.exact,
                    params={k: v for k, v in vars(args).items()
                            if k not in ("command", "seed", "out", "fmt",
                                         "exact")})
    try:
        if args.command == "verify":
            cfg.params["trials"] = cfg.params.pop("grid")
            report, ok = _run_verify(cfg)
            if cfg.fmt == "csv":
                _write_text(cfg.out, _verify_csv(report))
                if not cfg.out:
                    sys.stdout.write(_verify_csv(report))
            else:
                _emit_json(report, cfg.out)
            for s in report["suites"]:
                print(f"{s['name']}: cases={s['cases']} "
                      f"failures={s['failures']} worst={s['worst']}",
                      file=sys.stderr)
            print("PASS" if ok else "FAIL", file=sys.stderr)
            return 0 if ok else 1

        if args.command == "scan-eps":
            report, ok = _run_scan(cfg)
            if cfg.fmt == "json":
                _emit_json(report, cfg.out)
            else:
                text = _scan_csv(report)
                _write_text(cfg.out, text)
                if not cfg.out:
                    sys.stdout.write(text)
            s = report["summary"]
            print(f"m(0)={_fmt(s['m_at_zero'])} "
                  f"m(pi/12)={_fmt(s['m_at_endpoint'])} "
                  f"max_discrepancy={_fmt(s['max_discrepancy'])} "
                  f"monotone={s['monotone_decreasing']} "
                  f"crossing=[{_fmt(s['crossing_low'])}, "
                  f"{_fmt(s['crossing_high'])}]", file=sys.stderr)
            print("PASS" if ok else "FAIL", file=sys.stderr)
            return 0 if ok else 1

        if args.command == "solve":
            if cfg.fmt == "csv":
                raise ValueError("solve emits JSON only")
            report, rep = _run_solve(cfg)
            _emit_json(report, cfg.out)
            if rep is None:
                print(f"inadmissible: klass={report['admissibility']['klass']}"
                      f" m={report['admissibility']['m']}", file=sys.stderr)
                return 1
            print(f"route_gap_max={_fmt(report['route_gap_max'])} "
                  f"min_phase_gap={_fmt(report['verification']['min_phase_gap'])} "
                  f"min_level_value="
                  f"{_fmt(report['verification']['min_level_value'])}",
                  file=sys.stderr)
            print("PASS" if rep.passed else "FAIL", file=sys.stderr)
            return 0 if rep.passed else 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
