"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance below is part of the
package contract; none may be loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import oracles
from slex import phasepoly, radial, subsol, symfun, weights


def _report(num: int, label: str, ok: bool, elapsed=None, budget=None):
    timing = ""
    if budget is not None:
        timing = f" [{elapsed:.2f}s, budget {budget:.0f}s]"
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}{timing}")


def _level_sample(rng, n, theta):
    spec = phasepoly.PhaseSpec(n, theta)
    ang = theta * rng.dirichlet(np.ones(n))
    if np.any(ang <= 0.03) or np.any(ang >= math.pi / 2 - 0.03):
        return None
    try:
        return weights.complete_to_phase(np.tan(ang[:-1]), spec)
    except ValueError:
        return None


@pytest.fixture(scope="module")
def admissible_cases():
    """20 random admissible problems: supercritical phase, n <= 6."""
    rng = np.random.default_rng(20240815)
    cases = []
    while len(cases) < 20:
        n = int(rng.integers(3, 7))
        crit = (n - 2) * math.pi / 2
        theta = crit + float(rng.uniform(0.08, 0.92)) * math.pi
        a = _level_sample(rng, n, theta)
        if a is None:
            continue
        spec = phasepoly.PhaseSpec(n, theta)
        if weights.classify(spec, a).klass != "admissible":
            continue
        cases.append((spec, np.sort(a), float(rng.uniform(1.1, 10.0))))
    return cases


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    bad = []

    for t in range(200):
        n = 3 + t % 6
        vec = [Fraction(p, q)
               for p, q in oracles.rational_vector(rng, n)]
        # ray wronskian: product of the alternating parts vs the
        # all-positive closed form
        sig = symfun.elem_sym_all(vec)
        x, y, xw, yw = phasepoly.alternating_parts(sig)
        table = symfun.gen_sym_table(vec)
        if x * yw - y * xw != phasepoly.ray_wronskian(table):
            bad.append(("wronskian", vec))
        # sigma_j sigma_k decompositions recombine exactly
        for j in range(n + 1):
            for k in range(j, n + 1):
                combo = sum(c * table[kk][jj] for c, (kk, jj)
                            in symfun.product_decomposition(j, k, n))
                if combo != sig[j] * sig[k]:
                    bad.append(("product_decomposition", (j, k, vec)))
        # split and weighted-sum recurrences
        for k in range(1, n + 1):
            total = 0
            for i in range(1, n + 1):
                excl_k = oracles.elem_sym_excl(vec, k, (i,))
                excl_km1 = oracles.elem_sym_excl(vec, k - 1, (i,))
                if sig[k] != excl_k + vec[i - 1] * excl_km1:
                    bad.append(("split", (k, i, vec)))
                total += vec[i - 1] * excl_km1
            if total != k * sig[k]:
                bad.append(("weighted_sum", (k, vec)))

    # signed odd binomial sum: 1 at Q=0, 0 for Q=1..20
    if symfun.signed_odd_binomial_sum(0) != 1:
        bad.append(("qio", 0))
    for q in range(1, 21):
        if symfun.signed_odd_binomial_sum(q) != 0:
            bad.append(("qio", q))

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _report(1, "exact identity suite", ok, elapsed, 30.0)
    assert not bad, bad[:3]
    assert elapsed < 30.0


def test_criterion_2_closed_form_values():
    bad = []
    for n in range(3, 13):
        val = phasepoly.ray_wronskian(symfun.gen_sym_table([1] * n))
        if val != n * 2 ** (n - 1):
            bad.append(("wronskian_unit", n, val))
        x, y, xw, yw = phasepoly.alternating_parts(
            symfun.elem_sym_all([1] * n))
        if x * yw - y * xw != val:
            bad.append(("wronskian_unit_product", n))
    for n in range(3, 7):
        for theta in ((n - 2) * math.pi / 2, (n - 1) * math.pi / 2):
            spec = phasepoly.PhaseSpec(n, theta)
            m = weights.decay_exponent(spec, weights.iso_point(spec).tolist())
            if abs(m - n) > 1e-10:
                bad.append(("iso_exponent", n, theta, m))
    ok = not bad
    _report(2, "unit wronskian and isotropic exponent", ok)
    assert not bad, bad


def test_criterion_3_epsilon_scan():
    t0 = time.perf_counter()
    spec = phasepoly.PhaseSpec(5, 5 * math.pi / 3)
    s3 = math.sqrt(3.0)

    def pipeline(eps):
        return weights.decay_exponent(spec, weights.epsilon_family(eps))

    def closed(eps):
        num = 4 * s3 * math.cos(4 * eps) + 4 * s3 * math.cos(2 * eps) + 2 * s3
        den = (2 * s3 * math.cos(4 * eps) + 2 * math.sin(6 * eps)
               + 2 * math.sin(2 * eps) + 3 * math.sin(4 * eps))
        return num / den

    grid = np.linspace(0.0, math.pi / 12, 97)
    ms = np.array([pipeline(float(e)) for e in grid])
    bad = []
    if abs(ms[0] - 5.0) > 1e-10:
        bad.append(("m_at_zero", ms[0]))
    if abs(ms[-1] - (16 + 4 * s3) / 13) > 1e-9:
        bad.append(("m_at_endpoint", ms[-1]))
    if not np.all(np.diff(ms) < 0.0):
        bad.append(("monotone", None))
    disc = max(abs(pipeline(float(e)) - closed(float(e))) for e in grid)
    if disc > 1e-9:
        bad.append(("closed_form_discrepancy", disc))
    lo, hi = 0.19, 0.22
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pipeline(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    if not (0.206 <= lo <= hi <= 0.208):
        bad.append(("crossing", lo, hi))

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _report(3, "five-point family scan", ok, elapsed, 10.0)
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_4_closed_form_profile():
    t0 = time.perf_counter()
    spec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = np.full(3, 1.0 / math.sqrt(3.0))
    bad = []

    pf = radial.first_integral(oracles.profile(spec, a), 2.0)
    if abs(pf.prof.m - 3.0) > 1e-12:
        bad.append(("exponent", pf.prof.m))

    for beta in (1.5, 2.0, 10.0):
        # psi^2 = 1 + (beta^2 - 1) r^-3: the tail law's C = (beta^2 - 1)/2
        log_amp = radial.first_integral(pf.prof, beta).log_amplitude
        if abs(log_amp - math.log((beta * beta - 1.0) / 2.0)) > 1e-12:
            bad.append(("log_amplitude", beta, log_amp))
        pf_beta = radial.first_integral(pf.prof, beta)
        rs = radial.check_rmax(1.0e4)
        for route, sol in (
                ("numeric", radial.profile_numeric(pf_beta, rs)),
                ("implicit", radial.profile_implicit(
                    pf_beta, *radial.invert(pf_beta, rs)))):
            exact = np.sqrt(1.0 + (beta * beta - 1.0) * sol.r ** -3.0)
            gap = float(np.max(np.abs(sol.psi - exact)))
            if gap > 1e-8:
                bad.append((route, beta, gap))

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    _report(4, "closed-form profile case", ok, elapsed, 5.0)
    assert not bad, bad
    assert elapsed < 5.0


def test_criterion_5_route_agreement_and_decay(admissible_cases):
    t0 = time.perf_counter()
    bad = []
    for spec, a, beta in admissible_cases:
        pf = radial.first_integral(oracles.profile(spec, a), beta)
        rs = radial.check_rmax(1.0e4)
        num = radial.profile_numeric(pf, rs)
        imp = radial.profile_implicit(pf, *radial.invert(pf, rs))
        gap = float(np.max(np.abs(num.psi - imp.psi)))
        if gap > 1e-8:
            bad.append(("route_gap", spec.n, spec.theta, gap))
        # the tail law excess = C r^(-m) fitted on the numeric route's last
        # decade, which never reads the first integral's table
        last = num.r >= num.r[-1] / 10.0
        slope, intercept = np.polyfit(np.log(num.r[last]),
                                      np.log(num.excess[last]), 1)
        m, amp = pf.prof.m, math.exp(pf.log_amplitude)
        if abs(-slope - m) > 0.02 * m:
            bad.append(("fitted_exponent", spec.n, m, -slope))
        if abs(math.exp(intercept) - amp) > 0.05 * amp:
            bad.append(("fitted_amplitude", spec.n, amp, math.exp(intercept)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(5, "route agreement and tail law fit, 20 random cases", ok,
            elapsed, 60.0)
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_6_root_certification(admissible_cases):
    bad = []
    for spec, a, _beta in admissible_cases:
        roots = oracles.ray_roots(spec, np.array(oracles.profile(spec, a).a))
        if roots.size != spec.ray_degree:
            bad.append(("count", spec.n, spec.theta, roots.size))
        if abs(roots[-1] - 1.0) > 1e-9:
            bad.append(("max_root", spec.n, roots[-1]))
        margin = float(np.min(np.diff(roots)))
        if margin <= 0.0:
            bad.append(("simplicity", spec.n, margin))
        # independent re-check: the polynomial changes sign across each root
        coeffs = oracles.ray_poly(spec, a)
        probes = np.concatenate(([roots[0] - 1.0],
                                 0.5 * (roots[:-1] + roots[1:]),
                                 [roots[-1] + 1.0]))
        signs = np.sign(npoly.polyval(probes, coeffs))
        if np.any(signs == 0.0) or np.any(signs[:-1] * signs[1:] >= 0.0):
            bad.append(("sign_changes", spec.n, signs.tolist()))
    ok = not bad
    _report(6, "ray root certification, same 20 cases", ok)
    assert not bad, bad


def test_criterion_7_subsolution_verification():
    t0 = time.perf_counter()
    iso3 = np.full(3, 1.0 / math.sqrt(3.0))
    spec4 = phasepoly.PhaseSpec(4, 1.3 * math.pi)
    spec5 = phasepoly.PhaseSpec(5, 5.5)
    rng = np.random.default_rng(1007)
    a4 = None
    while a4 is None:
        a4 = _level_sample(rng, 4, spec4.theta)
        if a4 is not None and weights.classify(spec4, a4).klass != \
                "admissible":
            a4 = None
    pf3 = radial.first_integral(
        oracles.profile(phasepoly.PhaseSpec(3, math.pi / 2), iso3), 1.0)
    # (problem, gamma) of each candidate; alpha never reaches the grid
    candidates = [
        (pf3, 1.0),
        (radial.first_integral(pf3.prof, 10.0), 1.0),
        (radial.first_integral(pf3.prof, 2.0), 1.5),
        (radial.first_integral(oracles.profile(spec4, a4), 2.0), 1.0),
        (radial.first_integral(
            oracles.profile(spec5, weights.iso_point(spec5)), 3.0), 1.0),
    ]
    bad = []
    for i, (pf, gamma) in enumerate(candidates):
        rep = subsol.verify_subsolution(
            pf, *radial.invert(pf, subsol.shell_radii(gamma, 120)))
        if rep.points < 10 ** 4:
            bad.append(("points", i, rep.points))
        if rep.min_phase_gap < -1e-9:
            bad.append(("phase_gap", i, rep.min_phase_gap))
        if rep.min_level_value < -1e-9:
            bad.append(("level_value", i, rep.min_level_value))
        # rank-one sigma values against the dense eigenvalue oracle
        n = len(pf.prof.a)
        checked = 0
        while checked < 40:
            x = rng.standard_normal(n) * rng.uniform(1.0, 30.0)
            if oracles.ellipsoid_radius(pf.prof.a, x) <= gamma:
                continue
            lam = np.linalg.eigvalsh(oracles.hessian(pf, x))
            for k in range(1, n + 1):
                direct = oracles.hessian_sigma(pf, x, k)
                oracle = float(symfun.elem_sym_all(lam.tolist())[k])
                if abs(direct - oracle) > 1e-10 * max(1.0, abs(oracle)):
                    bad.append(("sigma_oracle", i, k, direct - oracle))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(7, "subsolution verification, 5 candidates", ok, elapsed, 60.0)
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_8_property_suites():
    rng = np.random.default_rng(808)
    bad = []

    # weight chains: monotone, with k/n sandwiched between the bounds
    for _ in range(100):
        n = int(rng.integers(3, 9))
        a = np.sort(np.exp(rng.standard_normal(n) * 1.5))
        lows, highs = zip(*(oracles.weight_bounds(a, k)
                            for k in range(n + 1)))
        for k in range(1, n):
            if lows[k + 1] < lows[k] - 1e-12 or highs[k + 1] < \
                    highs[k] - 1e-12:
                bad.append(("chain_monotone", a.tolist(), k))
            if not lows[k] <= k / n + 1e-12 or not highs[k] >= k / n - 1e-12:
                bad.append(("chain_sandwich", a.tolist(), k))

    # pinch characterization: equality at 1 <= k <= n-1 iff a is isotropic
    for n in (3, 5, 7):
        iso = np.full(n, 1.3)
        if any(abs(lo - k / n) > 1e-13 or abs(hi - k / n) > 1e-13
               for k in range(1, n)
               for lo, hi in (oracles.weight_bounds(iso, k),)):
            bad.append(("pinch_iso", n))
        skew = np.linspace(1.0, 2.0, n)
        if all(oracles.weight_bounds(skew, k)[1] -
               oracles.weight_bounds(skew, k)[0] < 1e-13
               for k in range(1, n)):
            bad.append(("pinch_skew", n))

    # 0 < m <= n on 500 random level-set samples
    count = 0
    while count < 500:
        n = int(rng.integers(3, 7))
        crit = (n - 2) * math.pi / 2
        theta = crit + float(rng.uniform(0.05, 0.95)) * math.pi
        a = _level_sample(rng, n, theta)
        if a is None:
            continue
        m = weights.decay_exponent(phasepoly.PhaseSpec(n, theta),
                                    a.tolist())
        if not 0.0 < m <= n + 1e-12:
            bad.append(("exponent_range", n, theta, m))
        count += 1

    # n in {3, 4} at theta = pi: every sample has m > 2
    for n in (3, 4):
        done = 0
        while done < 50:
            a = _level_sample(rng, n, math.pi)
            if a is None:
                continue
            m = weights.decay_exponent(phasepoly.PhaseSpec(n, math.pi),
                                        a.tolist())
            if not m > 2.0:
                bad.append(("pi_exponent", n, a.tolist(), m))
            done += 1

    # domination inequality in place of the Perron construction:
    # Phi(x) <= x^T A x / 2 + (mu_gamma + alpha - gamma^2 / 2)
    iso3 = np.full(3, 1.0 / math.sqrt(3.0))
    pf3 = radial.first_integral(
        oracles.profile(phasepoly.PhaseSpec(3, math.pi / 2), iso3), 2.0)
    for beta, gamma, alpha in ((2.0, 1.0, 0.0), (10.0, 1.5, 2.0)):
        pf = radial.first_integral(pf3.prof, beta)
        mu_gamma = radial.tail_integral(pf, *radial.invert(pf, (gamma,)))[0]
        const = mu_gamma + alpha - gamma * gamma / 2.0
        for _ in range(100):
            x = rng.standard_normal(3) * rng.uniform(1.0, 40.0)
            r = oracles.ellipsoid_radius(iso3, x)
            if r <= gamma:
                continue
            phi = oracles.radial_value(pf, alpha, gamma, r)
            if phi > 0.5 * float(x @ (iso3 * x)) + const + 1e-9:
                bad.append(("domination", beta, x.tolist()))

    ok = not bad
    _report(8, "weight, exponent, and domination properties", ok)
    assert not bad, bad[:3]
