"""Tests for the radial profile equation and its two solution routes."""

import inspect
import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

import oracles
from slex import cli, phasepoly, radial, subsol, weights


SQRT3 = math.sqrt(3.0)
SPEC3 = phasepoly.PhaseSpec(3, math.pi / 2)
A3 = np.full(3, 1.0 / SQRT3)
PF3_PROFILE = oracles.profile(SPEC3, A3)
PF3 = radial.first_integral(PF3_PROFILE, 2.0)


def closed_excess(r, beta):
    # psi = sqrt(1 + (beta^2 - 1) r^-3), written cancellation-free
    r = np.asarray(r, dtype=float)
    return np.expm1(0.5 * np.log1p((beta * beta - 1.0) * r ** -3.0))


def admissible_sample(rng, n_low=3, n_high=6, m_floor=2.05):
    while True:
        n = int(rng.integers(n_low, n_high + 1))
        crit = (n - 2) * math.pi / 2
        theta = float(rng.uniform(crit + 0.05, n * math.pi / 2 - 0.1))
        spec = phasepoly.PhaseSpec(n, theta)
        ang = theta * rng.dirichlet(np.ones(n))
        if np.any(ang <= 0.04) or np.any(ang >= math.pi / 2 - 0.04):
            continue
        try:
            a = weights.complete_to_phase(np.tan(ang[:-1]), spec)
        except ValueError:
            continue
        adm = weights.classify(spec, a)
        if adm.klass != "admissible" or adm.m < m_floor:
            continue
        return spec, a, adm.m


def test_slope_field_known_values():
    assert PF3.slope(1.0) == pytest.approx(0.0, abs=1e-12)
    assert PF3.slope(2.0) == pytest.approx(-9.0 / 4.0, rel=1e-12)
    for nu in (1.5, 3.0, 10.0):
        assert PF3.slope(nu) < 0.0


def test_slope_field_derivative_at_one_is_minus_m():
    rng = np.random.default_rng(61)
    for _ in range(15):
        spec, a, m = admissible_sample(rng)
        pf = radial.first_integral(oracles.profile(spec, a), 2.0)
        h = 1e-6
        fd = (pf.slope(1.0 + h) - pf.slope(1.0 - h)) / (2 * h)
        assert fd == pytest.approx(-m, rel=1e-5)
        assert oracles.slope_deriv(pf, 1.0) == pytest.approx(-m, rel=1e-9)
        assert -spec.n - 1e-9 <= -m < -2.0


def test_slope_field_limit_slope_band():
    rng = np.random.default_rng(62)
    for _ in range(15):
        spec, a, _m = admissible_sample(rng)
        n = spec.n
        pf = radial.first_integral(oracles.profile(spec, a), 2.0)
        limit = oracles.slope_deriv(pf, 1.0e9)
        assert -(n / (n - 1.0)) * (1.0 + 1e-6) <= limit <= -(1.0 - 1e-6)


def test_slope_field_denominator_guard():
    for nu in (0.0, -1.0):
        with pytest.raises(ValueError, match="denominator not positive"):
            PF3.slope(nu)


def test_partial_fractions_closed_case():
    # den(nu) = nu^2 - 1 and num(nu) = 2 nu/3: D(x) = 2 + x,
    # N(x) = 2 (1 + x)/3, E = 1, and log C = log((beta^2 - 1)/2)
    pf = PF3
    assert pf.prof.m == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(pf.d_coeffs, [2.0, 1.0], rtol=1e-12)
    assert np.allclose(pf.n_coeffs, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    assert np.allclose(pf.e_coeffs, [1.0], rtol=1e-12)
    for beta in (1.5, 2.0, 10.0, 1e6):
        assert replace(pf, beta=beta).log_amplitude == \
            pytest.approx(math.log((beta * beta - 1.0) / 2.0), abs=1e-12)
    assert replace(pf, beta=1.0).log_amplitude == -math.inf


def test_partial_fractions_holds_the_profile_and_copies_none_of_it():
    # the problem lives on the WeightProfile classify built; the analysis
    # refers to it and declares none of its fields again
    assert PF3.prof is PF3_PROFILE
    assert replace(PF3, beta=3.0).prof is PF3_PROFILE
    names = {f.name for f in fields(radial.FirstIntegral)}
    assert "prof" in names
    assert not names & {f.name for f in fields(weights.WeightProfile)}


def test_partial_fractions_residues_recombine():
    # the residue N(0)/D(0) = 1/m at nu = 1 and the rest, E/(m D),
    # recombine to num/den: num(1 + x)/den(1 + x) = (1 + x E/D)/(m x)
    rng = np.random.default_rng(63)
    for _ in range(15):
        spec, a, m = admissible_sample(rng)
        pf = radial.first_integral(oracles.profile(spec, a), 2.0)
        assert pf.n_coeffs[0] / pf.d_coeffs[0] == pytest.approx(1.0 / m,
                                                               rel=1e-10)
        for nu in (1.37, 2.0, 5.0, 9.3):
            x = nu - 1.0
            direct = npoly.polyval(nu, pf.num) / npoly.polyval(nu, pf.den)
            recombined = (1.0 + x * npoly.polyval(x, pf.e_coeffs)
                          / npoly.polyval(x, pf.d_coeffs)) / (m * x)
            assert recombined == pytest.approx(direct, rel=1e-9)


def test_poly_pair_and_m_from_one_weight_profile_bitwise():
    # den, built from the profile's sigma row, is the ray polynomial's own
    # array, and the analysis' m is the decay exponent's
    rng = np.random.default_rng(64)
    for n in range(3, 13):
        spec, a = admissible_point(rng, n)
        prof = oracles.profile(spec, a)
        num, den = radial._slope_pair(prof)
        assert den.tobytes() == oracles.ray_poly(spec, a).tobytes()
        pf = radial.first_integral(prof, 2.0)
        assert pf.prof.m == weights.decay_exponent(spec, a)
        assert pf.num == tuple(num.tolist())
        assert pf.den == tuple(den.tolist())


def test_profile_implicit_closed_case_values():
    def psi(beta, r):
        return 1.0 + float(replace(PF3, beta=beta).excess_at(r))

    assert psi(2.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert psi(1.0, 57.0) == 1.0
    assert psi(2.0, 2.0) == pytest.approx(math.sqrt(11.0 / 8.0), abs=1e-12)
    assert psi(2.0, 10.0) == pytest.approx(math.sqrt(1.0 + 3.0e-3),
                                           abs=1e-12)


def test_both_routes_match_closed_form():
    rs = sample_radii()
    for beta in (1.5, 2.0, 10.0):
        expect = 1.0 + closed_excess(rs, beta)
        for route in ("numeric", "implicit"):
            sol = radial.solve_profile(replace(PF3, beta=beta), route=route)
            assert np.array_equal(sol.r, rs)
            assert np.max(np.abs(sol.psi - expect)) <= 1e-8


def test_routes_agree_on_random_admissible_cases():
    rng = np.random.default_rng(64)
    for _ in range(8):
        spec, a, _m = admissible_sample(rng)
        beta = float(rng.uniform(1.1, 10.0))
        pf = radial.first_integral(oracles.profile(spec, a), beta)
        sn = radial.solve_profile(pf, route="numeric")
        si = radial.solve_profile(pf, route="implicit")
        assert np.max(np.abs(sn.psi - si.psi)) <= 1e-8
        # squeeze and slope-decay invariants on the numeric trajectory
        assert np.all(sn.psi[1:] < beta)
        assert np.all(sn.psi >= 1.0)
        assert abs(pf.slope(float(sn.psi[-1]))) < 1e-3
        count_checked = True
    assert count_checked


def test_profile_monotone_in_beta():
    rng = np.random.default_rng(65)
    spec, a, _m = admissible_sample(rng)
    betas = (1.5, 2.5, 4.0, 9.0)
    pf = radial.first_integral(oracles.profile(spec, a), betas[0])
    sols = [radial.solve_profile(replace(pf, beta=b), route="implicit")
            for b in betas]
    for lo, hi in zip(sols, sols[1:]):
        assert np.all(hi.psi[1:] > lo.psi[1:])
        assert hi.psi[0] > lo.psi[0]


def test_profile_solution_invariants():
    sol = radial.solve_profile(PF3, route="numeric")
    assert sol.r[0] == 1.0
    assert sol.psi[0] == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.diff(sol.r) > 0)
    assert np.all(np.diff(sol.psi) <= 1e-9 * sol.excess[:-1] + 1e-300)
    assert np.all(sol.excess >= 0.0)
    assert np.all(sol.psi <= 2.0 * (1.0 + 1e-9))


def test_solve_profile_validates_inputs():
    with pytest.raises(ValueError, match="r_max must be finite and exceed 1"):
        radial.solve_profile(PF3, r_max=0.5)
    # above 1, but within a few hundred ulps: the sample radii round together
    for r_max in (1.00000000000002, 1.00000000000005):
        with pytest.raises(ValueError, match="is too close to 1"):
            radial.solve_profile(PF3, r_max=r_max)
    assert np.all(np.diff(radial.check_rmax(1.0000000000000546)) > 0.0)
    for pf in (PF3, replace(PF3, beta=1.0)):
        with pytest.raises(ValueError, match="route must be 'numeric' or"):
            radial.solve_profile(pf, route="magic")


def test_partial_fractions_checks_beta():
    # beta is checked where it is bound: by first_integral, and again by
    # dataclasses.replace
    for beta, message in ((0.5, "beta must be at least 1"),
                          (2.0e6, "beta above the supported cap 1e6"),
                          (float("nan"), "beta must be finite"),
                          (float("inf"), "beta must be finite")):
        with pytest.raises(ValueError, match=message):
            radial.first_integral(PF3_PROFILE, beta)
        with pytest.raises(ValueError, match=message):
            replace(PF3, beta=beta)
    assert type(replace(PF3, beta=2).beta) is float
    assert type(radial.first_integral(PF3_PROFILE, 2).beta) is float
    # the whole range binds without a warning: C is held as log C
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert replace(PF3, beta=1.0e6).beta == 1.0e6


def test_beta_enters_through_the_analysis_only():
    # beta and the tolerances are bound in one place each, so no stage
    # takes them as arguments
    for fn in (radial.FirstIntegral.excess_at, radial.tail_amplitude,
               radial.solve_profile, radial.tail_integral,
               subsol.verify_subsolution, weights.decay_exponent,
               weights.classify):
        params = inspect.signature(fn).parameters
        assert not {"beta", "tol", "level_tol", "tolerance"} & set(params), fn
    # the analysis classify made, and beta: nothing else
    assert list(inspect.signature(radial.first_integral).parameters) == \
        ["prof", "beta"]
    # the grid takes the problem, gamma and the shell count: alpha never
    # reaches the Hessian, and the outer radius is GRID_RADIUS * gamma
    assert list(inspect.signature(subsol.verify_subsolution).parameters) == \
        ["pf", "gamma", "shells"]


def test_tail_amplitude_closed_case():
    # psi^2 = 1 + (beta^2 - 1) r^-3: amplitude C = (beta^2 - 1)/2
    assert radial.tail_amplitude(PF3) == pytest.approx(1.5, rel=1e-12)
    assert radial.tail_amplitude(replace(PF3, beta=10.0)) == \
        pytest.approx(49.5, rel=1e-12)
    assert radial.tail_amplitude(replace(PF3, beta=1.0)) == 0.0


def test_tail_integral_against_quadrature_oracle():
    # independent oracle on the closed case: integrate
    # tau * (sqrt(1 + 3 tau^-3) - 1) with a series tail beyond 1e4
    def integrand(tau):
        return tau * float(closed_excess(tau, 2.0))

    body, _ = quad(integrand, 10.0, 1.0e4, epsabs=1e-14, epsrel=1e-12,
                   limit=400)
    t_cut = 1.0e4
    series_tail = 1.5 / t_cut - (9.0 / 32.0) * t_cut ** -4.0
    oracle = body + series_tail
    val = radial.tail_integral(PF3, (10.0,))[0]
    assert val == pytest.approx(oracle, rel=1e-6)


def test_tail_integral_properties():
    assert radial.tail_integral(replace(PF3, beta=1.0), (5.0,))[0] == 0.0
    assert radial.tail_integral(PF3, (3.0,))[0] < \
        radial.tail_integral(replace(PF3, beta=3.0), (3.0,))[0]
    with pytest.raises(ValueError, match="integral may diverge"):
        spec = phasepoly.PhaseSpec(5, 5 * math.pi / 3)
        prof = oracles.profile(spec, weights.epsilon_family(math.pi / 12))
        radial.tail_integral(radial.first_integral(prof, 2.0), (5.0,))


def test_non_finite_and_overflowing_inputs_rejected():
    # non-finite beta: test_partial_fractions_checks_beta
    with pytest.raises(ValueError, match="r_max must be finite"):
        radial.solve_profile(PF3, r_max=float("nan"))
    with pytest.raises(ValueError, match="r_max must be finite"):
        radial.solve_profile(PF3, r_max=float("inf"))
    with pytest.raises(ValueError, match="R must be at least 1"):
        radial.tail_integral(PF3, (float("nan"),))
    # no cutoff in r: far out the value is the tail law C R^(2-m)/(m-2)
    # (C = 1.5, m = 3), and 0 at beta = 1
    assert radial.tail_integral(PF3, (1e300,))[0] == \
        pytest.approx(1.5e-300, rel=1e-12)
    assert radial.tail_integral(replace(PF3, beta=1.0), (1e300,)) == (0.0,)


def test_tail_integral_radii_in_one_pass_match_one_at_a_time():
    # both radii share one table and one Newton solve and still get the
    # bits of their own one-radius calls
    rng = np.random.default_rng(99)
    cases = [admissible_point(rng, n) for n in range(3, 13)]
    spec8 = phasepoly.PhaseSpec(8, 3 * math.pi)
    cases.append((spec8, weights.iso_point(spec8)))
    for spec, a in cases:
        pf = radial.first_integral(oracles.profile(spec, a), 2.7)
        one_at_a_time = (radial.tail_integral(pf, (1.0,))
                         + radial.tail_integral(pf, (10.0,)))
        assert radial.tail_integral(pf, (1.0, 10.0)) == one_at_a_time


def test_tail_integral_scaling_in_cutoff():
    # mu_R * R^(m-2) stabilizes: the ratio across R in [1e2, 1e4] moves
    # by less than 10%
    vals = []
    for R in (1.0e2, 1.0e3, 1.0e4):
        vals.append(radial.tail_integral(PF3, (R,))[0] * R ** (3.0 - 2.0))
    assert max(vals) / min(vals) < 1.10


def test_decay_fit_closed_case():
    sol = radial.solve_profile(PF3, route="implicit")
    m_est, amp_est = radial.decay_fit(sol)
    assert m_est == pytest.approx(3.0, rel=2e-2)
    assert amp_est == pytest.approx(1.5, rel=5e-2)
    sol10 = radial.solve_profile(replace(PF3, beta=10.0), route="implicit")
    m10, amp10 = radial.decay_fit(sol10)
    assert m10 == pytest.approx(3.0, rel=2e-2)
    assert amp10 == pytest.approx(49.5, rel=5e-2)


def test_decay_fit_iso_recovers_dimension():
    for n in (3, 4, 5):
        theta = 0.85 * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        prof = oracles.profile(spec, weights.iso_point(spec))
        pf = radial.first_integral(prof, 2.0)
        sol = radial.solve_profile(pf, route="numeric")
        m_est, _amp = radial.decay_fit(sol)
        assert m_est == pytest.approx(n, rel=2e-2)


def test_decay_fit_requires_decaying_tail():
    with pytest.raises(ValueError):
        radial.decay_fit(radial.solve_profile(replace(PF3, beta=1.0)))
    with pytest.raises(ValueError):
        radial.decay_fit(radial.solve_profile(PF3, r_max=100.0))


def test_decay_fit_window_on_positive_tail():
    # a positive tail keeps the last decade of the trajectory
    sol = radial.solve_profile(PF3, route="implicit")
    assert np.all(sol.excess > 0.0)
    mask = sol.r >= sol.r[-1] / 10.0
    slope, intercept = np.polyfit(np.log(sol.r[mask]),
                                  np.log(sol.excess[mask]), 1)
    assert radial.decay_fit(sol) == (-slope, math.exp(intercept))
    # iso n = 36 underflows to 0 long before r = 1e30: the fit covers the
    # last decade of the radii whose excess is positive
    spec = phasepoly.PhaseSpec(36, 17 * math.pi)
    prof = oracles.profile(spec, weights.iso_point(spec))
    pf = radial.first_integral(prof, 2.0)
    sol = radial.solve_profile(pf, r_max=1e30, route="implicit")
    assert sol.excess[-1] == 0.0
    m_est, _amp = radial.decay_fit(sol)
    assert m_est == pytest.approx(36.0, rel=2e-2)
    # fewer than 5 positive samples cannot be fitted
    rs = np.geomspace(1.0, 1e4, 241)
    excess = np.where(np.arange(241) < 4, 1.0 / rs, 0.0)
    thin = radial.ProfileSolution(beta=2.0, r=rs, psi=1.0 + excess,
                                  excess=excess)
    with pytest.raises(ValueError, match="not enough positive tail samples"):
        radial.decay_fit(thin)


# ------------------------------------------------------------- oracles
#
# The routes run on precomputed Python-float data.  The oracles below are
# the plain formulas on numpy Polynomials (den and num composed with 1 + x
# in numpy's polynomial arithmetic, not by pf's synthetic division), with
# every constant recomputed on each call, integrated by one Gauss-Legendre
# rule over the whole range and solved by scipy's brentq, DOP853 and quad.
# Where the arithmetic is the same (the slope, the integrator under a
# polyval right-hand side) the comparison is exact; against scipy's
# solvers it is to a tolerance.

# iso (n, theta, beta) whose eigenvalues, or whose beta, are large
LARGE_EIGENVALUE_CASES = [(8, 11.0, 2.0), (12, 17.0, 2.0), (20, 30.0, 2.0),
                          (4, 3.6, 2000.0), (6, 7.0, 50.0)]


def admissible_point(rng, n):
    """A random admissible level-set point of dimension n.

    The angles pi/2 - arctan(a_j) are a Dirichlet draw over the slack
    n*pi/2 - theta, so a_j = tan(pi/2 - delta_j).
    """
    crit = (n - 2) * math.pi / 2
    while True:
        theta = crit if rng.uniform() < 0.5 else \
            crit + float(rng.uniform(0.05, 0.95)) * math.pi
        spec = phasepoly.PhaseSpec(n, theta)
        deficit = n * math.pi / 2 - theta
        delta = rng.dirichlet(np.full(n, 4.0)) * deficit
        if np.any(delta < 1e-3) or np.any(delta > math.pi / 2 - 0.05):
            continue
        try:
            a = weights.complete_to_phase(1.0 / np.tan(delta[:-1]), spec)
        except ValueError:
            continue
        if weights.classify(spec, a).klass == "admissible":
            return spec, a


def oracle_polynomials(pf):
    """(D, N, E) as numpy Polynomials in x = nu - 1: den(1 + x) less its
    constant term over x, num(1 + x), and (m N - D)/x less its constant
    term, by numpy's composition with 1 + x."""
    shift = Polynomial([1.0, 1.0])
    d = Polynomial(Polynomial(pf.den)(shift).coef[1:])
    n = Polynomial(pf.num)(shift)
    return d, n, Polynomial((pf.prof.m * n - d).coef[1:])


def oracle_log_r(pf, beta, u):
    """m log r at u = log(psi - 1): log(beta - 1) - u plus the integral of
    x E/D over [u, log(beta - 1)], by numpy's 20-point Gauss-Legendre rule
    on pieces of width at most 2.  Below 200 under log(beta - 1) the
    integrand is below e^-190 and dropped."""
    d, _n, e = oracle_polynomials(pf)
    top = math.log(beta - 1.0)
    low = max(u, top - 200.0)
    pieces = max(1, math.ceil((top - low) / 2.0))
    h = (top - low) / pieces
    nodes, weights_ = np.polynomial.legendre.leggauss(20)
    x = np.exp(low + h * (np.arange(pieces)[:, None] + 0.5 * (1.0 + nodes)))
    return top - u + 0.5 * h * float(np.sum(x * e(x) / d(x) * weights_))
def oracle_excess(pf, beta, r):
    """psi(r) - 1 by brentq on oracle_log_r(u) = m log r."""
    if beta == 1.0:
        return 0.0
    if r == 1.0:
        return beta - 1.0
    target = pf.prof.m * math.log(r)
    u_hi = math.log(beta - 1.0)
    u_lo = u_hi - target
    while oracle_log_r(pf, beta, u_lo) < target:
        u_lo -= 2.0
    return math.exp(brentq(lambda u: oracle_log_r(pf, beta, u) - target,
                           u_lo, u_hi, xtol=1e-14,
                           rtol=4 * np.finfo(float).eps))


def oracle_mu(pf, beta, R):
    """int_R^inf tau (psi - 1) dtau = int r(u)^2 (N/D)(x) x du over u up to
    log(psi(R) - 1), by quad over oracle_log_r: no cutoff."""
    d, n, _e = oracle_polynomials(pf)
    m = pf.prof.m

    def integrand(u):
        x = math.exp(u)
        return math.exp(2.0 * oracle_log_r(pf, beta, u) / m + u) * n(x) / d(x)

    value, _err = quad(integrand, -math.inf,
                       math.log(oracle_excess(pf, beta, R)),
                       epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def oracle_rhs(spec, a):
    """The numeric route's right-hand side on npoly.polyval arrays."""
    num, den = radial._slope_pair(oracles.profile(spec, a))
    shifted = den.copy()
    for j in range(shifted.size):
        for i in range(shifted.size - 2, j - 1, -1):
            shifted[i] += shifted[i + 1]
    reduced = shifted[1:]

    def rhs(y):
        d = math.exp(y)
        return -npoly.polyval(d, reduced) / npoly.polyval(1.0 + d, num)

    return rhs


def sample_radii(r_max=1.0e4, num_samples=241):
    rs = np.geomspace(1.0, r_max, num_samples)
    rs[0] = 1.0
    return rs


def oracle_dop853(spec, a, beta):
    """The numeric route's ODE integrated by scipy's DOP853."""
    rhs = oracle_rhs(spec, a)
    rs = sample_radii()
    sol = solve_ivp(lambda _s, y: (rhs(y[0]),), (0.0, math.log(rs[-1])),
                    (math.log(beta - 1.0),), method="DOP853", rtol=1e-12,
                    atol=1e-13, t_eval=np.log(rs))
    assert sol.success
    return np.exp(sol.y[0])


def test_implicit_excess_matches_brentq_oracle():
    rng = np.random.default_rng(91)
    radii = np.concatenate(([1.0, 1.0 + 1e-12], np.geomspace(1.001, 1e5, 6),
                            rng.uniform(1.0, 1e5, 2)))
    for n in range(3, 13):
        spec, a = admissible_point(rng, n)
        pf = radial.first_integral(oracles.profile(spec, a), 2.0)
        for beta in (1.0, 1.01, 2.0, float(rng.uniform(1.5, 50.0)), 900.0):
            pf = replace(pf, beta=beta)
            got = pf.excess_at(radii)
            assert got.shape == radii.shape
            for r, value in zip(radii.tolist(), got.tolist()):
                expect = oracle_excess(pf, beta, r)
                if r == 1.0 or beta == 1.0:
                    assert value == expect, (n, beta, r)
                else:
                    assert abs(value - expect) <= 1e-12 * expect, (n, beta, r)
                # one radius alone gives the same bits as in the batch
                assert float(pf.excess_at(r)) == value
    # the bit check alone at higher degree
    for n in (18, 24):
        spec, a = admissible_point(rng, n)
        pf = radial.first_integral(oracles.profile(spec, a), 2.0)
        for beta in (1.01, 2.0, 900.0):
            pf = replace(pf, beta=beta)
            got = pf.excess_at(radii)
            for r, value in zip(radii.tolist(), got.tolist()):
                assert float(pf.excess_at(r)) == value, (n, beta, r)


def test_excess_at_safeguards_newton():
    # Newton starts from the secant between the two knots of the table
    # that bracket log r, and every step is kept between them: at radii on
    # the knots, where the root is an end of its bracket, and just inside
    # them, the excess is the oracle's
    rng = np.random.default_rng(90)
    for n in (3, 5, 8, 12):
        spec, a = admissible_point(rng, n)
        for beta in (1.01, 2.0, 1e3):
            pf = radial.first_integral(oracles.profile(spec, a), beta)
            on_knots = np.exp(pf._knot_log_r[5::97])
            radii = np.concatenate((on_knots, on_knots * (1.0 + 1e-9)))
            got = pf.excess_at(radii)
            for r, value in zip(radii.tolist(), got.tolist()):
                expect = oracle_excess(pf, beta, r)
                assert abs(value - expect) <= 1e-12 * expect, (n, beta, r)


def test_excess_at_stops_on_newton_overshoot_by_an_ulp():
    # at a radius on a knot of the table the root is an end of its
    # bracket, and a Newton step may propose a point an ulp past it: the
    # step is kept on the bracket, which counts as converged, and the
    # excess is the knot's own to rounding
    spec = phasepoly.PhaseSpec(8, 3 * math.pi)
    pf = radial.first_integral(
        oracles.profile(spec, weights.iso_point(spec)), 2.7)
    got = pf.excess_at(np.exp(pf._knot_log_r))
    assert np.allclose(got, np.exp(pf._knots), rtol=1e-13, atol=0.0)


def test_excess_at_raises_when_newton_has_not_converged(monkeypatch):
    # from the secant start two steps reach the root to rounding; one step
    # leaves the last move above 1e-10 max(1, |u|), which is reported
    monkeypatch.setattr(radial, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="implicit Newton iteration did "
                                           "not converge"):
        PF3.excess_at(np.geomspace(1.0, 1e4, 241))


def test_excess_at_validates_radii():
    for bad in (0.5, float("nan"), [2.0, 0.999]):
        with pytest.raises(ValueError, match="r must be at least 1"):
            PF3.excess_at(bad)
    grid = np.geomspace(1.0, 50.0, 6).reshape(2, 3)
    assert np.array_equal(PF3.excess_at(grid),
                          PF3.excess_at(grid.ravel()).reshape(2, 3))


def test_excess_at_batch_invariant_across_the_reduction_switch():
    # no operation mixes radii: a radius alone gets the same bits as inside
    # batches of 2, 24, 241 and 1,033 radii, on iso and random points
    rng = np.random.default_rng(94)
    cases = []
    for n in (3, 4, 5, 8, 12, 16, 20, 24):
        spec = phasepoly.PhaseSpec(n, (n - 2) * math.pi / 2)
        cases.append((spec, weights.iso_point(spec)))
        cases.append(admissible_point(rng, n))
    for spec, a in cases:
        pf = radial.first_integral(oracles.profile(spec, a),
                                      float(rng.uniform(1.5, 50.0)))
        batch = np.concatenate(([1.0, 1.0 + 1e-12],
                                np.geomspace(1.0, 1e6, 1031)))
        rng.shuffle(batch)
        whole = pf.excess_at(batch)
        for size in (2, 24, 241):
            start = int(rng.integers(0, batch.size - size))
            assert np.array_equal(pf.excess_at(batch[start:start + size]),
                                  whole[start:start + size]), (spec.n, size)
        for i in rng.choice(batch.size, 12, replace=False).tolist():
            assert float(pf.excess_at(batch[i])) == whole[i], (spec.n, i)


# a level point of theta + offset, |offset| up to and just past LEVEL_TOL
LEVEL_OFFSETS = st.one_of(
    st.floats(min_value=-1.05e-10, max_value=1.05e-10),
    st.sampled_from([-1e-10, -0.9e-10, 0.0, 0.9e-10, 1e-10]))


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(kind=st.sampled_from(["critical", "supercritical", "supercritical",
                             "pair100", "pair1000", "eps"]),
       n=st.integers(min_value=3, max_value=12),
       u=st.floats(min_value=0.0, max_value=0.98),
       split=st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=12,
                      max_size=12),
       offset=LEVEL_OFFSETS,
       reflect=st.booleans(),
       beta=st.floats(min_value=1.0, max_value=1.0e3))
def test_partial_fractions_accepts_what_classify_admits(kind, n, u, split,
                                                        offset, reflect,
                                                        beta):
    # the classifier and the solver agree on range: every point classify
    # calls admissible or slow_decay gives a FirstIntegral from its
    # profile, at critical and supercritical theta, on all-negative data,
    # with a phase error up to LEVEL_TOL and beta in [1, 1e3].  The sign
    # test and the residue check read the pair shifted to 1 with den(1)
    # dropped, so the phase error does not reach them; what classify calls
    # "outside" fails decay_exponent's level check and has no profile
    if kind == "eps":
        # slow_decay past the family's crossing near eps = 0.2068
        n, theta = 5, 5 * math.pi / 3
        spec = phasepoly.PhaseSpec(n, theta)
        a = np.asarray(weights.epsilon_family(u * math.pi / 12))
    else:
        if kind.startswith("pair"):
            # (b, b, x) at theta = pi: H'(1) is about 2/b, so the allowed
            # phase error moves the root 1 by up to 2.5e-9 (b = 100) or
            # 2.5e-8
            n, theta = 3, math.pi
            prefix = np.full(2, 100.0 if kind == "pair100" else 1000.0)
        else:
            theta = (n - 2) * math.pi / 2
            if kind == "supercritical":
                theta += u * math.pi
            # angles pi/2 - d_j, the deficits d_j splitting n*pi/2 - theta
            deficits = np.array(split[:n])
            deficits *= (n * math.pi / 2 - theta) / deficits.sum()
            prefix = np.tan(math.pi / 2 - deficits[:-1])
        spec = phasepoly.PhaseSpec(n, theta)
        try:
            a = weights.complete_to_phase(
                prefix, phasepoly.PhaseSpec(n, theta + offset))
        except ValueError:
            assume(False)
    if reflect:
        spec, a = phasepoly.PhaseSpec(n, -theta), -a
    adm = weights.classify(spec, a)
    assert adm.reflected == reflect
    if adm.klass == "outside":
        assert adm.profile is None
        with pytest.raises(ValueError, match="a not on the phase level set"):
            weights.decay_exponent(phasepoly.PhaseSpec(n, theta),
                                   np.abs(a))
        return
    pf = radial.first_integral(adm.profile, beta)
    assert pf.prof is adm.profile
    assert pf.prof.m == adm.m and pf.beta == beta
    assert pf.prof.spec.theta == theta
    assert pf.prof.a.tobytes() == np.sort(np.abs(a)).tobytes()


def test_level_edge_points_solve(tmp_path):
    # level points |H - theta| = 9e-11 from theta = pi that classify
    # admits, whose root 1 moves by up to 2.3e-8: the checks read the pair
    # shifted to 1 with den(1) dropped, so they pass
    for a in ("10.0,10.0,0.20202020211387478",
              "100.0,100.0,0.02000200010998367",
              "1000.0,1000.0,0.002000002090002129"):
        path = tmp_path / "solve.json"
        code = cli.main(["solve", "--a", a, "--n", "3", "--theta",
                         repr(math.pi), "--grid", "4", "--out", str(path)])
        report = json.loads(path.read_text())
        assert report["admissibility"]["klass"] == "admissible"
        assert code == 0 and report["passed"] is True, a


EDGE_SPEC = phasepoly.PhaseSpec(3, math.pi)
# |H - theta| = 9e-11: the root 1 moves by 2.3e-8, since H'(1) is 0.004
EDGE_A = np.array([0.002000002090002129, 1000.0, 1000.0])


def test_root_check_rejects_a_ray_root_above_one(monkeypatch):
    # off the level set the shift drops den(1), so the level edge point,
    # whose root 1 moves by 2.3e-8, passes the sign test; a ray polynomial
    # with a root above 1, or a double root at 1 (a shifted coefficient at
    # 0), fails it
    prof = oracles.profile(EDGE_SPEC, EDGE_A)
    assert abs(phasepoly.phase(EDGE_A) - math.pi) > 8e-11
    assert radial.first_integral(prof, 2.0).prof is prof
    num = radial._slope_pair(PF3_PROFILE)[0]
    for den in ([1.2, -2.2, 1.0], [1.0, -2.0, 1.0]):
        monkeypatch.setattr(radial, "_slope_pair",
                            lambda prof, den=den: (num, np.array(den)))
        with pytest.raises(ValueError, match="root certification failed"):
            radial.first_integral(PF3_PROFILE, 2.0)


@pytest.mark.parametrize("a, scale", [
    # an exact level point and the level edge point: m and D(0)/N(0) are
    # both den'(1)/num(1), so they agree to rounding whatever the phase
    # error; num off by 1e-8 or 1e-6 moves the residue past the bound 1e-10
    (weights.complete_to_phase([1000.0, 1000.0], EDGE_SPEC), 1e-8),
    (EDGE_A, 1e-6),
])
def test_residue_check_bounds_the_shift_rounding(monkeypatch, a, scale):
    pf = radial.first_integral(oracles.profile(EDGE_SPEC, a), 2.0)
    assert abs(pf.n_coeffs[0] * pf.prof.m / pf.d_coeffs[0] - 1.0) < 1e-13
    slope_pair = radial._slope_pair

    def off_by_scale(prof):
        num, den = slope_pair(prof)
        return num * (1.0 + scale), den

    monkeypatch.setattr(radial, "_slope_pair", off_by_scale)
    with pytest.raises(ValueError, match="residue at 1 disagrees"):
        radial.first_integral(oracles.profile(EDGE_SPEC, a), 2.0)


def test_tail_amplitude_and_slope_bit_identical():
    # C is exp(log C), and the slope polyval's -den/num
    rng = np.random.default_rng(92)
    for n in range(3, 13):
        spec, a = admissible_point(rng, n)
        prof = oracles.profile(spec, a)
        pf = radial.first_integral(prof, 2.0)
        num, den = radial._slope_pair(prof)
        for nu in (1.0, 1.0 + 1e-13, 1.7, 42.0, 1e6):
            pf = replace(pf, beta=nu)
            assert radial.tail_amplitude(pf) == math.exp(pf.log_amplitude)
            assert pf.slope(nu) == \
                -float(npoly.polyval(nu, den)) / float(npoly.polyval(nu, num))


def test_numeric_route_bit_identical_to_polyval_rhs():
    # the integrator driven by the polyval right-hand side gives the route's
    # own bits; against scipy's DOP853 the excess agrees to 1e-10 relative
    rng = np.random.default_rng(93)
    for n in (3, 5, 8, 12):
        spec, a = admissible_point(rng, n)
        beta = float(rng.uniform(1.5, 4.0))
        rs = sample_radii()
        expect = np.exp(radial._dormand_prince(
            oracle_rhs(spec, a), math.log(beta - 1.0), np.log(rs).tolist(),
            1e-12, 0.1 * 1e-12))
        pf = radial.first_integral(oracles.profile(spec, a), beta)
        sol = radial.solve_profile(pf, route="numeric")
        assert np.array_equal(sol.excess, expect)
        scipy_excess = oracle_dop853(spec, a, beta)
        assert np.max(np.abs(sol.excess - scipy_excess) / scipy_excess) \
            <= 1e-10


def test_excess_integrals_match_quad_oracle():
    # mu at R = 1 and 10 against quad over the oracle's log r, with no
    # cutoff in r; the radial value against mu(gamma) - mu(r)
    rng = np.random.default_rng(97)
    for n in (3, 5, 8, 12):
        spec, a = admissible_point(rng, n)
        beta = float(rng.uniform(1.5, 4.0))
        pf = radial.first_integral(oracles.profile(spec, a), beta)
        for R in (1.0, 10.0):
            expect = oracle_mu(pf, beta, R)
            got = radial.tail_integral(pf, (R,))[0]
            assert abs(got - expect) <= 1e-10 * abs(expect), (n, R)
        mu_gamma = oracle_mu(pf, beta, 1.3)
        for r in (1.3 + 1e-9, 2.0, 40.0):
            quadratic = 0.5 + 0.5 * (r * r - 1.3 ** 2)
            expect = quadratic + mu_gamma - oracle_mu(pf, beta, r)
            got = oracles.radial_value(pf, 0.5, 1.3, r)
            assert abs(got - expect) <= 1e-10 * abs(expect), (n, r)


def test_tail_integral_at_beta_1e6_matches_a_far_cutoff():
    # solve --family iso --n 12 --theta 16.008 --beta 1e6 reported
    # mu = 7.69e39 when the tail integral stopped at the fixed cutoff
    # r = 1e3; the iso first integral gives 4.41376503e11
    spec = phasepoly.PhaseSpec(12, 16.008)
    a = weights.iso_point(spec)
    pf = radial.first_integral(oracles.profile(spec, a), 1.0e6)
    _excess, mu, _log_amp = oracles.iso_first_integral(12, float(a[0]), 1e6,
                                                       dps=30)
    expect = float(mu(1.0))
    assert expect == pytest.approx(4.41376503e11, rel=1e-8)
    got = radial.tail_integral(pf, (1.0,))[0]
    assert abs(got - expect) <= 1e-6 * abs(expect)


@pytest.mark.parametrize("n,theta,beta", [
    (n, (n - 2) * math.pi / 2, 2.0) for n in range(3, 13)]
    + LARGE_EIGENVALUE_CASES)
def test_route_gap_within_1e_10(n, theta, beta):
    # the numeric route steps onto every sample radius, so the routes agree
    # far inside acceptance criterion 5's 1e-8
    spec = phasepoly.PhaseSpec(n, theta)
    a = weights.iso_point(spec)
    pf = radial.first_integral(oracles.profile(spec, a), beta)
    sn = radial.solve_profile(pf, route="numeric")
    si = radial.solve_profile(pf, route="implicit")
    assert np.max(np.abs(sn.psi - si.psi)) <= 1e-10


@pytest.mark.parametrize("kind", ["critical", "supercritical"])
@pytest.mark.parametrize("n", list(range(3, 65)) + [72, 80, 100, 120])
def test_iso_solve_passes_up_to_dimension_64(tmp_path, n, kind):
    # regression cases: critical n = 37 and n = 39, where companion-matrix
    # roots failed certification, and n = 72 to 120, where the residue
    # route parted from the numeric one by 1.9e-8 to 1e8
    theta = "critical" if kind == "critical" else repr((n - 1) * math.pi / 2)
    path = tmp_path / "solve.json"
    code = cli.main(["solve", "--family", "iso", "--n", str(n),
                     f"--theta={theta}", "--grid", "4", "--out", str(path)])
    report = json.loads(path.read_text())
    assert code == 0 and report["passed"] is True
    assert report["route_gap_max"] <= 1e-8


def test_route_gap_random_points_up_to_dimension_32():
    # random level points (not iso) keep criterion 5's 1e-8 up to
    # n = 120 on the first integral; the residue route kept it to n = 56
    # only, and was off by 1.1e8 at n = 120
    rng = np.random.default_rng(2032)
    for n in (16, 20, 24, 28, 32, 40, 48, 56, 64, 120):
        for _ in range(2):
            spec, a = admissible_point(rng, n)
            pf = radial.first_integral(oracles.profile(spec, a), 2.0)
            sn = radial.solve_profile(pf, route="numeric")
            si = radial.solve_profile(pf, route="implicit")
            assert np.max(np.abs(sn.psi - si.psi)) <= 1e-8, (n, spec.theta)


def test_dormand_prince_failures():
    with pytest.raises(RuntimeError, match="integration failed"):
        radial._dormand_prince(lambda y: float("nan"), 0.0, [0.0, 1.0],
                               1e-12, 1e-13)
    # a blow-up y' = y^2 from y = 1 cannot pass s = 1: the step collapses
    with pytest.raises(RuntimeError, match="integration failed"):
        radial._dormand_prince(lambda y: y * y, 1.0, [0.0, 2.0], 1e-12, 1e-13)
    # y' = -y lands on every output point
    s_out = [0.0, 0.5, 1.0, 3.0]
    ys = radial._dormand_prince(lambda y: -y, 1.0, s_out, 1e-12, 1e-13)
    assert ys[0] == 1.0
    assert np.allclose(ys, np.exp(-np.array(s_out)), rtol=1e-10, atol=0.0)


# ------------------------------------------- the iso first-integral oracle
#
# oracles.iso_first_integral is the exact profile of an iso problem: no
# roots, residues or ODE solver.  Both routes, mu and log C are held to it.

ISO_ORACLE_DIMENSIONS = (3, 5, 12, 32, 64, 100, 130, 150)


def iso_problem(n, kind, beta=2.0):
    """(a, pf) of the iso point at the critical angle or at (n - 1) pi/2."""
    theta = (n - 2 if kind == "critical" else n - 1) * math.pi / 2
    spec = phasepoly.PhaseSpec(n, theta)
    a = weights.iso_point(spec)
    return a, radial.first_integral(oracles.profile(spec, a), beta)


def assert_iso_route_matches_the_oracle(n, kind, route, rtol):
    # every 24th sample radius; where the exact excess leaves the normal
    # float range the route's excess must be below it too
    if (n, kind) == (150, "supercritical"):
        # the ray polynomial of degree 150 shifted to 1 overflows (ROADMAP
        # item 6, the supported dimension)
        with pytest.raises(ValueError, match="ray polynomial shifted to 1 "
                                             "leaves the float range"):
            iso_problem(n, kind)
        return
    a, pf = iso_problem(n, kind)
    sol = radial.solve_profile(pf, route=route)
    excess, _mu, _log_amp = oracles.iso_first_integral(n, float(a[0]), 2.0)
    for r, got in zip(sol.r[::24].tolist(), sol.excess[::24].tolist()):
        expect = float(excess(r, start=got))
        if expect < 1e-290:
            assert got < 1e-280, (n, kind, route, r)
        else:
            assert abs(got - expect) <= rtol * expect, (n, kind, route, r)


@pytest.mark.parametrize("kind", ["critical", "supercritical"])
@pytest.mark.parametrize("n", ISO_ORACLE_DIMENSIONS)
def test_iso_numeric_route_matches_the_first_integral(n, kind):
    assert_iso_route_matches_the_oracle(n, kind, "numeric", 1e-10)


@pytest.mark.parametrize("kind", ["critical", "supercritical"])
@pytest.mark.parametrize("n", ISO_ORACLE_DIMENSIONS)
def test_iso_implicit_route_matches_the_first_integral(n, kind):
    assert_iso_route_matches_the_oracle(n, kind, "implicit", 1e-10)


@pytest.mark.parametrize("n, theta, beta", [
    (n, theta, beta)
    for n, theta in ((3, math.pi / 2), (5, 3 * math.pi / 2), (12, 16.008))
    for beta in (2.0, 1e3, 1e6)])
def test_mu_matches_the_first_integral(n, theta, beta):
    # mu at gamma = 1 and at 10 gamma, as solve reports them.  At the
    # critical angle and beta = 1e6 the two differ by up to 3.4e-11: the
    # oracle's theta = n arctan(t) leaves a top coefficient of 1e-17 that
    # the program's snapped critical coefficients set to 0
    spec = phasepoly.PhaseSpec(n, theta)
    a = weights.iso_point(spec)
    pf = radial.first_integral(oracles.profile(spec, a), beta)
    _excess, mu, _log_amp = oracles.iso_first_integral(n, float(a[0]), beta,
                                                       dps=30)
    for R, got in zip((1.0, 10.0), radial.tail_integral(pf, (1.0, 10.0))):
        expect = float(mu(R))
        assert abs(got - expect) <= 1e-9 * expect, (R, got, expect)


@pytest.mark.parametrize("kind", ["critical", "supercritical"])
@pytest.mark.parametrize("n", [3, 5, 12, 32, 64, 100, 130])
def test_log_amplitude_matches_the_exact_iso_value(n, kind):
    # log C, C the limit of (psi - 1) r^n, against log Q(beta - 1) - log c_1
    a, pf = iso_problem(n, kind)
    _excess, _mu, log_amp = oracles.iso_first_integral(n, float(a[0]), 2.0)
    assert abs(pf.log_amplitude - float(log_amp)) \
        <= 1e-11 * max(1.0, abs(float(log_amp)))
