"""Tests for the radial profile equation and its two solution routes."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from slex import phasepoly, radial, subsol, weights


SQRT3 = math.sqrt(3.0)
SPEC3 = phasepoly.PhaseSpec(3, math.pi / 2)
A3 = np.full(3, 1.0 / SQRT3)


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
    assert radial.slope_field(SPEC3, A3, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert radial.slope_field(SPEC3, A3, 2.0) == pytest.approx(-9.0 / 4.0,
                                                               rel=1e-12)
    for nu in (1.5, 3.0, 10.0):
        assert radial.slope_field(SPEC3, A3, nu) < 0.0


def test_slope_field_derivative_at_one_is_minus_m():
    rng = np.random.default_rng(61)
    for _ in range(15):
        spec, a, m = admissible_sample(rng)
        h = 1e-6
        fd = (radial.slope_field(spec, a, 1.0 + h)
              - radial.slope_field(spec, a, 1.0 - h)) / (2 * h)
        assert fd == pytest.approx(-m, rel=1e-5)
        assert radial.slope_field_deriv(spec, a, 1.0) == \
            pytest.approx(-m, rel=1e-9)
        assert -spec.n - 1e-9 <= -m < -2.0


def test_slope_field_limit_slope_band():
    rng = np.random.default_rng(62)
    for _ in range(15):
        spec, a, _m = admissible_sample(rng)
        n = spec.n
        limit = radial.slope_field_deriv(spec, a, 1.0e9)
        assert -(n / (n - 1.0)) * (1.0 + 1e-6) <= limit <= -(1.0 - 1e-6)


def test_slope_field_denominator_guard():
    with pytest.raises(ValueError):
        radial.slope_field(SPEC3, A3, 0.0)
    with pytest.raises(ValueError):
        radial.slope_field(SPEC3, A3, -1.0)


def test_partial_fractions_closed_case():
    pf = radial.partial_fractions(SPEC3, A3)
    assert pf.m == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(pf.roots, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(pf.weights, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert pf.roots[-1] == 1.0


def test_partial_fractions_residues_recombine():
    rng = np.random.default_rng(63)
    for _ in range(15):
        spec, a, m = admissible_sample(rng)
        pf = radial.partial_fractions(spec, a)
        assert pf.weights[-1] == pytest.approx(1.0 / m, abs=1e-10)
        num, den = radial._poly_pair(spec, a)
        from numpy.polynomial import polynomial as npoly
        for nu in (1.37, 2.0, 5.0, 9.3):
            direct = npoly.polyval(nu, num) / npoly.polyval(nu, den)
            recombined = float(np.sum(pf.weights / (nu - pf.roots)))
            assert recombined == pytest.approx(direct, rel=1e-9)


def test_poly_pair_and_m_from_one_weight_profile_bitwise():
    # den, built from the profile's sigma row, is ray_poly's own array, and
    # the analysis' m is the decay exponent's
    rng = np.random.default_rng(64)
    for n in range(3, 13):
        spec, a = admissible_point(rng, n)
        num, den = radial._poly_pair(spec, a)
        assert den.tobytes() == phasepoly.ray_poly(spec, a).tobytes()
        pf = radial.partial_fractions(spec, a)
        assert pf.m == weights.decay_exponent(spec, a)
        assert pf.num == tuple(num.tolist())
        assert pf.den == tuple(den.tolist())


def test_partial_fractions_requires_level_membership():
    with pytest.raises(ValueError, match="a not on the phase level set"):
        radial.partial_fractions(SPEC3, np.array([1.0, 2.0, 3.0]))


def test_profile_implicit_closed_case_values():
    assert radial.profile_implicit(SPEC3, A3, 2.0, 1.0) == \
        pytest.approx(2.0, abs=1e-12)
    assert radial.profile_implicit(SPEC3, A3, 1.0, 57.0) == 1.0
    assert radial.profile_implicit(SPEC3, A3, 2.0, 2.0) == \
        pytest.approx(math.sqrt(11.0 / 8.0), abs=1e-12)
    assert radial.profile_implicit(SPEC3, A3, 2.0, 10.0) == \
        pytest.approx(math.sqrt(1.0 + 3.0e-3), abs=1e-12)


def test_both_routes_match_closed_form():
    rs = np.geomspace(1.0, 1.0e4, 50)
    for beta in (1.5, 2.0, 10.0):
        expect = 1.0 + closed_excess(rs, beta)
        for route in ("numeric", "implicit"):
            sol = radial.solve_profile(SPEC3, A3, beta, route=route,
                                       num_samples=50)
            assert np.allclose(sol.r, rs)
            assert np.max(np.abs(sol.psi - expect)) <= 1e-8


def test_routes_agree_on_random_admissible_cases():
    rng = np.random.default_rng(64)
    for _ in range(8):
        spec, a, _m = admissible_sample(rng)
        beta = float(rng.uniform(1.1, 10.0))
        sn = radial.solve_profile(spec, a, beta, route="numeric")
        si = radial.solve_profile(spec, a, beta, route="implicit")
        assert np.max(np.abs(sn.psi - si.psi)) <= 1e-8
        # squeeze and slope-decay invariants on the numeric trajectory
        assert np.all(sn.psi[1:] < beta)
        assert np.all(sn.psi >= 1.0)
        assert abs(radial.slope_field(spec, a, float(sn.psi[-1]))) < 1e-3
        count_checked = True
    assert count_checked


def test_profile_monotone_in_beta():
    rng = np.random.default_rng(65)
    spec, a, _m = admissible_sample(rng)
    betas = (1.5, 2.5, 4.0, 9.0)
    sols = [radial.solve_profile(spec, a, b, route="implicit")
            for b in betas]
    for lo, hi in zip(sols, sols[1:]):
        assert np.all(hi.psi[1:] > lo.psi[1:])
        assert hi.psi[0] > lo.psi[0]


def test_profile_solution_invariants():
    sol = radial.solve_profile(SPEC3, A3, 2.0, route="numeric")
    assert sol.r[0] == 1.0
    assert sol.psi[0] == pytest.approx(2.0, rel=1e-12)
    assert np.all(np.diff(sol.r) > 0)
    assert np.all(np.diff(sol.psi) <= 1e-9 * sol.excess[:-1] + 1e-300)
    assert np.all(sol.excess >= 0.0)
    assert np.all(sol.psi <= 2.0 * (1.0 + 1e-9))


def test_solve_profile_validates_inputs():
    with pytest.raises(ValueError):
        radial.solve_profile(SPEC3, A3, 0.5)
    with pytest.raises(ValueError):
        radial.solve_profile(SPEC3, A3, 2.0, r_max=0.5)
    with pytest.raises(ValueError):
        radial.solve_profile(SPEC3, A3, 2.0, route="magic")
    with pytest.raises(ValueError):
        radial.solve_profile(SPEC3, A3, 2.0e6)


def test_beta_warning_threshold():
    with pytest.warns(RuntimeWarning):
        radial.solve_profile(SPEC3, A3, 2.0e3, route="implicit")


def test_tail_amplitude_closed_case():
    pf = radial.partial_fractions(SPEC3, A3)
    # B(nu) = nu + 1: amplitude (beta-1)B(beta)/B(1)
    assert radial.tail_amplitude(pf, 2.0) == pytest.approx(1.5, rel=1e-12)
    assert radial.tail_amplitude(pf, 10.0) == pytest.approx(49.5, rel=1e-12)
    assert radial.tail_amplitude(pf, 1.0) == 0.0


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
    val = radial.tail_integral(SPEC3, A3, 2.0, 10.0)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_tail_integral_properties():
    assert radial.tail_integral(SPEC3, A3, 1.0, 5.0) == 0.0
    assert radial.tail_integral(SPEC3, A3, 2.0, 3.0) < \
        radial.tail_integral(SPEC3, A3, 3.0, 3.0)
    with pytest.raises(ValueError, match="integral may diverge"):
        spec = phasepoly.PhaseSpec(5, 5 * math.pi / 3)
        radial.tail_integral(spec, weights.epsilon_family(math.pi / 12),
                             2.0, 5.0)


def test_non_finite_and_overflowing_inputs_rejected():
    with pytest.raises(ValueError, match="beta must be finite"):
        radial.solve_profile(SPEC3, A3, float("nan"))
    with pytest.raises(ValueError, match="r_max must be finite"):
        radial.solve_profile(SPEC3, A3, 2.0, r_max=float("nan"))
    with pytest.raises(ValueError, match="r_max must be finite"):
        radial.solve_profile(SPEC3, A3, 2.0, r_max=float("inf"))
    with pytest.raises(ValueError, match="R must be at least 1"):
        radial.tail_integral(SPEC3, A3, 2.0, float("nan"))
    with pytest.raises(ValueError, match="beta must be finite"):
        radial.tail_amplitude(radial.partial_fractions(SPEC3, A3),
                              float("nan"))
    # tau^2 at the quadrature cutoff 100 R would overflow a float
    with pytest.raises(ValueError, match="R too large"):
        radial.tail_integral(SPEC3, A3, 2.0, 1e300)


def test_tail_integral_scaling_in_cutoff():
    # mu_R * R^(m-2) stabilizes: the ratio across R in [1e2, 1e4] moves
    # by less than 10%
    vals = []
    for R in (1.0e2, 1.0e3, 1.0e4):
        vals.append(radial.tail_integral(SPEC3, A3, 2.0, R) * R ** (3.0 - 2.0))
    assert max(vals) / min(vals) < 1.10


def test_decay_fit_closed_case():
    sol = radial.solve_profile(SPEC3, A3, 2.0, route="implicit")
    m_est, amp_est = radial.decay_fit(sol)
    assert m_est == pytest.approx(3.0, rel=2e-2)
    assert amp_est == pytest.approx(1.5, rel=5e-2)
    sol10 = radial.solve_profile(SPEC3, A3, 10.0, route="implicit")
    m10, amp10 = radial.decay_fit(sol10)
    assert m10 == pytest.approx(3.0, rel=2e-2)
    assert amp10 == pytest.approx(49.5, rel=5e-2)


def test_decay_fit_iso_recovers_dimension():
    for n in (3, 4, 5):
        theta = 0.85 * n * math.pi / 2
        spec = phasepoly.PhaseSpec(n, theta)
        a = weights.iso_point(spec)
        sol = radial.solve_profile(spec, a, 2.0, route="numeric")
        m_est, _amp = radial.decay_fit(sol)
        assert m_est == pytest.approx(n, rel=2e-2)


def test_decay_fit_requires_decaying_tail():
    with pytest.raises(ValueError):
        radial.decay_fit(radial.solve_profile(SPEC3, A3, 1.0))
    with pytest.raises(ValueError):
        radial.decay_fit(radial.solve_profile(SPEC3, A3, 2.0, r_max=100.0))


# ------------------------------------------------------------- oracles
#
# The routes run on precomputed Python-float data.  The oracles below are
# the plain formulas: numpy-scalar residues and coefficient arrays, with
# every constant recomputed on each call, solved by scipy's brentq,
# DOP853 and quad.  Where the arithmetic is the same (log B, the slope,
# the integrator under a polyval right-hand side) the comparison is exact;
# against scipy's solvers it is to a tolerance.

# iso (n, theta, beta) whose eigenvalues, or whose beta, are large
LARGE_EIGENVALUE_CASES = [(8, 11.0, 2.0), (12, 17.0, 2.0), (20, 30.0, 2.0),
                          (4, 3.6, 2000.0), (6, 7.0, 50.0)]


def admissible_point(rng, n):
    """A random admissible level-set point of dimension n (3..12 here)."""
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


def oracle_log_b(pf, nu):
    total = 0.0
    for root, k in zip(pf.roots[:-1], pf.weights[:-1]):
        total += pf.m * k * math.log(nu - root)
    return total


def oracle_excess(pf, beta, r):
    if beta == 1.0:
        return 0.0
    target = math.log(beta - 1.0) + oracle_log_b(pf, beta) \
        - pf.m * math.log(r)
    u_hi = math.log(beta - 1.0)
    if r == 1.0:
        return beta - 1.0

    def gap(u):
        return u + oracle_log_b(pf, 1.0 + math.exp(u)) - target

    u_lo = min(target - oracle_log_b(pf, 1.0), u_hi - 1.0)
    while gap(u_lo) > 0.0:
        u_lo -= 2.0
    return math.exp(brentq(gap, u_lo, u_hi, xtol=1e-14,
                           rtol=4 * np.finfo(float).eps))


def oracle_rhs(spec, a):
    """The numeric route's right-hand side on npoly.polyval arrays."""
    num, den = radial._poly_pair(spec, a)
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


def oracle_excess_integral(pf, beta, r_lo, r_hi):
    """int_{r_lo}^{r_hi} tau * excess by quad over the brentq oracle."""
    def integrand(s):
        return math.exp(2.0 * s) * oracle_excess(pf, beta, math.exp(s))

    body, _err = quad(integrand, math.log(r_lo), math.log(r_hi),
                      epsabs=1e-14, epsrel=1e-12, limit=400)
    return body


def test_implicit_excess_matches_brentq_oracle():
    rng = np.random.default_rng(91)
    radii = np.concatenate(([1.0, 1.0 + 1e-12], np.geomspace(1.001, 1e5, 12),
                            rng.uniform(1.0, 1e5, 4)))
    for n in range(3, 13):
        spec, a = admissible_point(rng, n)
        pf = radial.partial_fractions(spec, a)
        for beta in (1.0, 1.01, 2.0, float(rng.uniform(1.5, 50.0)), 900.0):
            got = pf.excess_at(beta, radii)
            assert got.shape == radii.shape
            for r, value in zip(radii.tolist(), got.tolist()):
                expect = oracle_excess(pf, beta, r)
                if r == 1.0 or beta == 1.0:
                    assert value == expect, (n, beta, r)
                else:
                    assert abs(value - expect) <= 1e-13 * expect, (n, beta, r)
                # one radius alone gives the same bits as in the batch
                assert float(pf.excess_at(beta, r)) == value


def crafted_analysis(roots, mks, m=3.0):
    """A PartialFractions with hand-made sub-unit terms (root_j, m K_j)."""
    return radial.PartialFractions(
        spec=SPEC3, a=A3, roots=np.array(list(roots) + [1.0]),
        weights=np.array([k / m for k in mks] + [1.0 / m]), m=m,
        num=(1.0,), den=(1.0,))


def test_excess_at_safeguards_newton():
    # residues of both signs: F' is about 1 on both sides of a steep middle,
    # where plain Newton from log(beta - 1) overshoots and never settles;
    # and a nearly flat F (F' down to 0.01), where Newton cycles between
    # two floats at rounding level (so the tolerance is wider)
    cases = [(crafted_analysis([0.9, 1.0 - 1e-4], [-20.0, 20.0]),
              (1.5, 10.0, 1e3), np.geomspace(1.0, 1e8, 200), 1e-13),
             (crafted_analysis([0.99], [-0.99]), (1.5,),
              np.geomspace(1.0, 1e6, 60), 1e-11)]
    for pf, betas, radii, tol in cases:
        for beta in betas:
            got = pf.excess_at(beta, radii)
            for r, value in zip(radii.tolist(), got.tolist()):
                expect = oracle_excess(pf, beta, r)
                assert abs(value - expect) <= tol * expect, (beta, r)


def test_excess_at_validates_radii():
    pf = radial.partial_fractions(SPEC3, A3)
    for bad in (0.5, float("nan"), [2.0, 0.999]):
        with pytest.raises(ValueError, match="r must be at least 1"):
            pf.excess_at(2.0, bad)
    grid = np.geomspace(1.0, 50.0, 6).reshape(2, 3)
    assert np.array_equal(pf.excess_at(2.0, grid),
                          pf.excess_at(2.0, grid.ravel()).reshape(2, 3))


def test_log_b_terms_and_slope_bit_identical():
    rng = np.random.default_rng(92)
    for n in range(3, 13):
        spec, a = admissible_point(rng, n)
        pf = radial.partial_fractions(spec, a)
        num, den = radial._poly_pair(spec, a)
        for nu in (1.0, 1.0 + 1e-13, 1.7, 42.0, 1e6):
            assert radial.tail_amplitude(pf, nu) == \
                (nu - 1.0) * math.exp(oracle_log_b(pf, nu)
                                      - oracle_log_b(pf, 1.0))
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
        pf = radial.partial_fractions(spec, a)
        for shared in (None, pf):
            sol = radial.solve_profile(spec, a, beta, route="numeric",
                                       pf=shared)
            assert np.array_equal(sol.excess, expect)
        scipy_excess = oracle_dop853(spec, a, beta)
        assert np.max(np.abs(sol.excess - scipy_excess) / scipy_excess) \
            <= 1e-10


def test_excess_integrals_match_quad_oracle():
    rng = np.random.default_rng(97)
    for n in (3, 5, 8, 12):
        spec, a = admissible_point(rng, n)
        pf = radial.partial_fractions(spec, a)
        beta = float(rng.uniform(1.5, 4.0))
        for R in (1.0, 10.0):
            r_cut = max(1.0e3, 1.0e2 * R)
            tail = radial.tail_amplitude(pf, beta) * r_cut ** (2.0 - pf.m) \
                / (pf.m - 2.0)
            expect = oracle_excess_integral(pf, beta, R, r_cut) + tail
            got = radial.tail_integral(spec, a, beta, R, pf=pf)
            assert abs(got - expect) <= 1e-10 * abs(expect), (n, R)
        sspec = subsol.SubsolutionSpec(alpha=0.5, beta=beta, gamma=1.3,
                                       diag=a, theta=spec.theta, pf=pf)
        for r in (1.3 + 1e-9, 2.0, 40.0):
            quadratic = 0.5 + 0.5 * (r * r - 1.3 ** 2)
            expect = quadratic + oracle_excess_integral(pf, beta, 1.3, r)
            got = subsol.radial_value(sspec, r)
            assert abs(got - expect) <= 1e-10 * abs(expect), (n, r)


@pytest.mark.parametrize("n,theta,beta", [
    (n, (n - 2) * math.pi / 2, 2.0) for n in range(3, 13)]
    + LARGE_EIGENVALUE_CASES)
def test_route_gap_within_1e_10(n, theta, beta):
    # the numeric route steps onto every sample radius, so the routes agree
    # far inside acceptance criterion 5's 1e-8
    spec = phasepoly.PhaseSpec(n, theta)
    a = weights.iso_point(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # beta above 1e3
        pf = radial.partial_fractions(spec, a)
        sn = radial.solve_profile(spec, a, beta, route="numeric", pf=pf)
        si = radial.solve_profile(spec, a, beta, route="implicit", pf=pf)
    assert np.max(np.abs(sn.psi - si.psi)) <= 1e-10


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


def test_shared_analysis_gives_identical_results():
    rng = np.random.default_rng(94)
    for n in (3, 6, 9, 12):
        spec, a = admissible_point(rng, n)
        beta = float(rng.uniform(1.5, 4.0))
        pf = radial.partial_fractions(spec, a)
        for route in ("numeric", "implicit"):
            fresh = radial.solve_profile(spec, a, beta, route=route)
            shared = radial.solve_profile(spec, a, beta, route=route, pf=pf)
            assert np.array_equal(fresh.excess, shared.excess)
            assert fresh.m == shared.m
        for R in (1.0, 10.0):
            assert radial.tail_integral(spec, a, beta, R) == \
                radial.tail_integral(spec, a, beta, R, pf=pf)
        assert np.array_equal(radial.profile_implicit(spec, a, beta, 7.5),
                              radial.profile_implicit(spec, a, beta, 7.5,
                                                      pf=pf))


def test_analysis_of_another_problem_rejected():
    pf = radial.partial_fractions(SPEC3, A3)
    spec4 = phasepoly.PhaseSpec(4, 3.6)
    a4 = weights.iso_point(spec4)
    for route in ("numeric", "implicit"):
        with pytest.raises(ValueError, match="another problem"):
            radial.solve_profile(spec4, a4, 2.0, route=route, pf=pf)
    with pytest.raises(ValueError, match="another problem"):
        radial.tail_integral(spec4, a4, 2.0, 1.0, pf=pf)
    # the same problem with its entries in another order is accepted
    rng = np.random.default_rng(95)
    spec, a = admissible_point(rng, 5)
    pf5 = radial.partial_fractions(spec, a)
    radial.profile_implicit(spec, a[::-1], 2.0, 3.0, pf=pf5)
