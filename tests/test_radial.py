"""Tests for the radial profile equation and its two solution routes."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from slex import phasepoly, radial, weights


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
