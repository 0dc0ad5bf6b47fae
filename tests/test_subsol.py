"""Tests for generalized radially symmetric functions and verification."""

import math

import numpy as np
import pytest

import oracles
from slex import cli, phasepoly, radial, subsol, symfun, weights


SQRT3 = math.sqrt(3.0)
A3 = np.full(3, 1.0 / SQRT3)
# the bounds the solve verdict, cli.GATES, sets on the grid's minima
BOUND = {name: bound for name, *_gate, bound in cli.GATES}


def candidate(a, theta, beta=2.0):
    """The problem (theta, a) at beta, as radial.first_integral binds
    it: the one input of verify_subsolution besides the shells' Inversion."""
    return radial.first_integral(
        oracles.profile(phasepoly.PhaseSpec(len(a), theta), a), beta)


def closed_pf(beta=2.0):
    return candidate(A3, math.pi / 2, beta=beta)


def grid(pf, gamma, shells):
    """verify_subsolution on shell_radii(gamma, shells), reading their
    Inversion as solve does."""
    return subsol.verify_subsolution(
        pf, *radial.invert(pf, subsol.shell_radii(gamma, shells)))


def clears(rep):
    """Whether both minima of a VerificationReport clear their bounds."""
    return (rep.min_phase_gap >= BOUND["phase"]
            and rep.min_level_value >= BOUND["level"])


def tail(pf, radii):
    """tail_integral at radii, read off their Inversion."""
    return radial.tail_integral(pf, *radial.invert(pf, radii))


def test_subsolution_spec_validation():
    # a candidate is (pf, alpha, gamma): the problem and beta live on the
    # analysis only, which refers to the profile classify built
    pf = closed_pf()
    assert (pf.prof.spec.n, pf.prof.spec.theta) == (3, math.pi / 2)
    for name in ("alpha", "gamma", "diag", "theta", "spec", "a", "m"):
        assert not hasattr(pf, name)
    # an off-level vector has no analysis
    assert weights.classify(phasepoly.PhaseSpec(3, math.pi / 2),
                            np.array([1.0, 2.0, 3.0])).profile is None
    # slow decay: classify does not admit it, as its tail integral, which
    # the candidate's constant needs, diverges
    eps = weights.epsilon_family(math.pi / 12)
    adm = weights.classify(phasepoly.PhaseSpec(5, 5 * math.pi / 3), eps)
    assert adm.klass == "slow_decay"


def test_ellipsoid_radius():
    rng = np.random.default_rng(71)
    x = rng.standard_normal(4)
    assert oracles.ellipsoid_radius(np.ones(4), x) == \
        pytest.approx(float(np.linalg.norm(x)), rel=1e-14)
    assert oracles.ellipsoid_radius(np.array([4.0, 1.0, 1.0]),
                                    np.array([1.0, 0.0, 0.0])) == 2.0
    for t in (-3.0, 0.5, 2.0):
        assert oracles.ellipsoid_radius(np.array([4.0, 1.0, 1.0]),
                                        t * np.array([1.0, 2.0, 0.3])) == \
            pytest.approx(abs(t) * oracles.ellipsoid_radius(
                np.array([4.0, 1.0, 1.0]), np.array([1.0, 2.0, 0.3])),
                rel=1e-14)


def test_radial_value_boundary_and_quadratic_case():
    pf = closed_pf(beta=1.0)
    assert oracles.radial_value(pf, 2.0, 1.5, 1.5) == \
        pytest.approx(2.0, abs=1e-14)
    for r in (1.5, 2.0, 10.0):
        assert oracles.radial_value(pf, 2.0, 1.5, r) == \
            pytest.approx(2.0 + (r * r - 1.5 ** 2) / 2.0, rel=1e-12)


def test_radial_value_increasing_and_superquadratic():
    pf = closed_pf(beta=2.0)
    rs = np.linspace(1.0, 8.0, 30)
    vals = [oracles.radial_value(pf, 0.0, 1.0, float(r)) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # psi >= 1 makes phi grow at least quadratically
    for r, v in zip(rs[1:], vals[1:]):
        assert v >= (r * r - 1.0) / 2.0 - 1e-12


def test_radial_value_asymptote():
    # phi(r) - r^2/2 climbs to mu_gamma + alpha - gamma^2/2, and the
    # shortfall at finite r is exactly the remaining tail integral
    pf = closed_pf(beta=2.0)
    mu_gamma = tail(pf, (1.0,))[0]
    limit = mu_gamma + 0.0 - 0.5
    for r in (1.0e3, 1.0e4):
        gap = oracles.radial_value(pf, 0.0, 1.0, r) - r * r / 2.0
        mu_r = tail(pf, (r,))[0]
        assert gap < limit
        assert gap + mu_r == pytest.approx(limit, rel=1e-9)


def test_hessian_identity_case():
    pf = closed_pf(beta=1.0)
    x = np.array([1.3, -0.4, 0.8])
    assert np.allclose(oracles.hessian(pf, x), np.diag(A3), atol=1e-14)


def test_hessian_structure_and_limit():
    pf = closed_pf(beta=2.0)
    x = np.array([2.0, 1.0, 0.5])
    h = oracles.hessian(pf, x)
    assert np.allclose(h, h.T, atol=0.0)
    r = oracles.ellipsoid_radius(A3, x)
    psi, dpsi = oracles.profile_at(pf, r)
    expect = psi * np.diag(A3) + (dpsi / r) * np.outer(A3 * x, A3 * x)
    assert np.allclose(h, expect, rtol=1e-12, atol=1e-15)
    # far along a ray the hessian approaches diag(a)
    far = oracles.hessian(pf, 1.0e5 * x)
    assert np.max(np.abs(far - np.diag(A3))) < 1e-9


def test_hessian_sigma_identity_case():
    pf = closed_pf(beta=1.0)
    rng = np.random.default_rng(72)
    for _ in range(10):
        x = rng.standard_normal(3) * 3.0
        if oracles.ellipsoid_radius(A3, x) <= 1.0:
            continue
        for k in range(1, 4):
            assert oracles.hessian_sigma(pf, x, k) == \
                pytest.approx(symfun.elem_sym_all(A3.tolist())[k], rel=1e-12)


def test_hessian_sigma_matches_eigen_oracle():
    pf = closed_pf(beta=3.0)
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 40:
        x = rng.standard_normal(3) * rng.uniform(1.0, 30.0)
        if oracles.ellipsoid_radius(A3, x) <= 1.0:
            continue
        lam = np.linalg.eigvalsh(oracles.hessian(pf, x))
        for k in range(1, 4):
            direct = oracles.hessian_sigma(pf, x, k)
            oracle = symfun.elem_sym_all(lam.tolist())[k]
            assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-10)
        checked += 1


def test_hessian_sigma_matches_direction_weight_form():
    # independent path: sigma_k(a) psi^k + Xi_k(a,x) sigma_k(a) r psi^(k-1) psi'
    pf = closed_pf(beta=4.0)
    rng = np.random.default_rng(74)
    checked = 0
    while checked < 40:
        x = rng.standard_normal(3) * rng.uniform(1.0, 10.0)
        r = oracles.ellipsoid_radius(A3, x)
        if r <= 1.0:
            continue
        psi, dpsi = oracles.profile_at(pf, r)
        for k in range(1, 4):
            sig = symfun.elem_sym_all(A3.tolist())[k]
            xi = oracles.direction_weight(A3, x, k)
            form = sig * psi ** k + xi * sig * r * psi ** (k - 1) * dpsi
            direct = oracles.hessian_sigma(pf, x, k)
            assert direct == pytest.approx(form, rel=1e-11)
        checked += 1


def test_sphere_directions_unit_norm_and_spread():
    for n in (3, 5, 8):
        dirs = subsol.sphere_directions(n, 128)
        assert dirs.shape == (128, n)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # no two directions nearly identical
        gram = dirs @ dirs.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-6
        # deterministic
        assert np.array_equal(dirs, subsol.sphere_directions(n, 128))


def test_verify_subsolution_identity_case():
    rep = grid(closed_pf(beta=1.0), 1.0, 20)
    assert clears(rep)
    assert abs(rep.min_phase_gap) <= 1e-11
    assert abs(rep.min_level_value) <= 1e-11


def test_verify_subsolution_closed_case():
    rep = grid(closed_pf(beta=3.0), 1.0, 60)
    assert clears(rep)
    assert rep.points == 60 * (96 + 6)
    assert rep.worst_point.shape == (3,)


def test_domination_inequality():
    # Phi(x) <= x^T A x / 2 + (mu_gamma + alpha - gamma^2/2)
    for beta, gamma, alpha in ((2.0, 1.0, 0.0), (10.0, 1.5, 2.0)):
        pf = closed_pf(beta=beta)
        mu_gamma = tail(pf, (gamma,))[0]
        const = mu_gamma + alpha - gamma * gamma / 2.0
        rng = np.random.default_rng(75)
        for _ in range(200):
            x = rng.standard_normal(3) * rng.uniform(1.0, 40.0)
            r = oracles.ellipsoid_radius(A3, x)
            if r <= gamma:
                continue
            phi = oracles.radial_value(pf, alpha, gamma, r)
            quad = 0.5 * float(x @ (A3 * x))
            assert phi <= quad + const + 1e-9


def test_asymptotic_constant_residual_rate():
    # [phi - r^2/2] approaches its limit like r^(2-m); fit the rate
    pf = closed_pf(beta=2.0)
    mu_gamma = tail(pf, (1.0,))[0]
    limit = mu_gamma - 0.5
    rs = np.geomspace(1.0e2, 1.0e4, 25)
    resid = np.array([limit - (oracles.radial_value(pf, 0.0, 1.0, float(r))
                               - r * r / 2.0) for r in rs])
    assert np.all(resid > 0.0)
    slope = np.polyfit(np.log(rs), np.log(resid), 1)[0]
    assert slope == pytest.approx(2.0 - 3.0, rel=5e-2)


def test_eigenvalue_convergence_rate_along_ray():
    pf = closed_pf(beta=2.0)
    direction = np.array([1.0, 0.7, -0.4])
    direction /= oracles.ellipsoid_radius(A3, direction)
    rs = np.geomspace(1.0e2, 1.0e4, 20)
    gaps = []
    for r in rs:
        lam = np.linalg.eigvalsh(oracles.hessian(pf, r * direction))
        gaps.append(float(np.linalg.norm(lam - A3)))
    gaps = np.array(gaps)
    assert gaps[-1] < gaps[0] < 1e-4
    slope = np.polyfit(np.log(rs), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-3.0, rel=1e-1)


# Isotropic problems whose raw level minimum, sum_k c_k sigma_k(lambda),
# lies below -1e-9 only because prod sqrt(1 + lambda^2) is large; the phase
# gap is ~1e-13.
@pytest.mark.parametrize("n,theta,beta", [
    (8, 11.0, 2.0), (12, 17.0, 2.0), (20, 30.0, 2.0), (4, 3.6, 2000.0),
    (6, 7.0, 50.0)])
def test_level_gate_is_scale_free(n, theta, beta):
    spec = phasepoly.PhaseSpec(n, theta)
    pf = candidate(weights.iso_point(spec), theta, beta=beta)
    rep = grid(pf, 1.0, 120)
    assert rep.min_level_value >= -4.7e-13
    assert clears(rep)


def test_level_gate_still_fails_a_negative_level(monkeypatch):
    # flip the sign of every level value: the phase gap still passes, so a
    # FAIL can only come from the level gate
    pspec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = weights.complete_to_phase((0.4, 0.9), pspec)
    pf = candidate(a, math.pi / 2, beta=3.0)
    real = subsol.rank_one_phase_level

    def negated(p, s, q2, c):
        phase, level = real(p, s, q2, c)
        return phase, -level

    monkeypatch.setattr(subsol, "rank_one_phase_level", negated)
    rep = grid(pf, 1.0, 10)
    assert rep.min_phase_gap >= BOUND["phase"]
    assert rep.min_level_value < BOUND["level"]
    assert not clears(rep)


def test_phase_gate_fails_a_doubled_rank_one_share(monkeypatch):
    # count the rank-one share Arg(w) of every phase twice: the level values
    # are untouched and still pass, so a FAIL can only come from the phase
    # gate.  (Flipping that share's sign could not fail: s <= 0 on every
    # shell, so Arg(w) <= 0 and -Arg(w) only raises the phase.)
    pspec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = weights.complete_to_phase((0.4, 0.9), pspec)
    pf = candidate(a, math.pi / 2, beta=3.0)
    real = subsol.rank_one_phase_level

    def doubled(p, s, q2, c):
        phase, level = real(p, s, q2, c)
        return 2.0 * phase - np.arctan(p).sum(axis=1)[:, None], level

    monkeypatch.setattr(subsol, "rank_one_phase_level", doubled)
    rep = grid(pf, 1.0, 10)
    assert rep.min_level_value >= BOUND["level"]
    assert rep.min_phase_gap < BOUND["phase"]
    assert not clears(rep)


def dense_phase_level(pf, x):
    """Test-only dense path: (H - theta, scaled level) from eigvalsh."""
    lam = np.linalg.eigvalsh(oracles.hessian(pf, x))
    c = np.asarray(pf.prof.spec.coeffs)
    level = np.array(symfun.elem_sym_all(lam.tolist())) @ c
    return (float(np.arctan(lam).sum()) - pf.prof.spec.theta,
            float(level * np.exp(-np.log(np.hypot(1.0, lam)).sum())))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 16, 24, 32, 48, 64,
                               100, 120])
def test_rank_one_phase_level_matches_dense_hessian_oracle(n):
    # the kernel on the Hessian oracle's own (nu, psi'/r, a o x), point by
    # point: iso critical and supercritical problems and a perturbed
    # supercritical one, on axis points and generic directions from just
    # outside the ellipsoid to r = 100
    rng = np.random.default_rng(400 + n)
    crit = (n - 2) * math.pi / 2
    problems = [(crit, None), (crit + math.pi / 2, None),
                (crit + 0.4, np.exp(rng.uniform(-0.1, 0.1, n)))]
    for theta, scale in problems:
        pspec = phasepoly.PhaseSpec(n, theta)
        a = weights.iso_point(pspec)
        if scale is not None:
            a = weights.complete_to_phase((a * scale)[:-1], pspec)
        pf = candidate(a, theta, beta=2.5)
        dirs = np.vstack([np.eye(n)[rng.permutation(n)[:3]],
                          rng.standard_normal((9, n))])
        radii = 10.0 ** rng.uniform(1e-7, 2.0, len(dirs))
        diag = np.array(pf.prof.a)
        xs = radii[:, None] * dirs / np.sqrt((dirs * dirs) @ diag)[:, None]
        p, s, q2 = [], [], []
        for x in xs:
            r = oracles.ellipsoid_radius(diag, x)
            nu, dpsi = oracles.profile_at(pf, r)
            p.append(nu * diag)
            s.append(dpsi / r)
            q2.append((diag * x) ** 2)
        # one point per block: q2 of shape (S, 1, n), which the kernel's
        # matmul broadcasts like the grid's shared (D, n) table
        phase, scaled = symfun.rank_one_phase_level(
            np.array(p), np.array(s), np.array(q2)[:, None, :],
            pspec.coeffs)
        for i, x in enumerate(xs):
            gap, lev_scaled = dense_phase_level(pf, x)
            assert abs(phase[i, 0] - theta - gap) <= 1e-12, (theta, i)
            assert abs(scaled[i, 0] - lev_scaled) <= 1e-12, (theta, i)


@pytest.mark.parametrize("n, theta, perturbed, gamma", [
    (5, 7.5, False, 1.0), (12, 16.008, True, 1.0), (8, 9.9, True, 30.0),
    (5, 7.5, False, 1e152)])
def test_worst_point_is_the_grid_point_of_the_reported_minimum(n, theta,
                                                               perturbed,
                                                               gamma):
    # worst_point is built from the argmin's shell and direction alone: it
    # lies on a shell, and the dense Hessian there gives the smaller
    # reported minimum
    spec = phasepoly.PhaseSpec(n, theta)
    a = weights.iso_point(spec)
    if perturbed:
        scale = np.exp(np.random.default_rng(n).uniform(-0.1, 0.1, n))
        a = weights.complete_to_phase((a * scale)[:-1], spec)
    pf = candidate(a, theta)
    rep = grid(pf, gamma, 8)
    r = oracles.ellipsoid_radius(np.array(pf.prof.a), rep.worst_point)
    assert np.min(np.abs(subsol.shell_radii(gamma, 8) - r)) <= 1e-12 * r
    gap, level = dense_phase_level(pf, rep.worst_point)
    if rep.min_phase_gap <= rep.min_level_value:
        assert abs(gap - rep.min_phase_gap) <= 1e-12
    else:
        assert abs(level - rep.min_level_value) <= 1e-12


@pytest.mark.parametrize("n, theta", [
    (5, 3 * math.pi / 2), (8, 3 * math.pi), (12, 5 * math.pi),
    (12, 16.008), (24, 11 * math.pi)])
def test_grid_update_scales_come_from_the_slope_on_the_excess(monkeypatch,
                                                              n, theta):
    # the grid's default shells at beta = 2, gamma = 1.  Read at psi = 1 +
    # x, the slope cancels to the rounding residue of den(1) once x is
    # below about 1e-15: at n = 12, theta = 16.008, 3 of 24 update scales
    # had the wrong sign.  On the excess every one is negative, and each
    # matches -x D/N of the pair built from pf.prof to 1e-12
    spec = phasepoly.PhaseSpec(n, theta)
    pf = candidate(weights.iso_point(spec), theta)
    real, seen = subsol.rank_one_phase_level, []

    def spy(p, s, q2, c):
        seen.append((s, q2))
        return real(p, s, q2, c)

    monkeypatch.setattr(subsol, "rank_one_phase_level", spy)
    grid(pf, 1.0, 24)
    excess = oracles.excess(pf, subsol.shell_radii(1.0, 24))
    assert np.all(excess > 0.0)
    # one scale per shell, rho psi', and one u o u per direction
    (scales, q2), = seen
    assert np.array_equal(scales, pf.slope(excess))
    assert q2.shape == (2 * n + subsol.DIRECTIONS, n)
    assert np.all(scales < 0.0)
    d, q = oracles.excess_pair(pf.prof)
    xs = np.append(excess[excess >= 1e-20], np.geomspace(1e-20, 1.0, 21))
    expect = -xs * d(xs) / q(xs)
    assert np.all(np.abs(pf.slope(xs) - expect) <= 1e-12 * -expect)
