"""Tests for generalized radially symmetric functions and verification."""

import math
import warnings

import numpy as np
import pytest

from slex import phasepoly, radial, subsol, symfun, weights


SQRT3 = math.sqrt(3.0)
A3 = np.full(3, 1.0 / SQRT3)


def closed_spec(beta=2.0, gamma=1.0, alpha=0.0):
    return subsol.SubsolutionSpec(alpha=alpha, beta=beta, gamma=gamma,
                                  diag=A3, theta=math.pi / 2)


def test_subsolution_spec_validation():
    closed_spec()  # valid
    with pytest.raises(ValueError, match="a not on the phase level set"):
        subsol.SubsolutionSpec(alpha=0.0, beta=2.0, gamma=1.0,
                               diag=np.array([1.0, 2.0, 3.0]),
                               theta=math.pi / 2)
    with pytest.raises(ValueError):
        subsol.SubsolutionSpec(alpha=0.0, beta=2.0, gamma=0.5,
                               diag=A3, theta=math.pi / 2)
    with pytest.raises(ValueError):
        subsol.SubsolutionSpec(alpha=0.0, beta=0.5, gamma=1.0,
                               diag=A3, theta=math.pi / 2)
    with pytest.raises(ValueError, match="alpha must be finite"):
        closed_spec(alpha=float("nan"))
    with pytest.raises(ValueError, match="gamma must be finite"):
        closed_spec(gamma=float("inf"))
    with pytest.raises(ValueError, match="beta must be finite"):
        closed_spec(beta=float("nan"))
    # slow-decay vector: exponent at the endpoint is below 2
    with pytest.raises(ValueError):
        subsol.SubsolutionSpec(alpha=0.0, beta=2.0, gamma=1.0,
                               diag=weights.epsilon_family(math.pi / 12),
                               theta=5 * math.pi / 3)


def test_ellipsoid_radius():
    rng = np.random.default_rng(71)
    x = rng.standard_normal(4)
    assert subsol.ellipsoid_radius(np.ones(4), x) == \
        pytest.approx(float(np.linalg.norm(x)), rel=1e-14)
    assert subsol.ellipsoid_radius(np.array([4.0, 1.0, 1.0]),
                                   np.array([1.0, 0.0, 0.0])) == 2.0
    for t in (-3.0, 0.5, 2.0):
        assert subsol.ellipsoid_radius(np.array([4.0, 1.0, 1.0]),
                                       t * np.array([1.0, 2.0, 0.3])) == \
            pytest.approx(abs(t) * subsol.ellipsoid_radius(
                np.array([4.0, 1.0, 1.0]), np.array([1.0, 2.0, 0.3])),
                rel=1e-14)
    # full-matrix form via cholesky
    mat = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert subsol.ellipsoid_radius(mat, np.array([1.0, 1.0])) == \
        pytest.approx(math.sqrt(2.0 + 0.6 + 1.0), rel=1e-14)
    with pytest.raises(ValueError):
        subsol.ellipsoid_radius(np.array([[1.0, 2.0], [2.0, 1.0]]),
                                np.array([1.0, 0.0]))


def test_radial_value_boundary_and_quadratic_case():
    spec = closed_spec(beta=1.0, gamma=1.5, alpha=2.0)
    assert subsol.radial_value(spec, 1.5) == pytest.approx(2.0, abs=1e-14)
    for r in (1.5, 2.0, 10.0):
        assert subsol.radial_value(spec, r) == \
            pytest.approx(2.0 + (r * r - 1.5 ** 2) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        subsol.radial_value(spec, 1.0)


def test_radial_value_increasing_and_superquadratic():
    spec = closed_spec(beta=2.0)
    rs = np.linspace(1.0, 8.0, 30)
    vals = [subsol.radial_value(spec, float(r)) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # psi >= 1 makes phi grow at least quadratically
    for r, v in zip(rs[1:], vals[1:]):
        assert v >= (r * r - 1.0) / 2.0 - 1e-12


def test_radial_value_asymptote():
    # phi(r) - r^2/2 climbs to mu_gamma + alpha - gamma^2/2, and the
    # shortfall at finite r is exactly the remaining tail integral
    spec = closed_spec(beta=2.0)
    mu_gamma = radial.tail_integral(spec.phase_spec, A3, 2.0, 1.0)
    limit = mu_gamma + 0.0 - 0.5
    for r in (1.0e3, 1.0e4):
        gap = subsol.radial_value(spec, r) - r * r / 2.0
        mu_r = radial.tail_integral(spec.phase_spec, A3, 2.0, r)
        assert gap < limit
        assert gap + mu_r == pytest.approx(limit, rel=1e-9)


def test_hessian_identity_case():
    spec = closed_spec(beta=1.0)
    x = np.array([1.3, -0.4, 0.8])
    assert np.allclose(subsol.hessian(spec, x), np.diag(A3), atol=1e-14)


def test_hessian_structure_and_limit():
    spec = closed_spec(beta=2.0)
    x = np.array([2.0, 1.0, 0.5])
    h = subsol.hessian(spec, x)
    assert np.allclose(h, h.T, atol=0.0)
    r = subsol.ellipsoid_radius(A3, x)
    psi, dpsi = spec.profile_at(r)
    expect = psi * np.diag(A3) + (dpsi / r) * np.outer(A3 * x, A3 * x)
    assert np.allclose(h, expect, rtol=1e-12, atol=1e-15)
    # far along a ray the hessian approaches diag(a)
    far = subsol.hessian(spec, 1.0e5 * x)
    assert np.max(np.abs(far - np.diag(A3))) < 1e-9
    with pytest.raises(ValueError):
        subsol.hessian(spec, np.array([0.1, 0.1, 0.1]))


def test_hessian_sigma_identity_case():
    spec = closed_spec(beta=1.0)
    rng = np.random.default_rng(72)
    for _ in range(10):
        x = rng.standard_normal(3) * 3.0
        if subsol.ellipsoid_radius(A3, x) <= 1.0:
            continue
        for k in range(1, 4):
            assert subsol.hessian_sigma(spec, x, k) == \
                pytest.approx(symfun.elem_sym(A3.tolist(), k), rel=1e-12)


def test_hessian_sigma_matches_eigen_oracle():
    spec = closed_spec(beta=3.0)
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 40:
        x = rng.standard_normal(3) * rng.uniform(1.0, 30.0)
        if subsol.ellipsoid_radius(A3, x) <= 1.0:
            continue
        lam = np.linalg.eigvalsh(subsol.hessian(spec, x))
        for k in range(1, 4):
            direct = subsol.hessian_sigma(spec, x, k)
            oracle = symfun.elem_sym(lam.tolist(), k)
            assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-10)
        checked += 1


def test_hessian_sigma_matches_direction_weight_form():
    # independent path: sigma_k(a) psi^k + Xi_k(a,x) sigma_k(a) r psi^(k-1) psi'
    spec = closed_spec(beta=4.0)
    rng = np.random.default_rng(74)
    checked = 0
    while checked < 40:
        x = rng.standard_normal(3) * rng.uniform(1.0, 10.0)
        r = subsol.ellipsoid_radius(A3, x)
        if r <= 1.0:
            continue
        psi, dpsi = spec.profile_at(r)
        for k in range(1, 4):
            sig = symfun.elem_sym(A3.tolist(), k)
            xi = weights.direction_weight(A3, x, k)
            form = sig * psi ** k + xi * sig * r * psi ** (k - 1) * dpsi
            direct = subsol.hessian_sigma(spec, x, k)
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
    spec = closed_spec(beta=1.0)
    rep = subsol.verify_subsolution(spec, subsol.ShellGrid(shells=20,
                                                           directions=16))
    assert rep.passed
    assert abs(rep.min_phase_gap) <= 1e-11
    assert abs(rep.min_level_value) <= 1e-11


def test_verify_subsolution_closed_case():
    rep = subsol.verify_subsolution(closed_spec(beta=3.0),
                                    subsol.ShellGrid(shells=60,
                                                     directions=48))
    assert rep.passed
    assert rep.points >= 60 * (48 + 6)
    assert rep.min_phase_gap >= -1e-9
    assert rep.min_level_value >= -1e-9
    assert rep.worst_point.shape == (3,)


def test_verify_subsolution_grid_guard():
    with pytest.raises(ValueError):
        subsol.verify_subsolution(closed_spec(),
                                  subsol.ShellGrid(shells=10, directions=8,
                                                   r_min_scale=1.0))


@pytest.mark.parametrize("kwargs", [
    {"shells": 0}, {"shells": -2}, {"directions": -1},
    {"r_max": float("inf")}, {"r_max": float("nan")},
    {"r_min_scale": float("nan")}])
def test_shell_grid_validation(kwargs):
    with pytest.raises(ValueError):
        subsol.ShellGrid(**kwargs)
    subsol.ShellGrid(shells=1, directions=0)  # smallest valid grid


def test_domination_inequality():
    # Phi(x) <= x^T A x / 2 + (mu_gamma + alpha - gamma^2/2)
    for beta, gamma, alpha in ((2.0, 1.0, 0.0), (10.0, 1.5, 2.0)):
        spec = closed_spec(beta=beta, gamma=gamma, alpha=alpha)
        mu_gamma = radial.tail_integral(spec.phase_spec, A3, beta, gamma)
        const = mu_gamma + alpha - gamma * gamma / 2.0
        rng = np.random.default_rng(75)
        for _ in range(200):
            x = rng.standard_normal(3) * rng.uniform(1.0, 40.0)
            r = subsol.ellipsoid_radius(A3, x)
            if r <= gamma:
                continue
            phi = subsol.radial_value(spec, r)
            quad = 0.5 * float(x @ (A3 * x))
            assert phi <= quad + const + 1e-9


def test_asymptotic_constant_residual_rate():
    # [phi - r^2/2] approaches its limit like r^(2-m); fit the rate
    spec = closed_spec(beta=2.0)
    mu_gamma = radial.tail_integral(spec.phase_spec, A3, 2.0, 1.0)
    limit = mu_gamma - 0.5
    rs = np.geomspace(1.0e2, 1.0e4, 25)
    resid = np.array([limit - (subsol.radial_value(spec, float(r))
                               - r * r / 2.0) for r in rs])
    assert np.all(resid > 0.0)
    slope = np.polyfit(np.log(rs), np.log(resid), 1)[0]
    assert slope == pytest.approx(2.0 - 3.0, rel=5e-2)


def test_eigenvalue_convergence_rate_along_ray():
    spec = closed_spec(beta=2.0)
    direction = np.array([1.0, 0.7, -0.4])
    direction /= subsol.ellipsoid_radius(A3, direction)
    rs = np.geomspace(1.0e2, 1.0e4, 20)
    gaps = []
    for r in rs:
        lam = np.linalg.eigvalsh(subsol.hessian(spec, r * direction))
        gaps.append(float(np.linalg.norm(lam - A3)))
    gaps = np.array(gaps)
    assert gaps[-1] < gaps[0] < 1e-4
    slope = np.polyfit(np.log(rs), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-3.0, rel=1e-1)


def test_normalize_problem_diagonal_and_random():
    lam, q = subsol.normalize_problem(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(lam, np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(q, np.eye(3))
    rng = np.random.default_rng(76)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        base = rng.standard_normal((n, n))
        sym = 0.5 * (base + base.T)
        lam, q = subsol.normalize_problem(sym)
        assert np.allclose(q.T @ lam @ q, sym, atol=1e-12)
        assert np.allclose(q @ q.T, np.eye(n), atol=1e-12)
        assert np.all(np.diff(np.diag(lam)) >= -1e-14)
        assert np.allclose(np.sort(np.linalg.eigvalsh(sym)),
                           np.diag(lam), atol=1e-12)
    with pytest.raises(ValueError):
        subsol.normalize_problem(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_rotation_invariance_of_phase():
    # verify H(lam(D^2 u)) is unchanged under the orthogonal reduction:
    # evaluate the diagonal-model hessian at mapped points
    rng = np.random.default_rng(77)
    pspec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = np.sort(weights.complete_to_phase((0.4, 0.9), pspec))
    spec = subsol.SubsolutionSpec(alpha=0.0, beta=2.0, gamma=1.0,
                                  diag=a, theta=math.pi / 2)
    base = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(base)
    full = q.T @ np.diag(a) @ q  # non-diagonal SPD with eigenvalues a
    lam_mat, qmat = subsol.normalize_problem(full)
    assert np.allclose(np.diag(lam_mat), a, atol=1e-10)
    assert np.abs(full - np.diag(np.diag(full))).max() > 1e-3
    for _ in range(25):
        x = rng.standard_normal(3) * rng.uniform(2.0, 20.0)
        if subsol.ellipsoid_radius(full, x) <= 1.0:
            continue
        x_tilde = qmat @ x
        h_diag = subsol.hessian(spec, x_tilde)
        # the full-matrix hessian is the pullback Q^T D2 Q; phases agree
        h_full = qmat.T @ h_diag @ qmat
        assert phasepoly.phase(np.linalg.eigvalsh(h_full)) == \
            pytest.approx(phasepoly.phase(np.linalg.eigvalsh(h_diag)),
                          abs=1e-10)
        assert subsol.ellipsoid_radius(full, x) == \
            pytest.approx(subsol.ellipsoid_radius(a, x_tilde), rel=1e-12)


# Isotropic problems whose raw level minimum lies far below -1e-9 only
# because prod sqrt(1 + lambda^2) is large; the phase gap is ~1e-13.
@pytest.mark.parametrize("n,theta,beta", [
    (8, 11.0, 2.0), (12, 17.0, 2.0), (20, 30.0, 2.0), (4, 3.6, 2000.0),
    (6, 7.0, 50.0)])
def test_level_gate_is_scale_free(n, theta, beta):
    spec = phasepoly.PhaseSpec(n, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sspec = subsol.SubsolutionSpec(alpha=0.0, beta=beta, gamma=1.0,
                                       diag=weights.iso_point(spec),
                                       theta=theta)
    rep = subsol.verify_subsolution(sspec, subsol.ShellGrid())
    assert rep.min_level_value < -1e-9  # raw value, reported unchanged
    assert rep.min_level_scaled >= -4.7e-13
    assert rep.min_level_scaled >= rep.min_level_value
    assert rep.min_phase_gap >= -1e-9
    assert rep.passed


def test_level_gate_still_fails_a_negative_level(monkeypatch):
    # flip the sign of every level value: the phase gap still passes, so a
    # FAIL can only come from the level gate
    pspec = phasepoly.PhaseSpec(3, math.pi / 2)
    a = weights.complete_to_phase((0.4, 0.9), pspec)
    spec = subsol.SubsolutionSpec(alpha=0.0, beta=3.0, gamma=1.0, diag=a,
                                  theta=math.pi / 2)
    real = subsol.elem_sym_stack
    monkeypatch.setattr(subsol, "elem_sym_stack", lambda lam: -real(lam))
    rep = subsol.verify_subsolution(spec, subsol.ShellGrid(shells=10,
                                                           directions=8))
    assert rep.min_phase_gap >= -1e-9
    assert rep.min_level_scaled < -1e-9
    assert not rep.passed


def test_shared_analysis_gives_identical_verification():
    rng = np.random.default_rng(96)
    for n in (3, 7, 11):
        spec = phasepoly.PhaseSpec(n, (n - 2) * math.pi / 2 + 0.4)
        a = weights.iso_point(spec) * np.exp(rng.uniform(-0.05, 0.05, n))
        a = weights.complete_to_phase(a[:-1], spec)
        pf = radial.partial_fractions(spec, a)
        grid = subsol.ShellGrid(shells=8, directions=16)
        reps = [subsol.verify_subsolution(
                    subsol.SubsolutionSpec(alpha=0.0, beta=2.5, gamma=1.2,
                                           diag=a, theta=spec.theta, pf=p),
                    grid)
                for p in (None, pf)]
        fresh, shared = reps
        assert fresh.points == shared.points
        assert fresh.min_phase_gap == shared.min_phase_gap
        assert fresh.min_level_value == shared.min_level_value
        assert np.array_equal(fresh.worst_point, shared.worst_point)
        assert fresh.passed == shared.passed


def test_subsolution_spec_rejects_analysis_of_another_problem():
    spec4 = phasepoly.PhaseSpec(4, 3.6)
    pf4 = radial.partial_fractions(spec4, weights.iso_point(spec4))
    with pytest.raises(ValueError, match="another problem"):
        subsol.SubsolutionSpec(alpha=0.0, beta=2.0, gamma=1.0, diag=A3,
                               theta=math.pi / 2, pf=pf4)
