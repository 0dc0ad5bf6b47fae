"""Generalized radially symmetric candidates and pointwise verification.

Given a positive diagonal matrix A = diag(a) whose entries lie on the phase
level set (sum arctan a_i = theta) with decay exponent above 2, the
candidate function is

    Phi(x) = phi(r_A(x)),   r_A(x) = sqrt(x^T A x),
    phi(r) = alpha + int_gamma^r tau * psi(tau, beta) dtau,

with psi the radial profile from the radial module.  Outside the ellipsoid
r_A(x) <= gamma its Hessian has the closed rank-one form

    D2Phi(x) = psi(r) diag(a) + (psi'(r)/r) (a o x)(a o x)^T,

so sigma_k of its eigenvalues follows from the rank-one update formula, and
the defining differential inequality

    sum_i arctan lambda_i(D2Phi(x)) >= theta

holds everywhere outside the ellipsoid.  verify_subsolution(pf, gamma,
shells) samples that inequality (and the equivalent algebraic level form,
which must be >= 0) on log-spaced shells crossed with a deterministic
direction set: the 2n coordinate axis points, where the direction weights
attain their extremes, plus DIRECTIONS low-discrepancy generic directions.
The shells run from just outside the ellipsoid to GRID_RADIUS * gamma.
It computes no eigenvalue: symfun.rank_one_phase_level gives the phase
from the matrix determinant lemma and the level value from the rank-one
update, at O(n) per point once each shell's O(n^3) exclusion rows are
built.

The problem is pf, the radial.FirstIntegral built on the WeightProfile
that weights.classify made: pf.prof.a is diag(a), pf.prof.spec the phase
target, and pf.beta the profile's start.  Nothing here re-checks it.  alpha
shifts Phi by a constant and never reaches the Hessian, so the grid does
not take it.  gamma >= 1 is the solve command's check; the shell count is
checked by check_shells, which solve calls before it reads the vector and
verify_subsolution again for a library caller.

A is diagonal throughout: a general symmetric A enters through its
eigenvalues, as the problem's vector a.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .radial import FirstIntegral
from .symfun import rank_one_phase_level

_NORMAL = NormalDist()
_PASS_TOL = 1e-9  # verify_subsolution's minima must clear -_PASS_TOL
_R_MIN_SCALE = 1.0 + 1e-6  # the innermost shell, relative to gamma
GRID_RADIUS = 50.0  # the outermost shell, relative to gamma
DIRECTIONS = 96  # low-discrepancy directions per shell, besides the 2n axes


def check_shells(shells: int) -> None:
    """ValueError unless the grid has at least one shell."""
    if shells < 1:
        raise ValueError("the grid needs at least one shell")


def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere.

    Uses the additive lattice driven by the generalized golden ratio (the
    positive root of x^(n+1) = x + 1), mapped through the standard normal
    quantile (statistics.NormalDist.inv_cdf) so the normalized rows are
    spread uniformly on the sphere.
    """
    if count <= 0:
        return np.zeros((0, n))
    g = 1.5
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (n + 1))
    alpha = np.array([(1.0 / g) ** (j + 1) for j in range(n)])
    idx = np.arange(1, count + 1)[:, None]
    u = (0.5 + idx * alpha) % 1.0
    z = np.array(list(map(_NORMAL.inv_cdf, u.ravel().tolist()))
                 ).reshape(u.shape)
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Sampled minima of the two subsolution inequalities.

    min_phase_gap is the smallest H(lambda(D2Phi)) - theta over the grid,
    min_level_value the smallest algebraic level value; worst_point is the
    sample attaining the smaller of the two.  The level value equals
    prod_j sqrt(1 + lambda_j^2) * sin(H - theta), so its size grows with
    the eigenvalues; min_level_scaled is the smallest level value divided
    by that product.  passed requires min_phase_gap and min_level_scaled
    to clear -1e-9.
    """
    points: int
    min_phase_gap: float
    min_level_value: float
    min_level_scaled: float
    worst_point: np.ndarray
    passed: bool


def verify_subsolution(pf: FirstIntegral, gamma: float,
                       shells: int) -> VerificationReport:
    """Check both subsolution inequalities of the problem pf on the grid.

    The grid has shells log-spaced radii from gamma * (1 + 1e-6), just
    outside the excised ellipsoid, to GRID_RADIUS * gamma, each crossed
    with the 2n signed coordinate axes and DIRECTIONS low-discrepancy
    points, so every grid point sits strictly outside the ellipsoid.  On
    the shell of radius rho the Hessian is
    diag(p) + s q q^T with p = psi a, s = psi'/rho and q = a o x, and
    symfun.rank_one_phase_level evaluates the phase gap and the level value
    of every point from (p, s, q o q) without an eigenvalue; their minima
    are reported.  The level inequality is gated on the scale-free level
    value (divided by prod_j sqrt(1 + lambda_j^2)), so the verdict does not
    depend on the size of the eigenvalues.  ValueError when shells < 1.
    """
    check_shells(shells)
    spec, a = pf.prof.spec, pf.prof.a
    n = a.size
    axes = np.vstack([np.eye(n), -np.eye(n)])
    dirs = np.vstack([axes, sphere_directions(n, DIRECTIONS)])
    # radius of each direction point in the A-metric, for rescaling
    ra = np.sqrt((dirs * dirs) @ a)
    radii = np.geomspace(gamma * _R_MIN_SCALE, GRID_RADIUS * gamma, shells)

    nus = 1.0 + pf.excess_at(radii)
    # the update scale s = psi'(rho)/rho of each shell, psi' = slope/rho
    s = np.array([pf.slope(nu) / rho / rho
                  for rho, nu in zip(radii.tolist(), nus.tolist())])
    x = (radii[:, None] / ra)[:, :, None] * dirs
    q = x * a
    phases, levels, scaled = rank_one_phase_level(
        nus[:, None] * a, s, q * q, spec.coeffs)
    gaps = phases.ravel() - spec.theta
    levels = levels.ravel()
    points = x.reshape(-1, n)

    i_gap = int(np.argmin(gaps))
    i_lev = int(np.argmin(levels))
    worst = points[i_gap] if gaps[i_gap] <= levels[i_lev] else points[i_lev]
    min_gap = float(gaps[i_gap])
    min_level = float(levels[i_lev])
    min_scaled = float(scaled.min())
    return VerificationReport(points=points.shape[0],
                              min_phase_gap=min_gap,
                              min_level_value=min_level,
                              min_level_scaled=min_scaled,
                              worst_point=worst,
                              passed=bool(min_gap >= -_PASS_TOL
                                          and min_scaled >= -_PASS_TOL))

