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

holds everywhere outside the ellipsoid.  verify_subsolution(pf, shells)
samples that inequality (and the equivalent algebraic level form, which
must be >= 0) on log-spaced shells crossed with a deterministic direction
set: the 2n coordinate axis points, where the direction weights attain
their extremes, plus DIRECTIONS low-discrepancy generic directions.  The
shells, shell_radii(gamma, count), run from just outside the ellipsoid to
GRID_RADIUS * gamma, and their excess comes from solve's one inversion.
It computes no eigenvalue: symfun.rank_one_phase_level gives the phase
from the matrix determinant lemma and the scale-free level value from the
rank-one update of the level polynomial in product form, at O(n) per shell
and per point, with no sigma row.  psi' = g(psi)/r is scale-free, so the
grid needs one direction table and one slope per shell, and forms no point
array and no rho^2.

The problem is pf, the radial.FirstIntegral built on the WeightProfile
that weights.classify made: pf.prof.a is diag(a), pf.prof.spec the phase
target, and pf.beta the profile's start.  Nothing here re-checks it.  alpha
shifts Phi by a constant and never reaches the Hessian, so the grid does
not take it.  gamma >= 1 and a shell count of at least 1 are the solve
command's checks, made before it reads the vector; nothing here repeats
them.

A is diagonal throughout: a general symmetric A enters through its
eigenvalues, as the problem's vector a.
"""

from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .radial import FirstIntegral, Inversion
from .symfun import rank_one_phase_level

_NORMAL = NormalDist()
_R_MIN_SCALE = 1.0 + 1e-6  # the innermost shell, relative to gamma
GRID_RADIUS = 50.0  # the outermost shell, relative to gamma
DIRECTIONS = 96  # low-discrepancy directions per shell, besides the 2n axes


def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere.

    Uses the additive lattice driven by the generalized golden ratio (the
    positive root of x^(n+1) = x + 1), mapped through the standard normal
    quantile (statistics.NormalDist.inv_cdf) so the normalized rows are
    spread uniformly on the sphere.  No row is near zero: over
    n = 3..200 at count = DIRECTIONS the smallest norm is 0.489.
    """
    g = 1.5
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (n + 1))
    alpha = np.array([(1.0 / g) ** (j + 1) for j in range(n)])
    idx = np.arange(1, count + 1)[:, None]
    u = (0.5 + idx * alpha) % 1.0
    z = np.array(list(map(_NORMAL.inv_cdf, u.ravel().tolist()))
                 ).reshape(u.shape)
    return z / np.linalg.norm(z, axis=1)[:, None]


class VerificationReport(NamedTuple):
    """Sampled minima of the two subsolution inequalities.

    min_phase_gap is the smallest H(lambda(D2Phi)) - theta over the grid,
    min_level_value the smallest level value
    sum_k c_k sigma_k(lambda) / prod_j sqrt(1 + lambda_j^2), which equals
    sin(H - theta) and so is dimensionless whatever the size of the
    eigenvalues; worst_point is the sample attaining the smaller of the
    two.  The report measures and does not judge: cli.GATES holds the
    bounds the minima must clear.
    """
    points: int
    min_phase_gap: float
    min_level_value: float
    worst_point: np.ndarray


def shell_radii(gamma: float, shells: int) -> np.ndarray:
    """The grid's shells log-spaced radii, from just outside the ellipsoid,
    gamma * (1 + 1e-6), to GRID_RADIUS * gamma; solve has checked
    shells >= 1."""
    return np.geomspace(gamma * _R_MIN_SCALE, GRID_RADIUS * gamma, shells)


def verify_subsolution(pf: FirstIntegral,
                       shells: Inversion) -> VerificationReport:
    """Check both subsolution inequalities of the problem pf on the grid.

    shells is pf's Inversion (radial.invert) at the grid's shell radii,
    shell_radii(gamma, count); solve inverts them together with its other
    radii.  Each shell is crossed with the 2n signed coordinate axes and
    DIRECTIONS low-discrepancy points, so every grid point sits strictly
    outside the ellipsoid.  Direction d meets the shell of radius rho at
    x = rho d/ra, ra = sqrt(a^T (d o d)), where the Hessian is
    diag(p) + s u u^T with p = psi a, u = a o d/ra and s = rho psi' =
    pf.slope(psi - 1), read on the shell's excess so that it keeps its sign
    where psi rounds to 1.  symfun.rank_one_phase_level evaluates the phase
    gap and the level value of every point from (p, s, u o u) without an
    eigenvalue; their minima are reported, for cli.GATES to judge, and
    worst_point is the one point built.  The level value is the scale-free
    one (divided by prod_j sqrt(1 + lambda_j^2)), so the verdict does not
    depend on the size of the eigenvalues.
    """
    spec, a = pf.prof.spec, np.array(pf.prof.a)
    n = a.size
    axes = np.vstack([np.eye(n), -np.eye(n)])
    dirs = np.vstack([axes, sphere_directions(n, DIRECTIONS)])
    ra = np.sqrt((dirs * dirs) @ a)
    u = dirs * a / ra[:, None]
    radii, excess = shells.r, shells.excess
    phases, levels = rank_one_phase_level(
        (1.0 + excess)[:, None] * a, pf.slope(excess), u * u, spec.coeffs)
    gaps = phases.ravel() - spec.theta
    levels = levels.ravel()

    i_gap = int(np.argmin(gaps))
    i_lev = int(np.argmin(levels))
    shell, d = divmod(i_gap if gaps[i_gap] <= levels[i_lev] else i_lev,
                      len(dirs))
    return VerificationReport(points=gaps.size,
                              min_phase_gap=float(gaps[i_gap]),
                              min_level_value=float(levels[i_lev]),
                              worst_point=(radii[shell] / ra[d]) * dirs[d])

