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

holds everywhere outside the ellipsoid.  verify_subsolution samples that
inequality (and the equivalent algebraic level form, which must be >= 0) on
log-spaced shells crossed with a deterministic direction set: the 2n
coordinate axis points, where the direction weights attain their extremes,
plus a low-discrepancy spread of generic directions.

normalize_problem reduces a general symmetric A to this diagonal setting
through A = Q^T Lambda Q: with x~ = Q x the candidate for Lambda evaluates
at x~ and u(x) = u~(x~) + b^T x absorbs any linear boundary term, leaving
the Hessian spectrum unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .phasepoly import LEVEL_TOL, PhaseSpec, phase, phase_coeffs
from .radial import PartialFractions, check_beta, partial_fractions
from .symfun import elem_sym_stack, sigma_rank_one


@dataclass(frozen=True, eq=False)
class SubsolutionSpec:
    """Parameters (alpha, beta, gamma, diag(a), theta) of one candidate.

    Requires beta >= 1, gamma >= 1, positive diagonal entries on the phase
    level set (within 1e-10), and decay exponent above 2.  pf is the
    problem's radial.partial_fractions; it is built here when not given.
    """
    alpha: float
    beta: float
    gamma: float
    diag: np.ndarray
    theta: float
    pf: Optional[PartialFractions] = None

    def __post_init__(self):
        object.__setattr__(self, "diag",
                           np.sort(np.asarray(self.diag, dtype=float)))
        if self.diag.ndim != 1 or not np.all(self.diag > 0):
            raise ValueError("diagonal entries must all be positive")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        check_beta(self.beta)
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and at least 1")
        if abs(phase(self.diag) - self.theta) > LEVEL_TOL:
            raise ValueError("a not on the phase level set")
        if self.pf is None:
            object.__setattr__(self, "pf", partial_fractions(self.phase_spec,
                                                             self.diag))
        else:
            self.pf.check_problem(self.phase_spec, self.diag)
        if self.m <= 2.0:
            raise ValueError("decay exponent must exceed 2")

    @cached_property
    def phase_spec(self) -> PhaseSpec:
        return PhaseSpec(self.diag.size, self.theta)

    @property
    def m(self) -> float:
        return self.pf.m

    def profile_at(self, r: float) -> tuple:
        """(psi, psi') at radius r >= 1, from the implicit route."""
        r = float(r)
        nu = 1.0 + float(self.pf.excess_at(self.beta, r))
        return nu, self.pf.slope(nu) / r


def ellipsoid_radius(A, x) -> float:
    """r_A(x) = sqrt(x^T A x) for symmetric positive definite A.

    A may be given as a full matrix or as its diagonal.
    """
    arr = np.asarray(A, dtype=float)
    xv = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if not np.all(arr > 0):
            raise ValueError("matrix must be symmetric positive definite")
        return float(math.sqrt(np.dot(arr, xv * xv)))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > 1e-12 * scale:
        raise ValueError("matrix must be symmetric positive definite")
    try:
        np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        raise ValueError("matrix must be symmetric positive definite")
    return float(math.sqrt(xv @ arr @ xv))


def radial_value(spec: SubsolutionSpec, r: float) -> float:
    """phi(r) = alpha + int_gamma^r tau psi(tau) dtau, for r >= gamma.

    Splitting psi = 1 + excess gives the exact quadratic part plus the
    excess integral of the implicit route (PartialFractions.excess_integral,
    Gauss-Legendre in log radius).
    """
    r = float(r)
    if r < spec.gamma:
        raise ValueError("radius inside the excised ellipsoid")
    quadratic = spec.alpha + 0.5 * (r * r - spec.gamma ** 2)
    return quadratic + spec.pf.excess_integral(spec.beta, spec.gamma, r)


def hessian(spec: SubsolutionSpec, x: Sequence) -> np.ndarray:
    """D2Phi(x) by the closed rank-one formula, outside the ellipsoid."""
    xv = np.asarray(x, dtype=float)
    r = ellipsoid_radius(spec.diag, xv)
    if r <= spec.gamma:
        raise ValueError("point inside the excised ellipsoid")
    nu, dpsi = spec.profile_at(r)
    q = spec.diag * xv
    return nu * np.diag(spec.diag) + (dpsi / r) * np.outer(q, q)


def hessian_sigma(spec: SubsolutionSpec, x: Sequence, k: int) -> float:
    """sigma_k of the eigenvalues of D2Phi(x), via the rank-one update.

    No eigenvalue decomposition: the update formula with p = psi * a,
    q = a o x, s = psi'/r gives the value directly.
    """
    xv = np.asarray(x, dtype=float)
    r = ellipsoid_radius(spec.diag, xv)
    if r <= spec.gamma:
        raise ValueError("point inside the excised ellipsoid")
    nu, dpsi = spec.profile_at(r)
    p = (nu * spec.diag).tolist()
    q = (spec.diag * xv).tolist()
    return float(sigma_rank_one(p, q, dpsi / r, k))


_NORMAL = NormalDist()


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
    z = np.array([[_NORMAL.inv_cdf(v) for v in row] for row in u.tolist()])
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


@dataclass(frozen=True)
class ShellGrid:
    """Sampling layout: log-spaced shells times a fixed direction set.

    Radii run from gamma * r_min_scale to r_max; directions are the 2n
    signed coordinate axes plus `directions` low-discrepancy points.
    Requires at least one shell, no negative direction count and finite
    radii.
    """
    shells: int = 120
    directions: int = 96
    r_max: float = 50.0
    r_min_scale: float = 1.0 + 1e-6

    def __post_init__(self):
        if self.shells < 1:
            raise ValueError("the grid needs at least one shell")
        if self.directions < 0:
            raise ValueError("the direction count must not be negative")
        if not (math.isfinite(self.r_max) and math.isfinite(self.r_min_scale)):
            raise ValueError("grid radii must be finite")


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Sampled minima of the two subsolution inequalities.

    min_phase_gap is the smallest H(lambda(D2Phi)) - theta over the grid,
    min_level_value the smallest algebraic level value; worst_point is the
    sample attaining the smaller of the two.  The level value equals
    prod_j sqrt(1 + lambda_j^2) * sin(H - theta), so its size grows with
    the eigenvalues; min_level_scaled is the smallest level value divided
    by that product.  passed requires min_phase_gap and min_level_scaled
    to clear -tolerance.
    """
    points: int
    min_phase_gap: float
    min_level_value: float
    min_level_scaled: float
    worst_point: np.ndarray
    passed: bool


def verify_subsolution(spec: SubsolutionSpec,
                       grid: Optional[ShellGrid] = None,
                       tolerance: float = 1e-9) -> VerificationReport:
    """Check both subsolution inequalities on the shell grid.

    Every grid point sits strictly outside the excised ellipsoid (a grid
    touching it is rejected).  Eigenvalues come from batched symmetric
    eigendecompositions of the rank-one Hessians; the phase gap and the
    level value are evaluated at every point and their minima reported.
    The level inequality is gated on the scale-free level value (divided by
    prod_j sqrt(1 + lambda_j^2)), so the verdict does not depend on the
    size of the eigenvalues.
    """
    if grid is None:
        grid = ShellGrid()
    if grid.r_min_scale <= 1.0:
        raise ValueError("grid touching the excised ellipsoid")
    r_min = spec.gamma * grid.r_min_scale
    if grid.r_max <= r_min:
        raise ValueError("r_max must exceed the innermost shell")
    n = spec.diag.size
    axes = np.vstack([np.eye(n), -np.eye(n)])
    dirs = np.vstack([axes, sphere_directions(n, grid.directions)])
    a = spec.diag
    # radius of each direction point in the A-metric, for rescaling
    ra = np.sqrt((dirs * dirs) @ a)
    radii = np.geomspace(r_min, grid.r_max, grid.shells)

    nus = (1.0 + spec.pf.excess_at(spec.beta, radii)).tolist()

    blocks = []
    pts = []
    for rho, nu in zip(radii.tolist(), nus):
        x = (rho / ra)[:, None] * dirs
        dpsi = spec.pf.slope(nu) / rho
        q = x * a
        m = (dpsi / rho) * q[:, :, None] * q[:, None, :]
        m[:, np.arange(n), np.arange(n)] += nu * a
        blocks.append(m)
        pts.append(x)
    stack = np.concatenate(blocks)
    points = np.concatenate(pts)

    lam = np.linalg.eigvalsh(stack)
    gaps = np.arctan(lam).sum(axis=1) - spec.theta
    c = np.asarray(phase_coeffs(spec.phase_spec))
    levels = elem_sym_stack(lam) @ c
    # divide by prod sqrt(1 + lam^2) >= 1, formed as a log so it cannot
    # overflow
    scaled = levels * np.exp(-np.log(np.hypot(1.0, lam)).sum(axis=1))

    i_gap = int(np.argmin(gaps))
    i_lev = int(np.argmin(levels))
    worst = points[i_gap] if gaps[i_gap] <= levels[i_lev] else points[i_lev]
    min_gap = float(gaps[i_gap])
    min_level = float(levels[i_lev])
    min_scaled = float(scaled.min())
    return VerificationReport(points=stack.shape[0],
                              min_phase_gap=min_gap,
                              min_level_value=min_level,
                              min_level_scaled=min_scaled,
                              worst_point=worst,
                              passed=bool(min_gap >= -tolerance
                                          and min_scaled >= -tolerance))


def normalize_problem(A, b=None) -> tuple:
    """Spectral reduction A = Q^T Lambda Q with ascending diagonal Lambda.

    Already-diagonal ascending input returns (A, I) untouched (no hidden
    permutation).  The linear term b only shifts the boundary data of the
    reduced problem (u(x) = u~(Qx) + b^T x) and does not enter the result.
    The reconstruction residual is checked to 1e-12 relative.
    """
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")
    d = np.diag(arr).copy()
    if np.all(arr == np.diag(d)) and np.all(np.diff(d) >= 0):
        return arr.copy(), np.eye(arr.shape[0])
    w, v = np.linalg.eigh(arr)
    lam = np.diag(w)
    qmat = v.T
    residual = np.linalg.norm(qmat.T @ lam @ qmat - arr)
    if residual > 1e-12 * max(1.0, np.linalg.norm(arr)):
        raise ValueError("spectral reconstruction residual too large")
    return lam, qmat
