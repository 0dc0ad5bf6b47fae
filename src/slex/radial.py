"""The radial profile ODE for the subsolution construction, solved two ways.

For a level-set point a (phase theta, coefficients c_k, selected weights
s_k from the weights module) define the polynomial pair

    den(nu) = sum_{k=0}^{N} c_k sigma_k(a) nu^k        (the ray polynomial:
              all roots real and simple, the largest equal to 1)
    num(nu) = sum_{k=1}^{N} s_k c_k sigma_k(a) nu^(k-1)  (positive on nu >= 1).

The profile psi(r, beta) is the unique solution of

    psi'(r) = g(psi)/r,    g(nu) = -den(nu)/num(nu),    psi(1) = beta >= 1,

which decreases from beta to 1 with excess psi - 1 of size r^(-m), where
m = -g'(1) is the decay exponent.  Two independent routes are implemented:

  * numeric: adaptive Runge-Kutta on d(delta)/ds = g(1 + delta) in
    s = log r for the excess delta = psi - 1.  Working in the excess keeps
    the tail representable (delta reaches 1e-24 and below for large m)
    where psi itself would round to 1.
  * implicit: the partial fractions num/den = sum_j K_j/(nu - root_j), with
    K_1 = 1/m at the root 1, integrate in closed form to

        (psi - 1) * B(psi) = (beta - 1) * B(beta) * r^(-m),
        B(nu) = prod_{roots < 1} (nu - root_j)^(m K_j),

    whose left side is strictly increasing in psi on [1, beta]; each radius
    is solved by bracketed root finding on the log of the excess.

The tail integral int_R^inf tau * (psi(tau) - 1) dtau (finite for m > 2)
is evaluated by quadrature up to a cutoff plus the analytic tail
C * R_cut^(2-m)/(m-2), with C = (beta-1) B(beta)/B(1) the limit of
(psi - 1) * r^m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .phasepoly import PhaseSpec, phase_coeffs, ray_poly, ray_roots
from .symfun import elem_sym_all
from .weights import decay_exponent, weight_profile

BETA_CAP = 1.0e6
BETA_WARN = 1.0e3
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    if beta > BETA_CAP:
        raise ValueError("beta above the supported cap 1e6")
    if beta > BETA_WARN:
        warnings.warn("beta above 1e3: residue conditioning degrades",
                      RuntimeWarning, stacklevel=3)
    return beta


def _poly_pair(spec: PhaseSpec, a: Sequence):
    """(num, den) ascending coefficient arrays of the slope-field fraction."""
    arr = np.sort(np.asarray(a, dtype=float))
    den = ray_poly(spec, arr)
    deg = len(den) - 1
    sig = elem_sym_all(arr.tolist())
    c = phase_coeffs(spec)
    sel = weight_profile(spec, arr).selected
    num = np.array([sel[k] * c[k] * sig[k] for k in range(1, deg + 1)])
    return num, den


def slope_field(spec: PhaseSpec, a: Sequence, nu: float) -> float:
    """g(nu) = -den(nu)/num(nu); zero at nu = 1, negative beyond.

    The denominator is positive for nu >= 1; it can only fail to be for
    nu < 1, which is rejected.
    """
    num, den = _poly_pair(spec, a)
    w = float(npoly.polyval(nu, num))
    if w <= 0.0:
        raise ValueError("slope-field denominator not positive below nu = 1")
    return -float(npoly.polyval(nu, den)) / w


def slope_field_deriv(spec: PhaseSpec, a: Sequence, nu: float) -> float:
    """g'(nu); equals -m at nu = 1 and tends to -1/selected_N as nu grows."""
    num, den = _poly_pair(spec, a)
    w = float(npoly.polyval(nu, num))
    if w <= 0.0:
        raise ValueError("slope-field denominator not positive below nu = 1")
    z = float(npoly.polyval(nu, den))
    dw = float(npoly.polyval(nu, npoly.polyder(num)))
    dz = float(npoly.polyval(nu, npoly.polyder(den)))
    return -(dz * w - z * dw) / (w * w)


@dataclass(frozen=True, eq=False)
class PartialFractions:
    """Residue data of num/den: roots ascending with 1.0 last, weights aligned.

    weights[-1], the residue at the root 1, equals 1/m; the full set
    recombines to num/den away from the poles.
    """
    roots: np.ndarray
    weights: np.ndarray
    m: float


def partial_fractions(spec: PhaseSpec, a: Sequence) -> PartialFractions:
    """Residues K_j = num(root_j)/den'(root_j) at the certified ray roots.

    Requires a on the level set (so that 1 is the largest root); the root
    certificate guarantees simple poles.  The residue at 1 is checked
    against 1/m to 1e-10.
    """
    arr = np.sort(np.asarray(a, dtype=float))
    cert = ray_roots(spec, arr)
    if not cert.max_root_is_one:
        raise ValueError("a not on the phase level set")
    roots = cert.roots.copy()
    roots[-1] = 1.0
    num, den = _poly_pair(spec, arr)
    weights = npoly.polyval(roots, num) / npoly.polyval(roots, npoly.polyder(den))
    m = decay_exponent(spec, arr)
    if abs(weights[-1] - 1.0 / m) > 1e-10:
        raise ValueError("partial-fraction residue at 1 disagrees with 1/m")
    return PartialFractions(roots=roots, weights=weights, m=float(m))


def _log_b(pf: PartialFractions, nu: float) -> float:
    """log of B(nu) = prod over sub-unit roots of (nu - root)^(m * K)."""
    total = 0.0
    for root, k in zip(pf.roots[:-1], pf.weights[:-1]):
        gap = nu - root
        if gap <= 0.0:
            raise ValueError("B(nu) undefined at or below the second root")
        total += pf.m * k * math.log(gap)
    return total


def tail_amplitude(pf: PartialFractions, beta: float) -> float:
    """(beta-1) B(beta)/B(1): the limit of (psi - 1) r^m along the tail."""
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    if beta == 1.0:
        return 0.0
    return (beta - 1.0) * math.exp(_log_b(pf, beta) - _log_b(pf, 1.0))


def _implicit_excess(pf: PartialFractions, beta: float, r: float) -> float:
    """Solve (delta) B(1+delta) = (beta-1) B(beta) r^(-m) for the excess.

    The left side is strictly increasing in delta, so the root in
    [0, beta-1] is unique; it is found by Brent's method on the log of the
    excess, where the equation is well-scaled even when delta underflows
    toward 1e-300.
    """
    if r < 1.0:
        raise ValueError("r must be at least 1")
    if beta == 1.0:
        return 0.0
    target = math.log(beta - 1.0) + _log_b(pf, beta) - pf.m * math.log(r)
    u_hi = math.log(beta - 1.0)
    if r == 1.0:
        return beta - 1.0

    def gap(u: float) -> float:
        return u + _log_b(pf, 1.0 + math.exp(u)) - target

    u_lo = min(target - _log_b(pf, 1.0), u_hi - 1.0)
    for _ in range(400):
        if gap(u_lo) <= 0.0:
            break
        u_lo -= 2.0
    else:
        raise RuntimeError("implicit bracket not found")
    u = brentq(gap, u_lo, u_hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    return math.exp(u)


def profile_implicit(spec: PhaseSpec, a: Sequence, beta: float, r,
                     pf: Optional[PartialFractions] = None):
    """psi(r, beta) by the implicit closed form; r may be scalar or array."""
    beta = _check_beta(beta)
    if pf is None:
        pf = partial_fractions(spec, a)
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 1.0):
        raise ValueError("r must be at least 1")
    flat = np.atleast_1d(rs)
    out = np.array([1.0 + _implicit_excess(pf, beta, rr) for rr in flat])
    if rs.ndim == 0:
        return float(out[0])
    return out


@dataclass(frozen=True, eq=False)
class ProfileSolution:
    """A sampled trajectory of the profile.

    r is increasing from 1; psi = 1 + excess is nonincreasing with
    1 <= psi <= beta; excess carries the tail at full precision where psi
    itself would round to 1.  route records which solver produced it.
    """
    beta: float
    r: np.ndarray
    psi: np.ndarray
    excess: np.ndarray
    route: str
    m: float
    pf: Optional[PartialFractions] = None

    def __post_init__(self):
        if self.route not in ("numeric", "implicit"):
            raise ValueError("route must be 'numeric' or 'implicit'")
        if np.any(np.diff(self.r) <= 0) or self.r[0] < 1.0:
            raise ValueError("sample radii must increase from at least 1")
        if np.any(self.excess < 0.0):
            raise ValueError("profile fell below the barrier psi = 1")
        if np.any(self.excess > (self.beta - 1.0) * (1.0 + 1e-9) + 1e-12):
            raise ValueError("profile exceeded its initial value beta")
        if np.any(np.diff(self.excess) > 1e-9 * self.excess[:-1] + 1e-300):
            raise ValueError("profile is not nonincreasing")


def solve_profile(spec: PhaseSpec, a: Sequence, beta: float,
                  r_max: float = 1.0e4, tol: float = 1e-12,
                  num_samples: int = 241, route: str = "numeric"
                  ) -> ProfileSolution:
    """Sample the profile on log-spaced radii in [1, r_max] by either route.

    route="numeric" integrates the log of the excess with an adaptive
    embedded Runge-Kutta pair of order 8.  The equilibrium factor of the
    ray polynomial is extracted exactly first (Taylor shift to nu = 1, the
    constant term dropped: it is the float-rounding residue of the level
    membership already certified, and keeping it would move the fixed point
    off psi = 1 and stall the step controller once the excess decays below
    machine epsilon).  In log variables the slope is smooth and O(1), so
    the route stays accurate down to excesses far below 1e-16 without tiny
    steps.  route="implicit" evaluates the closed form pointwise.
    """
    beta = _check_beta(beta)
    if not (1.0 < r_max < math.inf):
        raise ValueError("r_max must be finite and exceed 1")
    rs = np.geomspace(1.0, r_max, num_samples)
    rs[0] = 1.0
    m = decay_exponent(spec, a)

    if beta == 1.0:
        excess = np.zeros_like(rs)
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route=route, m=m)

    if route == "numeric":
        num, den = _poly_pair(spec, a)
        shifted = den.copy()
        for j in range(shifted.size):
            for i in range(shifted.size - 2, j - 1, -1):
                shifted[i] += shifted[i + 1]
        reduced = shifted[1:]

        def rhs(_s, y):
            d = math.exp(y[0])
            return (-npoly.polyval(d, reduced)
                    / npoly.polyval(1.0 + d, num),)

        sol = solve_ivp(rhs, (0.0, math.log(r_max)),
                        (math.log(beta - 1.0),), method="DOP853",
                        rtol=tol, atol=0.1 * tol, t_eval=np.log(rs))
        if not sol.success:
            raise RuntimeError("integration failed")
        excess = np.exp(sol.y[0])
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route="numeric", m=m)

    if route == "implicit":
        pf = partial_fractions(spec, a)
        excess = np.array([_implicit_excess(pf, beta, rr) for rr in rs])
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route="implicit", m=m, pf=pf)

    raise ValueError("route must be 'numeric' or 'implicit'")


def tail_integral(spec: PhaseSpec, a: Sequence, beta: float, R: float,
                  pf: Optional[PartialFractions] = None) -> float:
    """int_R^inf tau (psi(tau, beta) - 1) dtau, finite exactly when m > 2.

    Quadrature (in log radius, against the implicit route) covers
    [R, R_cut] with R_cut = max(1e3, 1e2 * R); beyond the cutoff the
    integrand is C tau^(1-m) to leading order and is added analytically.
    """
    beta = _check_beta(beta)
    if not R >= 1.0:
        raise ValueError("R must be at least 1")
    if pf is None:
        pf = partial_fractions(spec, a)
    if pf.m <= 2.0:
        raise ValueError("integral may diverge")
    if beta == 1.0:
        return 0.0
    r_cut = max(1.0e3, 1.0e2 * R)
    if 2.0 * math.log(r_cut) > _LOG_FLOAT_MAX:
        raise ValueError("R too large: the quadrature weight tau^2 overflows")

    def integrand(s: float) -> float:
        return math.exp(2.0 * s) * _implicit_excess(pf, beta, math.exp(s))

    body, _err = quad(integrand, math.log(R), math.log(r_cut),
                      epsabs=1e-13, epsrel=1e-11, limit=200)
    tail = tail_amplitude(pf, beta) * r_cut ** (2.0 - pf.m) / (pf.m - 2.0)
    return body + tail


def decay_fit(sol: ProfileSolution) -> tuple:
    """(m_est, amp_est) from log-log least squares over the last decade.

    Requires a trajectory with beta > 1 reaching r >= 1e3 so the tail is in
    its power-law regime; returns the fitted exponent and amplitude of
    excess = amp * r^(-m_est).
    """
    if sol.beta <= 1.0:
        raise ValueError("no decay to fit at beta = 1")
    if sol.r[-1] < 1.0e3:
        raise ValueError("trajectory must reach r = 1e3")
    mask = sol.r >= sol.r[-1] / 10.0
    if np.count_nonzero(mask) < 5 or np.any(sol.excess[mask] <= 0.0):
        raise ValueError("not enough positive tail samples to fit")
    slope, intercept = np.polyfit(np.log(sol.r[mask]),
                                  np.log(sol.excess[mask]), 1)
    return float(-slope), float(math.exp(intercept))
