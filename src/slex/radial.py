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

One problem (theta, a) is analysed once: partial_fractions certifies the
ray roots, builds the slope-field pair (num, den), the residues and m, and
stores the sub-unit terms (root_j, m K_j) of log B as Python floats.  The
pair and m come from one weights.weight_profile, whose sigma row also gives
den, the ray polynomial's coefficients.  The
returned PartialFractions is passed on (pf=...) to both profile routes, the
tail integrals and the subsol module, and
PartialFractions.implicit_excess(beta) fixes log(beta - 1) + log B(beta)
and log B(1) once per beta.  Polynomials in the hot loops are evaluated by
Horner's rule on Python floats, in numpy's polyval order, so every value is
bit-identical to the array evaluation.

The tail integral int_R^inf tau * (psi(tau) - 1) dtau (finite for m > 2)
is evaluated by quadrature up to a cutoff plus the analytic tail
C * R_cut^(2-m)/(m-2), with C = (beta-1) B(beta)/B(1) the limit of
(psi - 1) * r^m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .phasepoly import PhaseSpec, phase_coeffs, ray_degree, ray_roots
from .weights import WeightProfile, decay_exponent, weight_profile

BETA_CAP = 1.0e6
BETA_WARN = 1.0e3
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_BRENT_RTOL = 4 * np.finfo(float).eps


def check_beta(beta: float) -> float:
    """beta as a float, after checking 1 <= beta <= BETA_CAP.

    Warns (RuntimeWarning) above BETA_WARN, where the residues lose
    conditioning.
    """
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


def _slope_pair(spec: PhaseSpec, prof: WeightProfile):
    """(num, den) from a weight profile's sigma row and selected chain.

    den holds ray_poly's coefficients c_k sigma_k, k = 0..N.
    """
    deg = ray_degree(spec)
    c = phase_coeffs(spec)
    sig = prof.sigma
    sel = prof.selected
    den = np.array([c[k] * sig[k] for k in range(deg + 1)])
    num = np.array([sel[k] * c[k] * sig[k] for k in range(1, deg + 1)])
    return num, den


def _poly_pair(spec: PhaseSpec, a: Sequence):
    """(num, den) ascending coefficient arrays of the slope-field fraction."""
    return _slope_pair(spec, weight_profile(spec, a))


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


def _horner(coeffs: Sequence, x: float) -> float:
    """Ascending coefficients evaluated at x in numpy polyval's order.

    Same operations as npoly.polyval on a scalar (c0 = c[i] + c0*x, started
    from c[-1] + x*0), so the result is bit-identical, without the array
    overhead.
    """
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


@dataclass(frozen=True, eq=False)
class PartialFractions:
    """The analysis of one problem (spec, a) that every route reuses.

    a is the sorted vector; roots are the certified ray roots ascending
    with 1.0 last, weights the residues aligned with them.  weights[-1],
    the residue at the root 1, equals 1/m; the full set recombines to
    num/den away from the poles.  num and den are the ascending
    coefficients of the slope-field pair, as Python floats.  terms holds
    the sub-unit pairs (root_j, m*K_j), the data of log B.
    """
    spec: PhaseSpec
    a: np.ndarray
    roots: np.ndarray
    weights: np.ndarray
    m: float
    num: tuple
    den: tuple
    terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # m * weights[:-1] rounds each product exactly as m * K_j does
        object.__setattr__(self, "terms", tuple(zip(
            self.roots[:-1].tolist(), (self.m * self.weights[:-1]).tolist())))

    def check_problem(self, spec: PhaseSpec, a: Sequence) -> None:
        """Raise ValueError unless this is the analysis of (spec, a)."""
        if spec != self.spec or not np.array_equal(
                self.a, np.sort(np.asarray(a, dtype=float))):
            raise ValueError("partial fractions of another problem")

    def slope(self, nu: float) -> float:
        """g(nu) = -den(nu)/num(nu), for nu >= 1 where num is positive."""
        return -_horner(self.den, nu) / _horner(self.num, nu)

    def implicit_excess(self, beta: float) -> Callable[[float], float]:
        """The map r -> psi(r, beta) - 1, for r >= 1, by the implicit form.

        Solves (delta) B(1+delta) = (beta-1) B(beta) r^(-m) for the excess.
        The left side is strictly increasing in delta, so the root in
        [0, beta-1] is unique; it is found by Brent's method on the log of
        the excess, where the equation is well-scaled even when delta
        underflows toward 1e-300.  log(beta-1) + log B(beta) and log B(1)
        are computed once here, in the order the single-radius formula
        uses, so each radius costs one bracket and one brentq.
        """
        if beta == 1.0:
            return _no_excess
        terms = self.terms
        m = self.m
        u_hi = math.log(beta - 1.0)
        head = u_hi + _log_b(terms, beta)
        log_b_one = _log_b(terms, 1.0)

        def gap(u: float, target: float) -> float:
            return u + _log_b(terms, 1.0 + math.exp(u)) - target

        def excess(r: float) -> float:
            if r < 1.0:
                raise ValueError("r must be at least 1")
            if r == 1.0:
                return beta - 1.0
            target = head - m * math.log(r)
            u_lo = min(target - log_b_one, u_hi - 1.0)
            for _ in range(400):
                if gap(u_lo, target) <= 0.0:
                    break
                u_lo -= 2.0
            else:
                raise RuntimeError("implicit bracket not found")
            u = brentq(gap, u_lo, u_hi, args=(target,), xtol=1e-14,
                       rtol=_BRENT_RTOL)
            return math.exp(u)

        return excess


def _no_excess(r: float) -> float:
    if r < 1.0:
        raise ValueError("r must be at least 1")
    return 0.0


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
    prof = weight_profile(spec, arr)
    if prof.m is None:
        raise ValueError("a not on the phase level set")
    num, den = _slope_pair(spec, prof)
    weights = npoly.polyval(roots, num) / npoly.polyval(roots, npoly.polyder(den))
    m = prof.m
    if abs(weights[-1] - 1.0 / m) > 1e-10:
        raise ValueError("partial-fraction residue at 1 disagrees with 1/m")
    return PartialFractions(spec=spec, a=arr, roots=roots, weights=weights,
                            m=float(m), num=tuple(num.tolist()),
                            den=tuple(den.tolist()))


def _log_b(terms: tuple, nu: float) -> float:
    """log of B(nu) = prod over sub-unit roots of (nu - root)^(m * K)."""
    total = 0.0
    for root, mk in terms:
        gap = nu - root
        if gap <= 0.0:
            raise ValueError("B(nu) undefined at or below the second root")
        total += mk * math.log(gap)
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
    return (beta - 1.0) * math.exp(_log_b(pf.terms, beta)
                                   - _log_b(pf.terms, 1.0))


def _analysis(spec: PhaseSpec, a: Sequence,
              pf: Optional[PartialFractions]) -> PartialFractions:
    """pf checked against (spec, a), or a fresh analysis when pf is None."""
    if pf is None:
        return partial_fractions(spec, a)
    pf.check_problem(spec, a)
    return pf


def profile_implicit(spec: PhaseSpec, a: Sequence, beta: float, r,
                     pf: Optional[PartialFractions] = None):
    """psi(r, beta) by the implicit closed form; r may be scalar or array."""
    beta = check_beta(beta)
    pf = _analysis(spec, a, pf)
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 1.0):
        raise ValueError("r must be at least 1")
    excess = pf.implicit_excess(beta)
    out = np.array([1.0 + excess(rr) for rr in np.atleast_1d(rs)])
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
                  num_samples: int = 241, route: str = "numeric",
                  pf: Optional[PartialFractions] = None) -> ProfileSolution:
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

    pf, the problem's partial_fractions(spec, a), supplies m and the
    slope-field pair to both routes; without it the numeric route builds
    only the pair and m, never the ray roots.
    """
    beta = check_beta(beta)
    if not (1.0 < r_max < math.inf):
        raise ValueError("r_max must be finite and exceed 1")
    rs = np.geomspace(1.0, r_max, num_samples)
    rs[0] = 1.0
    if pf is not None:
        pf.check_problem(spec, a)
    m = decay_exponent(spec, a) if pf is None else pf.m

    if beta == 1.0:
        excess = np.zeros_like(rs)
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route=route, m=m)

    if route == "numeric":
        if pf is None:
            num, den = (tuple(c.tolist()) for c in _poly_pair(spec, a))
        else:
            num, den = pf.num, pf.den
        shifted = list(den)
        for j in range(len(shifted)):
            for i in range(len(shifted) - 2, j - 1, -1):
                shifted[i] += shifted[i + 1]
        reduced = tuple(shifted[1:])

        def rhs(_s, y):
            d = math.exp(y[0])
            return (-_horner(reduced, d) / _horner(num, 1.0 + d),)

        sol = solve_ivp(rhs, (0.0, math.log(r_max)),
                        (math.log(beta - 1.0),), method="DOP853",
                        rtol=tol, atol=0.1 * tol, t_eval=np.log(rs))
        if not sol.success:
            raise RuntimeError("integration failed")
        excess = np.exp(sol.y[0])
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route="numeric", m=m)

    if route == "implicit":
        if pf is None:
            pf = partial_fractions(spec, a)
        solver = pf.implicit_excess(beta)
        excess = np.array([solver(rr) for rr in rs])
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
    beta = check_beta(beta)
    if not R >= 1.0:
        raise ValueError("R must be at least 1")
    pf = _analysis(spec, a, pf)
    if pf.m <= 2.0:
        raise ValueError("integral may diverge")
    if beta == 1.0:
        return 0.0
    r_cut = max(1.0e3, 1.0e2 * R)
    if 2.0 * math.log(r_cut) > _LOG_FLOAT_MAX:
        raise ValueError("R too large: the quadrature weight tau^2 overflows")
    excess = pf.implicit_excess(beta)

    def integrand(s: float) -> float:
        return math.exp(2.0 * s) * excess(math.exp(s))

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
