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

  * numeric: the Dormand-Prince 5(4) pair (Dormand & Prince 1980,
    J. Comput. Appl. Math. 6) on d(log delta)/ds = g(1 + delta)/delta in
    s = log r for the excess delta = psi - 1.  Working in the log of the
    excess keeps the tail representable (delta reaches 1e-24 and below for
    large m) where psi itself would round to 1.  It integrates the ODE and
    never evaluates B.
  * implicit: the partial fractions num/den = sum_j K_j/(nu - root_j), with
    K_1 = 1/m at the root 1, integrate in closed form to

        (psi - 1) * B(psi) = (beta - 1) * B(beta) * r^(-m),
        B(nu) = prod_{roots < 1} (nu - root_j)^(m K_j),

    whose left side is strictly increasing in psi on [1, beta]; all radii
    are solved at once by a safeguarded Newton iteration on the log of the
    excess.

One problem (theta, a) is analysed once: partial_fractions certifies the
ray roots, builds the slope-field pair (num, den), the residues and m, and
stores the sub-unit terms (root_j, m K_j) of log B as Python floats.  The
pair and m come from one weights.weight_profile, whose sigma row also gives
den, the ray polynomial's coefficients.  The returned PartialFractions is
passed on (pf=...) to both profile routes, the tail integrals and the
subsol module.  Polynomials in the numeric route are evaluated by Horner's
rule on Python floats, in numpy's polyval order, so every value is
bit-identical to the array evaluation.

The tail integral int_R^inf tau * (psi(tau) - 1) dtau (finite for m > 2)
is evaluated by composite Gauss-Legendre quadrature in log radius up to a
cutoff plus the analytic tail C * R_cut^(2-m)/(m-2), with
C = (beta-1) B(beta)/B(1) the limit of (psi - 1) * r^m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .phasepoly import PhaseSpec, phase_coeffs, ray_degree, ray_roots
from .weights import WeightProfile, decay_exponent, weight_profile

BETA_CAP = 1.0e6
BETA_WARN = 1.0e3
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# stopping rule of the implicit Newton iteration on u = log(excess): a step
# no larger than _U_XTOL + _U_RTOL * |u|
_U_XTOL = 1e-14
_U_RTOL = 4 * np.finfo(float).eps
_NEWTON_CAP = 200
_BRACKET_CAP = 400
# composite Gauss-Legendre rule of the excess integrals
_GL_X, _GL_W = legendre.leggauss(16)
_GL_PANELS = 8
_GL_MAX_PANELS = 4096
_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-11


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


# Dormand-Prince 5(4): stage coefficients a_ij, the fifth-order weights b_j
# (also the last stage's row, first same as last) and the error weights
# e_j = b_j - b*_j against the embedded fourth-order solution
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _dormand_prince(f: Callable[[float], float], y0: float, s_out: list,
                    rtol: float, atol: float) -> list:
    """y at every point of s_out for y' = f(y), y(s_out[0]) = y0.

    The Dormand-Prince 5(4) pair on Python floats with local extrapolation
    and the standard step control: a step is accepted when its error
    estimate is at most atol + rtol * max(|y|, |y_new|), and the next step
    is scaled by 0.9 * err^(-1/5) clipped to [0.2, 10] (at most 1 right
    after a rejection).  s_out must increase; steps are cut to land exactly
    on each of its points, so no dense output is needed.  The first trial
    step is the first output interval.  Raises RuntimeError when the error
    estimate is not finite or the step collapses below 10 ulps of s.
    """
    ys = [y0]
    s, y = s_out[0], y0
    k1 = f(y)
    h = s_out[1] - s if len(s_out) > 1 else 0.0
    rejected = False
    for s_next in s_out[1:]:
        while s < s_next:
            last = h >= s_next - s
            step = s_next - s if last else h
            if step < 10.0 * math.ulp(s):
                raise RuntimeError("integration failed")
            k2 = f(y + step * (_A21 * k1))
            k3 = f(y + step * (_A31 * k1 + _A32 * k2))
            k4 = f(y + step * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = f(y + step * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = f(y + step * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                               + _A65 * k5))
            y_new = y + step * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5
                                + _B6 * k6)
            k7 = f(y_new)
            err = step * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5
                          + _E6 * k6 + _E7 * k7)
            norm = abs(err) / (atol + rtol * max(abs(y), abs(y_new)))
            if not math.isfinite(norm):
                raise RuntimeError("integration failed")
            if norm < 1.0:
                factor = (_MAX_FACTOR if norm == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * norm ** -0.2))
                if rejected:
                    factor = min(1.0, factor)
                s = s_next if last else s + step
                y, k1 = y_new, k7
                rejected = False
            else:
                factor = max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
                rejected = True
            h = step * factor
        ys.append(y)
    return ys


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

    def excess_at(self, beta: float, r) -> np.ndarray:
        """psi(r, beta) - 1 at every radius of r (all >= 1), same shape.

        Solves F(u) = u + log B(1 + e^u) - log(beta-1) - log B(beta)
        + m log r = 0 for u = log(excess), where the equation stays
        well-scaled even when the excess underflows toward 1e-300.  F is
        strictly increasing, F'(u) = 1 + e^u sum_j m K_j/(1 + e^u - root_j)
        = m (num/den)(1 + e^u) e^u > 0, and F(log(beta-1)) = m log r >= 0,
        so the root is unique.  All radii are solved at once: a lower
        bracket is searched in steps of 2, then Newton runs from
        u = log(beta-1) and bisects whenever a step would leave the
        bracket (the residues m K_j can have mixed signs, so plain Newton
        may overshoot).  A radius stops after a step no larger than
        1e-14 + 4 eps |u|, or when a step lands on an end of its bracket
        (a cycle at rounding level); r = 1 gives beta - 1 exactly.
        """
        rs = np.asarray(r, dtype=float)
        if not np.all(rs >= 1.0):
            raise ValueError("r must be at least 1")
        if beta == 1.0:
            return np.zeros_like(rs)
        flat = rs.ravel()
        u_hi = math.log(beta - 1.0)
        target = u_hi + _log_b(self.terms, beta) - self.m * np.log(flat)

        def residual(u):
            # F and F' term by term, in _log_b's order, so that every radius
            # gets the same bits alone as in a batch
            e = np.exp(u)
            nu = 1.0 + e
            log_b = np.zeros_like(u)
            slope = np.zeros_like(u)
            for root, mk in self.terms:
                gap = nu - root
                log_b += mk * np.log(gap)
                slope += mk / gap
            return u + log_b - target, 1.0 + e * slope

        lo = np.minimum(target - _log_b(self.terms, 1.0), u_hi - 1.0)
        for _ in range(_BRACKET_CAP):
            high = residual(lo)[0] > 0.0
            if not high.any():
                break
            lo = np.where(high, lo - 2.0, lo)
        else:
            raise RuntimeError("implicit bracket not found")
        hi = np.full_like(target, u_hi)
        u = hi.copy()
        active = flat > 1.0
        for _ in range(_NEWTON_CAP):
            if not active.any():
                break
            f, df = residual(u)
            lo = np.where(f <= 0.0, u, lo)
            hi = np.where(f > 0.0, u, hi)
            # a slope that rounding made non-positive gives a NaN step; a
            # step landing on an end of the bracket is a cycle at rounding
            # level, so the radius has converged; any other step that
            # leaves the bracket is replaced by bisection
            newton = u - f / np.where(df > 0.0, df, np.nan)
            landed = (newton == lo) | (newton == hi)
            inside = landed | ((lo < newton) & (newton < hi))
            step = np.where(inside, newton, 0.5 * (lo + hi))
            done = landed | (np.abs(step - u)
                             <= _U_XTOL + _U_RTOL * np.abs(step))
            u = np.where(active, step, u)
            active &= ~done
        else:
            raise RuntimeError("implicit Newton iteration did not converge")
        out = np.exp(u)
        out[flat == 1.0] = beta - 1.0
        return out.reshape(rs.shape)

    def excess_integral(self, beta: float, r_lo: float, r_hi: float) -> float:
        """int_{r_lo}^{r_hi} tau (psi(tau, beta) - 1) dtau, 1 <= r_lo <= r_hi.

        Composite 16-point Gauss-Legendre in s = log tau on the analytic
        integrand e^(2s) (psi(e^s) - 1), with excess_at supplying every
        node at once.  The panel count starts at 8 and doubles until two
        successive estimates agree within 1e-13 absolute or 1e-11
        relative; the finer estimate is returned.
        """
        if beta == 1.0 or r_lo == r_hi:
            return 0.0
        s_lo = math.log(r_lo)
        width = math.log(r_hi) - s_lo
        prev = None
        panels = _GL_PANELS
        while panels <= _GL_MAX_PANELS:
            h = width / panels
            nodes = ((s_lo + h * np.arange(panels))[:, None]
                     + (0.5 * h) * (1.0 + _GL_X)).ravel()
            tau = np.exp(nodes)
            est = 0.5 * h * float(np.dot(np.tile(_GL_W, panels),
                                         tau * tau * self.excess_at(beta, tau)))
            if prev is not None and abs(est - prev) <= max(
                    _QUAD_EPSABS, _QUAD_EPSREL * abs(est)):
                return est
            prev = est
            panels *= 2
        raise RuntimeError("excess quadrature did not converge")


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
    psi = 1.0 + pf.excess_at(beta, r)
    if psi.ndim == 0:
        return float(psi)
    return psi


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

    route="numeric" integrates the log of the excess with the
    Dormand-Prince 5(4) pair (rtol=tol, atol=tol/10), stepping exactly onto
    every sample radius.  The equilibrium factor of the ray polynomial is
    extracted exactly first (Taylor shift to nu = 1, the constant term
    dropped: it is the float-rounding residue of the level membership
    already certified, and keeping it would move the fixed point off
    psi = 1 and stall the step controller once the excess decays below
    machine epsilon).  In log variables the slope is smooth and O(1), so
    the route stays accurate down to excesses far below 1e-16 without tiny
    steps.  route="implicit" solves the closed form at all sample radii at
    once (PartialFractions.excess_at).

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

        def rhs(y):
            d = math.exp(y)
            return -_horner(reduced, d) / _horner(num, 1.0 + d)

        excess = np.exp(_dormand_prince(rhs, math.log(beta - 1.0),
                                        np.log(rs).tolist(), tol, 0.1 * tol))
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route="numeric", m=m)

    if route == "implicit":
        if pf is None:
            pf = partial_fractions(spec, a)
        excess = pf.excess_at(beta, rs)
        return ProfileSolution(beta=beta, r=rs, psi=1.0 + excess,
                               excess=excess, route="implicit", m=m, pf=pf)

    raise ValueError("route must be 'numeric' or 'implicit'")


def tail_integral(spec: PhaseSpec, a: Sequence, beta: float, R: float,
                  pf: Optional[PartialFractions] = None) -> float:
    """int_R^inf tau (psi(tau, beta) - 1) dtau, finite exactly when m > 2.

    Gauss-Legendre quadrature in log radius against the implicit route
    (PartialFractions.excess_integral) covers [R, R_cut] with
    R_cut = max(1e3, 1e2 * R); beyond the cutoff the integrand is
    C tau^(1-m) to leading order and is added analytically.
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
    body = pf.excess_integral(beta, R, r_cut)
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
