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
    of one call are solved at once by a safeguarded Newton iteration on the
    log of the excess, which stops on a small step or on a step that
    overshoots its bracket by at most the tolerance (excess_at).  The terms
    of log B and of its slope form (terms x radii) arrays whose rows are
    added in term order, so one radius alone gets the bits it gets in any
    batch.  Its cost is mostly fixed per call, so each stage makes one
    call: the implicit route on its 241 sample radii, the tail quadrature
    on its first two levels and then on each later one, and the subsol
    grid on its shells.

One problem (theta, a) is analysed once.  weights.classify checks it and
builds its WeightProfile: the ascending vector, the level error, m, the
sigma row and the selected chain.  partial_fractions takes that profile
and beta, nothing else.  It re-checks nothing classify checked: it finds
the ray roots, certifies the root 1 and the residue at 1 against bounds
scaled by the profile's level error, builds the slope-field pair
(num, den) from the profile's sigma row and chain, and binds beta,
range-checked by check_beta, with the two constants log B(beta) and
log B(1).
The returned PartialFractions holds the profile itself as pf.prof, and
copies none of its fields.  It is the only input of both profile routes,
the tail integrals and the subsol module, none of which takes beta; it
also evaluates g.  Polynomials in the numeric route are evaluated by
Horner's rule on Python floats, in numpy's polyval order, so every value
is bit-identical to the array evaluation.

The tail integral int_R^inf tau * (psi(tau) - 1) dtau (finite for m > 2)
is evaluated by composite Gauss-Legendre quadrature in log radius up to a
cutoff plus the analytic tail C * R_cut^(2-m)/(m-2), with
C = (beta-1) B(beta)/B(1) the limit of (psi - 1) * r^m.  Several radii
share one pass: one call of the implicit route solves the nodes of the
first two quadrature levels (8 and 16 panels, the two estimates the
stopping test needs) of every radius, and each later level those of every
radius not yet converged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .phasepoly import ray_roots
from .weights import WeightProfile

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
_PROFILE_TOL = 1e-12  # numeric route: rtol, and atol a tenth of it
_PROFILE_SAMPLES = 241  # log-spaced sample radii of solve_profile


def check_beta(beta: float) -> float:
    """beta as a float, after checking 1 <= beta <= BETA_CAP."""
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    if beta > BETA_CAP:
        raise ValueError("beta above the supported cap 1e6")
    return beta


def _slope_pair(prof: WeightProfile):
    """(num, den) from a weight profile's sigma row and selected chain.

    den holds the ray polynomial's coefficients c_k sigma_k, k = 0..N.
    """
    deg = prof.spec.ray_degree
    c = prof.spec.coeffs
    sig = prof.sigma
    sel = prof.selected
    den = np.array([c[k] * sig[k] for k in range(deg + 1)])
    num = np.array([sel[k] * c[k] * sig[k] for k in range(1, deg + 1)])
    return num, den


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
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    ulp, isfinite = math.ulp, math.isfinite
    ys = [y0]
    s, y = s_out[0], y0
    k1 = f(y)
    h = s_out[1] - s if len(s_out) > 1 else 0.0
    rejected = False
    for s_next in s_out[1:]:
        while s < s_next:
            last = h >= s_next - s
            step = s_next - s if last else h
            if step < 10.0 * ulp(s):
                raise RuntimeError("integration failed")
            k2 = f(y + step * (a21 * k1))
            k3 = f(y + step * (a31 * k1 + a32 * k2))
            k4 = f(y + step * (a41 * k1 + a42 * k2 + a43 * k3))
            k5 = f(y + step * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
            k6 = f(y + step * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                               + a65 * k5))
            y_new = y + step * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5
                                + b6 * k6)
            k7 = f(y_new)
            err = step * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5
                          + e6 * k6 + e7 * k7)
            norm = abs(err) / (atol + rtol * max(abs(y), abs(y_new)))
            if not isfinite(norm):
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
    """The residues of one problem, bound to beta, that every route reuses.

    prof is the problem's WeightProfile, the one classify built, shared
    and not copied: the phase spec, the sorted vector a and the exponent
    m are read as prof.spec, prof.a and prof.m.  roots are the real simple
    ray roots ascending with 1.0 last, weights the residues aligned with
    them.  weights[-1], the residue at the root 1, equals 1/m; the full
    set recombines to num/den away from the poles.  num and den are the
    ascending coefficients of the slope-field pair, as Python floats.
    beta = psi(1) passes check_beta on construction, which also warns
    (RuntimeWarning) above BETA_WARN, where the residues lose
    conditioning: once per binding, dataclasses.replace(pf, beta=b),
    which rebinds the analysis to b, included.  log_b_beta and log_b_one
    are log B(beta) and log B(1), summed once from the sub-unit pairs
    (root_j, m*K_j).
    """
    prof: WeightProfile
    roots: np.ndarray
    weights: np.ndarray
    num: tuple
    den: tuple
    beta: float
    log_b_beta: float = field(init=False, repr=False)
    log_b_one: float = field(init=False, repr=False)

    def __post_init__(self):
        beta = check_beta(self.beta)
        if beta > BETA_WARN:
            # names the caller of partial_fractions (or dataclasses.replace)
            warnings.warn("beta above 1e3: residue conditioning degrades",
                          RuntimeWarning, stacklevel=4)
        # m * weights[:-1] rounds each product exactly as m * K_j does
        terms = tuple(zip(self.roots[:-1].tolist(),
                          (self.prof.m * self.weights[:-1]).tolist()))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "log_b_beta", _log_b(terms, beta))
        object.__setattr__(self, "log_b_one", _log_b(terms, 1.0))

    def _num_at(self, nu: float) -> float:
        w = _horner(self.num, nu)
        if w <= 0.0:
            raise ValueError("slope-field denominator not positive below "
                             "nu = 1")
        return w

    def slope(self, nu: float) -> float:
        """g(nu) = -den(nu)/num(nu); zero at nu = 1, negative beyond.

        num is positive for nu >= 1; it can only fail to be for nu < 1,
        which is rejected.
        """
        return -_horner(self.den, nu) / self._num_at(nu)

    def excess_at(self, r) -> np.ndarray:
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
        or overshoots it by at most that tolerance (a cycle at rounding
        level; the step is clipped to the end, where bisection would crawl
        back from the far end); r = 1 gives beta - 1 exactly.  The terms'
        rows are added in _log_b's order by np.add.reduce on axis 0, which
        adds row after row over two or more radii, so that each radius
        gets the same bits alone as in any batch; numpy sums a lone column
        pairwise from 8 terms on, so one radius is solved as two copies.
        """
        rs = np.asarray(r, dtype=float)
        if not np.all(rs >= 1.0):
            raise ValueError("r must be at least 1")
        if self.beta == 1.0:
            return np.zeros_like(rs)
        flat = rs.ravel()
        if flat.size == 1:
            flat = np.repeat(flat, 2)
        m = self.prof.m
        u_hi = math.log(self.beta - 1.0)
        target = u_hi + self.log_b_beta - m * np.log(flat)
        roots = self.roots[:-1, None]
        mks = (m * self.weights[:-1])[:, None]

        def residual(u):
            # F, e^u and the gaps nu - root_j (terms x radii); axis 0 of
            # the C-ordered rows is summed row after row
            e = np.exp(u)
            gap = (1.0 + e) - roots
            return (u + np.add.reduce(mks * np.log(gap), axis=0) - target,
                    e, gap)

        lo = np.minimum(target - self.log_b_one, u_hi - 1.0)
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
            f, e, gap = residual(u)
            df = 1.0 + e * np.add.reduce(mks / gap, axis=0)
            lo = np.where(f <= 0.0, u, lo)
            hi = np.where(f > 0.0, u, hi)
            # a slope that rounding made non-positive gives a NaN step; a
            # step landing on an end of the bracket, or past it by at most
            # the stopping tolerance, is clipped there and has converged
            # (a cycle at rounding level); any other step that leaves the
            # bracket is replaced by bisection.  A step strictly inside is
            # its own clip, so "inside" is "within tolerance of the clip",
            # and a step inside that sits on an end has landed
            newton = u - f / np.where(df > 0.0, df, np.nan)
            near = np.minimum(np.maximum(newton, lo), hi)
            inside = (np.abs(newton - near)
                      <= _U_XTOL + _U_RTOL * np.abs(near))
            landed = inside & ((near == lo) | (near == hi))
            step = np.where(inside, near, 0.5 * (lo + hi))
            done = landed | (np.abs(step - u)
                             <= _U_XTOL + _U_RTOL * np.abs(step))
            u = np.where(active, step, u)
            active &= ~done
        else:
            raise RuntimeError("implicit Newton iteration did not converge")
        out = np.exp(u)
        out[flat == 1.0] = self.beta - 1.0
        return out[:rs.size].reshape(rs.shape)


def _excess_integrals(pf: PartialFractions, bounds: Sequence) -> list:
    """int_{r_lo}^{r_hi} tau (psi(tau, beta) - 1) dtau over each
    (r_lo, r_hi) of bounds, 1 <= r_lo <= r_hi.

    Composite 16-point Gauss-Legendre in s = log tau on the analytic
    integrand e^(2s) (psi(e^s) - 1), with excess_at supplying the nodes.
    The panel count starts at 8 and doubles until two successive estimates
    agree within 1e-13 absolute or 1e-11 relative; the finer estimate is
    returned.  The stopping test compares two estimates, so the 8- and
    16-panel nodes of every interval are always solved: one excess_at call
    takes both.  From 32 panels on, each doubling solves the nodes of
    every interval not yet converged in one call.  Each interval stops on
    its own test, so its value has the same bits as when it is integrated
    alone.
    """
    out = [0.0] * len(bounds)
    # log radius: the start and width of each interval still to integrate
    span = {i: (math.log(r_lo), math.log(r_hi) - math.log(r_lo))
            for i, (r_lo, r_hi) in enumerate(bounds)
            if pf.beta != 1.0 and r_lo != r_hi}
    prev = {}
    levels = (_GL_PANELS, 2 * _GL_PANELS)
    while span:
        if levels[-1] > _GL_MAX_PANELS:
            raise RuntimeError("excess quadrature did not converge")
        batch = []
        for i, (s_lo, width) in span.items():
            for panels in levels:
                h = width / panels
                nodes = ((s_lo + h * np.arange(panels))[:, None]
                         + (0.5 * h) * (1.0 + _GL_X)).ravel()
                batch.append((i, panels, h, np.exp(nodes)))
        excess = pf.excess_at(np.concatenate([b[-1] for b in batch]))
        start = 0
        for i, panels, h, tau in batch:
            ex = excess[start:start + tau.size]
            start += tau.size
            w = np.tile(_GL_W, panels)
            est = 0.5 * h * float(np.dot(w, tau * tau * ex))
            if i in prev and abs(est - prev[i]) <= max(
                    _QUAD_EPSABS, _QUAD_EPSREL * abs(est)):
                out[i] = est
                del span[i]
            prev[i] = est
        levels = (2 * levels[-1],)
    return out


def partial_fractions(prof: WeightProfile, beta: float) -> PartialFractions:
    """Residues K_j = num(root_j)/den'(root_j) at the ray roots, with beta.

    prof is the problem's analysis, weights.classify's
    Admissibility.profile: its check already passed, so no input is
    checked again.  Three checks follow, in this order.  The largest of
    phasepoly.ray_roots' roots must equal 1 to 1e-9 plus twice the shift
    e/H'(1) that the profile's measured phase error e = prof.level_error
    makes ("root certification failed"); the poles are simple, one per
    phase target.  The residue at 1 must equal 1/m to 1e-10 plus twice
    the shift that e makes (below).  Then beta passes check_beta.  So
    every point weights.classify admits passes.

    The denominators come in closed form, not from den's coefficients: den
    is the ray polynomial R(t) sin(H(t a) - theta), R(t) =
    prod_j sqrt(1 + t^2 a_j^2), and root k counted down from the root 1
    (k = 0) has H(t_k a) = theta - k pi, so den'(t_k) = (-1)^k R(t_k)
    H'(t_k) with H'(t) = sum_j a_j/(1 + t^2 a_j^2).  R is formed as
    exp(sum_j log1p(t^2 a_j^2)/2), so the product of far roots' factors
    cannot overflow on the way.  On random level points this keeps the two
    profile routes within 1e-8 up to n = 56; den's derivative summed from
    its monomial coefficients loses that agreement past n = 32.  Off the
    level set by e (at most LEVEL_TOL), the largest root is 1 - delta with
    |delta| about e/H'(1), and den'(1) = R(1) (H'(1) cos(H - theta) +
    (R'/R)(1) sin(H - theta)) moves the residue at 1 by about
    (R'/R)(1) delta/m, where (R'/R)(1) = sum_j a_j^2/(1 + a_j^2) < n.
    """
    arr, level_error = prof.a, prof.level_error
    roots = ray_roots(prof.spec, arr)
    # a phase error e moves the root 1 by about e/H'(1), H'(1) = sum_j
    # a_j/(1 + a_j^2): the bound is 1e-9 plus twice that shift
    if not abs(roots[-1] - 1.0) <= 1e-9 + (
            2.0 * level_error / float(np.sum(1.0 / (arr + 1.0 / arr)))):
        raise ValueError("root certification failed")
    roots[-1] = 1.0
    num, den = _slope_pair(prof)
    # den'(t_k) = (-1)^k R(t_k) H'(t_k), k = 0 at the root 1 (see above)
    ta2 = (roots[:, None] * arr) ** 2
    sign = np.where(np.arange(roots.size)[::-1] % 2 == 0, 1.0, -1.0)
    h_prime = (arr / (1.0 + ta2)).sum(axis=1)
    slopes = sign * np.exp(0.5 * np.log1p(ta2).sum(axis=1)) * h_prime
    weights = npoly.polyval(roots, num) / slopes
    # off the level set by e, the closed form den'(1) is off by
    # R'(1)/R(1) < n times the root's shift e/H'(1)
    if abs(weights[-1] - 1.0 / prof.m) > 1e-10 + (
            2.0 * arr.size * level_error / (prof.m * float(h_prime[-1]))):
        raise ValueError("partial-fraction residue at 1 disagrees with 1/m")
    return PartialFractions(prof=prof, roots=roots, weights=weights,
                            num=tuple(num.tolist()),
                            den=tuple(den.tolist()), beta=beta)


def _log_b(terms: tuple, nu: float) -> float:
    """log of B(nu) = prod over sub-unit roots of (nu - root)^(m * K)."""
    total = 0.0
    for root, mk in terms:
        gap = nu - root
        if gap <= 0.0:
            raise ValueError("B(nu) undefined at or below the second root")
        total += mk * math.log(gap)
    return total


def tail_amplitude(pf: PartialFractions) -> float:
    """(beta-1) B(beta)/B(1), the tail's limit of (psi - 1) r^m, if finite."""
    beta = pf.beta
    if beta == 1.0:
        return 0.0
    log_ratio = pf.log_b_beta - pf.log_b_one
    if math.log(beta - 1.0) + log_ratio > _LOG_FLOAT_MAX:
        raise RuntimeError("tail amplitude overflows the float range")
    return (beta - 1.0) * math.exp(log_ratio)


@dataclass(frozen=True, eq=False)
class ProfileSolution:
    """A sampled trajectory of the profile.

    r is increasing from 1; psi = 1 + excess is nonincreasing with
    1 <= psi <= beta; excess carries the tail at full precision where psi
    itself would round to 1.
    """
    beta: float
    r: np.ndarray
    psi: np.ndarray
    excess: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.r) <= 0) or self.r[0] < 1.0:
            raise ValueError("sample radii must increase from at least 1")
        if np.any(self.excess < 0.0):
            raise ValueError("profile fell below the barrier psi = 1")
        if np.any(self.excess > (self.beta - 1.0) * (1.0 + 1e-9) + 1e-12):
            raise ValueError("profile exceeded its initial value beta")
        if np.any(np.diff(self.excess) > 1e-9 * self.excess[:-1] + 1e-300):
            raise ValueError("profile is not nonincreasing")


def solve_profile(pf: PartialFractions, r_max: float = 1.0e4,
                  route: str = "numeric") -> ProfileSolution:
    """Sample the profile of the problem pf on 241 log-spaced radii in
    [1, r_max].

    pf, the problem's partial_fractions, supplies beta and the slope-field
    pair to both routes.  route="numeric" integrates the log of the excess
    with the Dormand-Prince 5(4) pair (rtol 1e-12, atol 1e-13), stepping
    exactly onto every sample radius; it reads only pf.beta, pf.num and
    pf.den, never the roots or residues.  The equilibrium factor of the ray
    polynomial is extracted exactly first (Taylor shift to nu = 1, the
    constant term dropped: it is the float-rounding residue of the level
    membership already certified, and keeping it would move the fixed
    point off psi = 1 and stall the step controller once the excess decays
    below machine epsilon).  In log variables the slope is smooth and O(1),
    so the route stays accurate down to excesses far below 1e-16 without
    tiny steps.  route="implicit" solves the closed form at all sample
    radii at once (PartialFractions.excess_at).
    """
    if not (1.0 < r_max < math.inf):
        raise ValueError("r_max must be finite and exceed 1")
    if route not in ("numeric", "implicit"):
        raise ValueError("route must be 'numeric' or 'implicit'")
    rs = np.geomspace(1.0, r_max, _PROFILE_SAMPLES)
    rs[0] = 1.0

    if route == "numeric" and pf.beta > 1.0:
        shifted = list(pf.den)
        for j in range(len(shifted)):
            for i in range(len(shifted) - 2, j - 1, -1):
                shifted[i] += shifted[i + 1]
        # _horner inlined for both polynomials in one loop: the reduced den
        # and num each have N - 1 coefficients below the leading one, taken
        # in reverse, and each still sees polyval's operations in order
        red_top, num_top = shifted[-1], pf.num[-1]
        rest = tuple(zip(shifted[-2:0:-1], pf.num[-2::-1]))
        exp = math.exp

        def rhs(y):
            d = exp(y)
            x = 1.0 + d
            p = red_top + d * 0
            q = num_top + x * 0
            for c, e in rest:
                p = c + p * d
                q = e + q * x
            return -p / q

        excess = np.exp(_dormand_prince(rhs, math.log(pf.beta - 1.0),
                                        np.log(rs).tolist(), _PROFILE_TOL,
                                        0.1 * _PROFILE_TOL))
    else:
        # the implicit route, and the constant profile at beta = 1
        excess = pf.excess_at(rs)
    return ProfileSolution(beta=pf.beta, r=rs, psi=1.0 + excess,
                           excess=excess)


def tail_integral(pf: PartialFractions, radii: Sequence) -> tuple:
    """int_R^inf tau (psi(tau, beta) - 1) dtau for the problem pf, at each R.

    radii is a sequence of R >= 1 (a 1-tuple for one radius); the values
    come back as a tuple in its order.  Finite exactly when m > 2.
    Gauss-Legendre quadrature in log radius against the implicit route
    (_excess_integrals, every radius's nodes in one excess_at call for
    the first two panel counts and one per later panel count) covers
    [R, R_cut] with R_cut = max(1e3, 1e2 * R); beyond the cutoff the
    integrand is C tau^(1-m) to leading order and is added analytically;
    at beta = 1 both parts are 0.0.
    """
    if not all(R >= 1.0 for R in radii):
        raise ValueError("R must be at least 1")
    m = pf.prof.m
    if m <= 2.0:
        raise ValueError("integral may diverge")
    cuts = [max(1.0e3, 1.0e2 * R) for R in radii]
    if any(2.0 * math.log(r_cut) > _LOG_FLOAT_MAX for r_cut in cuts):
        raise ValueError("R too large: the quadrature weight tau^2 overflows")
    bodies = _excess_integrals(pf, tuple(zip(radii, cuts)))
    amp = tail_amplitude(pf)
    return tuple(body + amp * r_cut ** (2.0 - m) / (m - 2.0)
                 for body, r_cut in zip(bodies, cuts))


def decay_fit(sol: ProfileSolution) -> tuple:
    """(m_est, amp_est) from log-log least squares over the last decade.

    Requires a trajectory with beta > 1 reaching r >= 1e3 so the tail is in
    its power-law regime; returns the fitted exponent and amplitude of
    excess = amp * r^(-m_est).  Where the excess underflows to 0 (a suffix,
    as it is nonincreasing) the fit covers the last decade of the positive
    samples instead, and needs 5 of them.
    """
    if sol.beta <= 1.0:
        raise ValueError("no decay to fit at beta = 1")
    if sol.r[-1] < 1.0e3:
        raise ValueError("trajectory must reach r = 1e3")
    pos = sol.excess > 0.0
    mask = pos & (sol.r >= np.max(sol.r, where=pos, initial=0.0) / 10.0)
    if np.count_nonzero(mask) < 5:
        raise ValueError("not enough positive tail samples to fit")
    slope, intercept = np.polyfit(np.log(sol.r[mask]),
                                  np.log(sol.excess[mask]), 1)
    if intercept > _LOG_FLOAT_MAX:
        raise RuntimeError("fitted tail amplitude overflows the float range")
    return float(-slope), float(math.exp(intercept))
