"""The radial profile ODE for the subsolution construction, solved two ways.

For a level-set point a (phase theta, coefficients c_k, selected weights
s_k from the weights module) define the polynomial pair

    den(nu) = sum_{k=0}^{N} c_k sigma_k(a) nu^k        (the ray polynomial:
              all roots real and simple, the largest equal to 1)
    num(nu) = sum_{k=1}^{N} s_k c_k sigma_k(a) nu^(k-1)  (positive on nu >= 1).

The profile psi(r, beta) is the unique solution of

    psi'(r) = g(psi)/r,    g(nu) = -den(nu)/num(nu),    psi(1) = beta >= 1,

which decreases from beta to 1 with excess psi - 1 of size r^(-m), where
m = -g'(1) is the decay exponent.  Both routes work in the excess
x = psi - 1 on the pair shifted to 1 once: den(1 + x) = x D(x), its
constant term den(1) dropped (the float-rounding residue of the level
membership classify certified; kept, it would move the fixed point off
psi = 1), and N(x) = num(1 + x).  Then D(0)/N(0) = m, and

    E(x) = (m N(x) - D(x))/x

is a polynomial once the rounding-level constant term of m N - D is
dropped.  Two independent routes are implemented:

  * numeric: the Dormand-Prince 5(4) pair (Dormand & Prince 1980,
    J. Comput. Appl. Math. 6) on d(log x)/ds = -D(x)/num(1 + x) in
    s = log r.  Working in the log of the excess keeps the tail
    representable (x reaches 1e-24 and below for large m) where psi
    itself would round to 1.  It integrates the ODE and reads D only.
  * implicit: the ODE's first integral.  d(log r)/dx = -N/(x D) =
    -(1/m) (1/x + E/D) integrates, with no root of den, to

        log r(x) = (1/m) [log((beta - 1)/x) + int_x^{beta-1} E/D dt],

    and, as x -> 0, (psi - 1) r^m tends to C with

        log C = log(beta - 1) + int_0^{beta-1} E/D dt.

    The integrand is smooth on [0, beta - 1]: the roots of D are the
    other ray roots minus 1, all below 0.  In u = log x its poles sit at
    Im u = pi whatever the roots are, so Gauss-Legendre panels of width 1
    in u converge fast on every problem.

One problem (theta, a) is analysed once.  weights.classify checks it and
builds its WeightProfile: the ascending vector, m, the sigma row and the
selected chain.  first_integral takes that profile and
beta, nothing else.  It re-checks nothing classify checked: it builds the
slope-field pair (num, den) from the profile's sigma row and chain,
shifts it to 1, and makes two checks in place of root finding.  The ray
polynomial is real-rooted (H(t a) increases strictly along the ray), so
all its roots are at most 1 exactly when the coefficients of D share one
sign (Descartes' rule of signs); each must clear the shift's rounding
bound ("root certification failed").  And the residue at 1, N(0)/D(0),
must equal 1/m from the profile's chain, a scale-free check of the shift.
Then beta is bound, range-checked by check_beta, and C is only ever held
as log C (FirstIntegral.log_amplitude), so no beta overflows on the way.

The returned FirstIntegral holds the profile itself as pf.prof, and
copies none of its fields.  It is the only input of both profile routes,
the tail integrals and the subsol module, none of which takes beta; it
also evaluates g.  Polynomials in the numeric route are evaluated by
Horner's rule on Python floats, in numpy's polyval order, so every value
is bit-identical to the array evaluation.

Binding beta builds one table: 16-point Gauss-Legendre panels of width 1
in u = log x, from u = log(beta - 1) down past x = 2^-64, below which the
integral of E/D adds less than rounding and the profile is its tail law
x = C r^(-m).  Each panel keeps the Legendre antiderivative of its
16-node interpolant of x E(x)/D(x), so log r(u) anywhere is a cumulative
panel sum plus one Clenshaw sum.  excess_at runs Newton's method on that
table with the exact slope d(log r)/du = -N/D.  The tail integral

    mu(R) = int_R^inf tau (psi(tau) - 1) dtau = int_0^{x(R)} r(t)^2 N/D dt

(finite exactly when m > 2) is summed on the same panels, with no cutoff
in r: below the table the integrand is C^(2/m) t^(-2/m)/m to rounding,
integrated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre

from .weights import WeightProfile

BETA_CAP = 1.0e6
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# the first integral's table: 16-point Gauss-Legendre panels of width 1 in
# u = log(psi - 1), down past u = log(2^-64)
_GL_X, _GL_W = legendre.leggauss(16)
_PANEL = 1.0
_U_FLOOR = -64.0 * math.log(2.0)
# a panel's knots in its coordinate s: the lower edge, then the nodes
_KNOT_S = np.append(-1.0, _GL_X)
# node values @ _ANTIDERIVATIVE: the Legendre coefficients in s of
# int_s^1 of the panel's degree-15 interpolant, in u (the rule is exact on
# the products P_j P_k, so weights give the interpolant's coefficients);
# node values @ _AT_KNOTS: that integral at each knot, s = -1 first
_ANTIDERIVATIVE = legendre.legint(
    legendre.legvander(_GL_X, 15) * _GL_W[:, None] * (np.arange(16) + 0.5),
    lbnd=1, scl=-0.5 * _PANEL, axis=1)
_AT_KNOTS = _ANTIDERIVATIVE @ legendre.legvander(_KNOT_S, 16).T
# Newton from the secant between two knots: on iso, random and eps-family
# points (n = 3..150, beta up to 1e6) the second step moves u by at most
# 2e-7 and the third by rounding only; the third must stay below this
_NEWTON_STEPS = 3
_NEWTON_TOL = 1e-10
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


def check_rmax(r_max: float) -> np.ndarray:
    """The 241 log-spaced sample radii of [1, r_max] that solve_profile
    takes, after checking 1 < r_max < inf and that the radii strictly
    increase: an r_max within a few hundred ulps of 1 rounds some
    together."""
    if not (1.0 < r_max < math.inf):
        raise ValueError("r_max must be finite and exceed 1")
    rs = np.geomspace(1.0, r_max, _PROFILE_SAMPLES)
    rs[0] = 1.0
    if not np.all(np.diff(rs) > 0.0):
        raise ValueError(f"--rmax {r_max!r} is too close to 1: its "
                         f"{_PROFILE_SAMPLES} log-spaced sample radii do "
                         f"not increase")
    return rs


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


def _taylor_shift(coeffs: list) -> list:
    """Ascending coefficients of p(1 + x) from those of p(nu), by
    repeated synthetic division (n^2/2 additions)."""
    out = list(coeffs)
    for j in range(len(out)):
        for i in range(len(out) - 2, j - 1, -1):
            out[i] += out[i + 1]
    return out


def _horner(coeffs: Sequence, x):
    """Ascending coefficients evaluated at x in numpy polyval's order.

    Same operations as npoly.polyval (c0 = c[i] + c0*x, started from
    c[-1] + x*0), so the result is bit-identical, without the array
    overhead on a float; an array x is evaluated elementwise.
    """
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


def _ratio(p: Sequence, q: Sequence, x: np.ndarray) -> np.ndarray:
    """x^(len(q) - len(p)) p(x)/q(x) at every x > 0 of an array, with no
    power of x above 1 formed: Horner's rule in x up to x = 1, and on the
    reversed coefficients in 1/x beyond (len(q) - len(p) is 0 or 1)."""
    big = x > 1.0
    if not big.any():
        return x ** (len(q) - len(p)) * _horner(p, x) / _horner(q, x)
    y = np.where(big, 1.0 / np.maximum(x, 1.0), x)
    return np.where(big, _horner(p[::-1], y) / _horner(q[::-1], y),
                    x ** (len(q) - len(p)) * _horner(p, y) / _horner(q, y))


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
class FirstIntegral:
    """The first integral of one problem, bound to beta, that every route
    reuses.

    prof is the problem's WeightProfile, the one classify built, shared
    and not copied: the phase spec, the sorted vector a and the exponent
    m are read as prof.spec, prof.a and prof.m.  num and den are the
    ascending coefficients of the slope-field pair, as Python floats;
    d_coeffs, n_coeffs and e_coeffs those of D, N and E in x = psi - 1.
    beta = psi(1) passes check_beta on construction, and binding it,
    dataclasses.replace(pf, beta=b) included, builds the Gauss-Legendre
    table of log r over u = log x and log_amplitude, log C of the tail
    law psi - 1 ~ C r^(-m) (-inf at beta = 1).
    """
    prof: WeightProfile
    num: tuple
    den: tuple
    d_coeffs: tuple
    n_coeffs: tuple
    e_coeffs: tuple
    beta: float
    log_amplitude: float = field(init=False)
    # the table: its knots in u, ascending (each panel's lower edge and
    # its 16 nodes, then the top log(beta - 1)), the integral of E/D from
    # each knot to beta - 1, log r at each knot, and each panel's
    # antiderivative row of x E/D (see _ANTIDERIVATIVE)
    _knots: np.ndarray = field(init=False, repr=False)
    _gap: np.ndarray = field(init=False, repr=False)
    _knot_log_r: np.ndarray = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        beta = check_beta(self.beta)
        object.__setattr__(self, "beta", beta)
        if beta == 1.0:
            object.__setattr__(self, "log_amplitude", -math.inf)
            return
        top = math.log(beta - 1.0)
        panels = math.ceil((top - _U_FLOOR) / _PANEL)
        knots = (top - _PANEL * np.arange(panels, 0, -1.0))[:, None] + (
            0.5 * _PANEL * (1.0 + _KNOT_S))
        f = _ratio(self.e_coeffs, self.d_coeffs, np.exp(knots[:, 1:]))
        # from each knot to its panel's top, plus from there to the top
        within = f @ _AT_KNOTS
        above = np.cumsum(within[::-1, 0])[::-1]
        gap = np.append((within + np.append(above[1:], 0.0)[:, None]).ravel(),
                        0.0)
        knots = np.append(knots.ravel(), top)
        for name, value in (("log_amplitude", top + float(above[0])),
                            ("_knots", knots), ("_gap", gap),
                            ("_knot_log_r", (top - knots + gap) / self.prof.m),
                            ("_rows", f @ _ANTIDERIVATIVE)):
            object.__setattr__(self, name, value)

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

    def _solve(self, log_r: np.ndarray):
        """(u, p): u = log(psi - 1) at each log r >= 0 of a flat array, and
        its panel p, -1 past the table."""
        knots, gap, knot_log_r = self._knots, self._gap, self._knot_log_r
        m, top = self.prof.m, knots[-1]
        # knots j and j + 1, on panel j // 17, bracket log r
        j = np.searchsorted(-knot_log_r, -log_r, side="right") - 1
        below = j < 0
        j = np.clip(j, 0, knots.size - 2)
        lo, hi = knots[j], knots[j + 1]
        l_lo, l_hi = knot_log_r[j], knot_log_r[j + 1]
        u = lo + (hi - lo) * np.minimum((l_lo - log_r) / (l_lo - l_hi), 1.0)
        p = j // 17
        edge, above, rows = knots[17 * p], gap[17 * p + 17], self._rows[p].T
        for _ in range(_NEWTON_STEPS):
            s = 2.0 * (u - edge) / _PANEL - 1.0
            resid = (top - u + above + legendre.legval(s, rows, tensor=False)
                     ) / m - log_r
            # d(log r)/du = -N/D
            new = np.minimum(np.maximum(
                u + resid / _ratio(self.n_coeffs, self.d_coeffs, np.exp(u)),
                lo), hi)
            moved, u = np.abs(new - u), new
        if np.any((moved > _NEWTON_TOL * np.maximum(1.0, np.abs(u)))
                  & ~below):
            raise RuntimeError("implicit Newton iteration did not converge")
        # past the table: the tail law log x = log C - m log r
        return (np.where(below, self.log_amplitude - m * log_r, u),
                np.where(below, -1, p))

    def excess_at(self, r) -> np.ndarray:
        """psi(r, beta) - 1 at every radius of r (all >= 1), same shape.

        Newton's method on the table for u = log(psi - 1): from the secant
        between the two knots whose log r bracket log r, _NEWTON_STEPS
        steps with the exact slope -N/D, each kept between those knots; the
        last must move u by at most 1e-10 max(1, |u|) (RuntimeError
        otherwise).
        log r is strictly decreasing in u, so the root is unique.  Past
        the table the tail law x = C r^(-m) holds to rounding and may
        underflow to 0; r = 1 gives beta - 1 exactly.  Every operation is
        elementwise, so a radius gets the same bits alone as in any batch.
        """
        rs = np.asarray(r, dtype=float)
        if not np.all(rs >= 1.0):
            raise ValueError("r must be at least 1")
        if self.beta == 1.0:
            return np.zeros_like(rs)
        flat = rs.ravel()
        out = np.exp(self._solve(np.log(flat))[0])
        out[flat == 1.0] = self.beta - 1.0
        return out.reshape(rs.shape)


def first_integral(prof: WeightProfile, beta: float) -> FirstIntegral:
    """The first integral of the problem prof at beta.

    prof is the problem's analysis, weights.classify's
    Admissibility.profile: its check already passed, so no input is
    checked again.  The slope-field pair is shifted to 1 (den(1 + x) =
    x D(x) + den(1), N(x) = num(1 + x)) and two checks follow, in this
    order.  Every coefficient of D must exceed the shift's rounding bound,
    (N + 1) eps times the same coefficient of |den| shifted, N the ray
    degree ("root certification failed"): then D > 0 on x >= 0, and no
    ray root lies above 1.  And m N(0) must equal D(0) to 1e-10 relative
    plus that rounding bound ("residue at 1 disagrees with 1/m").  Then
    beta passes check_beta.  On admissible points (n = 3..150, iso,
    random and the eps family up to its crossing) the smallest
    coefficient of D is at least 2e-3 of its bound's scale, against
    rounding near 1e-14.
    """
    num, den = _slope_pair(prof)
    den = den.tolist()
    shifted = _taylor_shift(den)
    scale = _taylor_shift([abs(c) for c in den])
    ulps = len(den) * np.finfo(float).eps
    d = shifted[1:]
    if not math.isfinite(sum(scale)):
        raise ValueError("ray polynomial shifted to 1 leaves the float range")
    if not all(c > ulps * b for c, b in zip(d, scale[1:])):
        raise ValueError("root certification failed")
    n = _taylor_shift(num.tolist())
    m = prof.m
    if abs(m * n[0] - d[0]) > 1e-10 * d[0] + ulps * (
            scale[1] + m * float(np.abs(num).sum())):
        raise ValueError("residue at 1 disagrees with 1/m")
    e = [m * a - b for a, b in zip(n[1:], d[1:])]
    return FirstIntegral(prof=prof, num=tuple(num.tolist()), den=tuple(den),
                         d_coeffs=tuple(d), n_coeffs=tuple(n),
                         e_coeffs=tuple(e), beta=beta)


def tail_amplitude(pf: FirstIntegral) -> float:
    """C = exp(log C), the tail's limit of (psi - 1) r^m, if finite."""
    if pf.log_amplitude > _LOG_FLOAT_MAX:
        raise RuntimeError("tail amplitude overflows the float range")
    return math.exp(pf.log_amplitude)


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


def solve_profile(pf: FirstIntegral, r_max: float = 1.0e4,
                  route: str = "numeric") -> ProfileSolution:
    """Sample the profile of the problem pf on 241 log-spaced radii in
    [1, r_max].

    pf, the problem's first_integral, supplies beta and the polynomials
    to both routes.  route="numeric" integrates the log of the excess
    with the Dormand-Prince 5(4) pair (rtol 1e-12, atol 1e-13), stepping
    exactly onto every sample radius; it reads only pf.beta, pf.num and
    pf.d_coeffs, never the table.  In log variables the slope is smooth
    and O(1), so the route stays accurate down to excesses far below
    1e-16 without tiny steps.  route="implicit" solves the first integral
    at all sample radii at once (FirstIntegral.excess_at).
    """
    rs = check_rmax(r_max)
    if route not in ("numeric", "implicit"):
        raise ValueError("route must be 'numeric' or 'implicit'")

    if route == "numeric" and pf.beta > 1.0:
        # _horner inlined for both polynomials in one loop: D and num each
        # have N - 1 coefficients below the leading one, taken in reverse,
        # and each still sees polyval's operations in order
        d = pf.d_coeffs
        red_top, num_top = d[-1], pf.num[-1]
        rest = tuple(zip(d[-2::-1], pf.num[-2::-1]))
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


def tail_integral(pf: FirstIntegral, radii: Sequence) -> tuple:
    """int_R^inf tau (psi(tau, beta) - 1) dtau for the problem pf, at each R.

    radii is a sequence of R >= 1 (a 1-tuple for one radius); the values
    come back as a tuple in its order.  Finite exactly when m > 2.  With
    x(R) = psi(R) - 1 the integral is int_0^{x(R)} r(t)^2 N/D dt, summed
    in u = log t on pf's table: the integrand at the panels' nodes (log r
    read off the table), the panel sums, and for R the part of its panel
    above u(R) from the integrand's antiderivative rows.  Below the table
    the integrand is C^(2/m) t^(-2/m)/m to rounding, and its integral
    C^(2/m) x^(1 - 2/m)/(m - 2) is added (for R past the table it is the
    whole value, C R^(2-m)/(m - 2)).  No cutoff in r, so a large beta is
    integrated like any other.  At beta = 1 the values are 0.0.
    RuntimeError when a value overflows the float range.
    """
    if not all(R >= 1.0 for R in radii):
        raise ValueError("R must be at least 1")
    m = pf.prof.m
    if m <= 2.0:
        raise ValueError("integral may diverge")
    if pf.beta == 1.0:
        return (0.0,) * len(radii)
    m_2, log_amp = m - 2.0, pf.log_amplitude

    def below(u):
        # the integral from 0 to x = e^u past the table
        return np.exp(((2.0 * log_amp + m_2 * u) / m) - math.log(m_2))

    # r^2 (N/D) x, the integrand in u, at the nodes of every panel
    knots = pf._knots[:-1].reshape(-1, 17)
    nodes = knots[:, 1:]
    log_r = pf._knot_log_r[:-1].reshape(-1, 17)[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(2.0 * log_r + nodes) * _ratio(pf.n_coeffs, pf.d_coeffs,
                                                 np.exp(nodes))
        rows = g @ _ANTIDERIVATIVE
        # the integral from 0 to each panel's top edge
        upto = below(knots[0, 0]) + np.cumsum(g @ _AT_KNOTS[:, 0])
        u, p = pf._solve(np.log(np.array(radii, dtype=float)))
        inside = p >= 0
        p = np.maximum(p, 0)
        s = np.where(inside, 2.0 * (u - knots[p, 0]) / _PANEL - 1.0, 1.0)
        values = np.where(inside, upto[p] - legendre.legval(
            s, rows[p].T, tensor=False), below(u))
    if not np.all(np.isfinite(values)):
        raise RuntimeError("tail integral overflows the float range")
    return tuple(values.tolist())


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
