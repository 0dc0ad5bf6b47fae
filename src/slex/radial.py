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
dropped.  Two independent routes are implemented, one function each,
and both hand their excess to one check (nonnegative, at most beta - 1,
nonincreasing):

  * numeric (profile_numeric): the Dormand-Prince 5(4) pair (Dormand &
    Prince 1980, J. Comput. Appl. Math. 6) on d(log x)/ds = -D(x)/N(x)
    in s = log r.  Working in the log of the excess keeps the tail
    representable (x reaches 1e-24 and below for large m) where psi
    itself would round to 1.  It integrates the ODE and reads D and N
    only.
  * implicit (profile_implicit): the ODE's first integral.  d(log r)/dx
    = -N/(x D) = -(1/m) (1/x + E/D) integrates, with no root of den, to

        log r(x) = (1/m) [log((beta - 1)/x) + int_x^{beta-1} E/D dt],

    and, as x -> 0, (psi - 1) r^m tends to C with

        log C = log(beta - 1) + int_0^{beta-1} E/D dt.

    The integrand is smooth on [0, beta - 1]: the roots of D are the
    other ray roots minus 1, all below 0.  In u = log x its poles sit at
    Im u = pi whatever the roots are, so Gauss-Legendre panels of width 1
    in u converge fast on every problem.

One problem (theta, a) is analysed once.  weights.classify checks it and
builds its WeightProfile: the ascending vector, m, the sigma row and the
selected chain.  first_integral takes that profile and beta, nothing
else.  It re-checks nothing classify checked: it builds the slope-field
pair (num, den) from the profile's sigma row and chain and keeps it only
shifted to 1, exactly, in ints, each coefficient rounded to a float
once.  Exact sign checks take the place of root finding.  The ray
polynomial is real-rooted (H(t a) increases strictly along the ray), so
all its roots are at most 1 exactly when the coefficients of D share one
sign (Descartes' rule of signs); each must be positive, and so must each
of N, so N > 0 on x >= 0.  And the residue at 1, N(0)/D(0), must equal
1/m from the profile's chain, a scale-free check of the shift.  Then
beta is bound, as solve range-checked it (1 <= beta <= BETA_CAP), and C
is only ever held as log C (FirstIntegral.log_amplitude), so no beta
overflows on the way.

The returned FirstIntegral holds the profile itself as pf.prof, and
copies none of its fields.  It is the only problem input of invert, both
profile routes, the tail integrals and the subsol module, none of which
takes beta; it also evaluates the slope g(1 + x) = -x D(x)/N(x) on the
excess.  Ratios of D, N and E are evaluated by Horner's rule in x up to
x = 1 and in 1/x beyond, the numeric route's on Python floats in numpy's
polyval order, so every value is bit-identical to the array evaluation.

Binding beta builds one table: 16-point Gauss-Legendre panels of width 1
in u = log x, from u = log(beta - 1) down past x = 2^-64, below which the
integral of E/D adds less than rounding and the profile is its tail law
x = C r^(-m).  Each panel keeps the Legendre antiderivative of its
16-node interpolant of x E(x)/D(x), so log r(u) anywhere is a cumulative
panel sum plus one Clenshaw sum.  invert runs Newton's method on that
table with the exact slope d(log r)/du = -N/D, once per solve: the
implicit route and the grid read its excess, and tail_integral its log
excess and panel in

    mu(R) = int_R^inf tau (psi(tau) - 1) dtau = int_0^{x(R)} r(t)^2 N/D dt,

the tail integral (finite exactly when m > 2), summed on the same panels
with no cutoff in r: below the table the integrand is C^(2/m) t^(-2/m)/m
to rounding, integrated in closed form.

Truncation lies far below rounding: a panel errs by at most
(64/15) M rho^-32/(2 (rho^2 - 1)) (Trefethen, SIAM Review 50 (2008), Thm
4.5), M = max |x E/D| on the Bernstein ellipse E_rho, and the poles at
Im u = pi allow rho up to about 12.6, where rho^-32 is about 6e-36.
Against a 30-digit mpmath.quad, each panel sum errs by at most 3.2 eps
of sum |w_i f_i| (7.1e-16 relative) on the tested problems.
"""

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .weights import WeightProfile

BETA_CAP = 1.0e6
# the first integral's table: 16-point Gauss-Legendre panels of width 1 in
# u = log(psi - 1), down past u = log(2^-64).  The nodes and weights are
# numpy.polynomial.legendre.leggauss(16) to the bit
_GL_X = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499])
_GL_W = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176])
_PANEL = 1.0
_U_FLOOR = -64.0 * math.log(2.0)


def _legval(x, c):
    """sum_k c[k] P_k(x) down the first axis of c (len(c) >= 3), x
    broadcast over the rest: numpy's legval(x, c, tensor=False), by its
    Clenshaw recurrence with its operations in its order, so the bits are
    numpy's."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


def _legvander(x: np.ndarray, deg: int) -> np.ndarray:
    """V[i, k] = P_k(x[i]), k = 0..deg >= 1, for a 1-d float x: numpy's
    legvander by its forward recurrence, in its order and its memory
    layout (the transpose of a (deg + 1, x.size) array)."""
    x = x + 0.0
    v = np.empty((deg + 1, x.size))
    v[0] = x * 0 + 1
    v[1] = x
    for i in range(2, deg + 1):
        v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v.T


def _legint(c: np.ndarray, scl: float) -> np.ndarray:
    """Along axis 1 of a 2-d float c (3 or more columns), the Legendre
    coefficients of scl times the integral from 1 of the series c: numpy's
    legint(c, lbnd=1, scl=scl, axis=1), by its operations in its order and
    in its memory layout."""
    c = c.T * scl
    n = len(c)
    out = np.empty((n + 1, c.shape[1]))
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2] = c[1] / 3
    for j in range(2, n):
        t = c[j] / (2 * j + 1)
        out[j + 1] = t
        out[j - 1] -= t
    # numpy's integration constant: k = 0 minus the series at the bound
    out[0] += 0 - _legval(1, out)
    return out.T


# a panel's knots in its coordinate s: the lower edge, then the nodes
_KNOT_S = np.append(-1.0, _GL_X)
# node values @ _ANTIDERIVATIVE: the Legendre coefficients in s of
# int_s^1 of the panel's degree-15 interpolant, in u (the rule is exact on
# the products P_j P_k, so weights give the interpolant's coefficients);
# node values @ _AT_KNOTS: that integral at each knot, s = -1 first
_ANTIDERIVATIVE = _legint(
    _legvander(_GL_X, 15) * _GL_W[:, None] * (np.arange(16) + 0.5),
    -0.5 * _PANEL)
_AT_KNOTS = _ANTIDERIVATIVE @ _legvander(_KNOT_S, 16).T
# Newton from the secant between two knots: on iso, random and eps-family
# points (n = 3..150, beta up to 1e6) the second step moves u by at most
# 2e-7 and the third by rounding only; the third must stay below this
_NEWTON_STEPS = 3
_NEWTON_TOL = 1e-10
_PROFILE_SAMPLES = 241  # log-spaced sample radii of both profile routes


def check_rmax(r_max: float) -> np.ndarray:
    """The 241 log-spaced sample radii of [1, r_max] that both profile
    routes take, after checking 1 < r_max < inf and that the radii strictly
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
    """(num, den) as lists from a weight profile's sigma row and selected
    chain: den holds the ray polynomial's coefficients c_k sigma_k."""
    c, sig, sel = prof.spec.coeffs, prof.sigma, prof.selected
    deg = prof.spec.ray_degree
    return ([sel[k] * c[k] * sig[k] for k in range(1, deg + 1)],
            [c[k] * sig[k] for k in range(deg + 1)])


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


def _dormand_prince(f: Callable[[float], float], y0: float,
                    s_out: list) -> list:
    """y at every point of s_out for y' = f(y), y(s_out[0]) = y0.

    The Dormand-Prince 5(4) pair on Python floats with local extrapolation
    and the standard step control: a step is accepted when its error
    estimate is at most 1e-13 + 1e-12 * max(|y|, |y_new|), and the next
    step is scaled by 0.9 * err^(-1/5) clipped to [0.2, 10] (at most 1
    right after a rejection).  s_out must increase and hold two points or
    more; steps are cut to land exactly on each of them, so no dense
    output is needed.  The first trial step is the first output interval.
    Raises RuntimeError when the error estimate is not finite or the step
    collapses below 10 ulps of s.
    """
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    rtol, atol = 1e-12, 1e-13  # the numeric route's tolerances
    ulp, isfinite = math.ulp, math.isfinite
    ys = [y0]
    s, y = s_out[0], y0
    k1 = f(y)
    h = s_out[1] - s
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


class FirstIntegral(NamedTuple):
    """The first integral of one problem, bound to beta, that every route
    reuses; first_integral builds it, table included.

    prof is the problem's WeightProfile, the one classify built, shared
    and not copied: the phase spec, the sorted vector a and the exponent
    m are read as prof.spec, prof.a and prof.m.  d_coeffs, n_coeffs and
    e_coeffs are the ascending coefficients of D, N and E in the excess
    x = psi - 1, as Python floats rounded once from the exact shift
    (first_integral): the only copy of the slope field.  beta = psi(1) is
    taken as solve checked it, 1 <= beta <= BETA_CAP, and binding it
    builds the Gauss-Legendre table of log r over u = log x and
    log_amplitude, log C of the tail law psi - 1 ~ C r^(-m) (-inf at
    beta = 1, where there is no table).  To bind another beta, call
    first_integral again.
    """
    prof: WeightProfile
    d_coeffs: tuple
    n_coeffs: tuple
    e_coeffs: tuple
    beta: float
    log_amplitude: float
    # the table: its knots in u, ascending (each panel's lower edge and
    # its 16 nodes, then the top log(beta - 1)), the integral of E/D from
    # each knot to beta - 1, log r at each knot, and each panel's
    # antiderivative row of x E/D (see _ANTIDERIVATIVE)
    knots: Optional[np.ndarray] = None
    gap: Optional[np.ndarray] = None
    knot_log_r: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None

    def slope(self, x) -> np.ndarray:
        """g(1 + x) = -x D(x)/N(x) at every excess x >= 0 of x, same shape:
        psi' r at psi = 1 + x, zero at x = 0 and negative beyond."""
        x = np.asarray(x, dtype=float)
        return -x * _ratio(self.d_coeffs, self.n_coeffs, x)


class Inversion(NamedTuple):
    """A first integral read by invert at radii r (flat, all >= 1): u =
    log(psi - 1) as Newton leaves it (log_excess), its table panel (-1
    past the table), and the excess e^u, beta - 1 at r = 1."""
    r: np.ndarray
    excess: np.ndarray
    log_excess: np.ndarray
    panel: np.ndarray


def invert(pf: FirstIntegral, *radii) -> tuple:
    """One Inversion per sequence of radii, in order, from one Newton
    solve of pf's table on all of them at once.

    Every radius is at least 1, as solve's are: the sample radii from
    check_rmax, the shells from gamma (1 + 1e-6) and (gamma, 10 gamma),
    with gamma >= 1 checked.  Nothing checks it here.

    From the secant between the two knots whose log r bracket log r,
    _NEWTON_STEPS steps with the exact slope -N/D, each kept between those
    knots; the last must move u by at most 1e-10 max(1, |u|) (RuntimeError
    otherwise).  log r is strictly decreasing in u, so the root is unique.
    Past the table the tail law x = C r^(-m) holds to rounding and may
    underflow to 0; at beta = 1 no step runs.  Every operation is
    elementwise, so a radius gets the same bits alone as in any batch.
    """
    r = np.concatenate(radii, dtype=float)
    log_r, m = np.log(r), pf.prof.m
    if pf.beta == 1.0:
        u, p = np.full_like(r, -math.inf), np.full(r.shape, -1)
    else:
        knots, gap, knot_log_r = pf.knots, pf.gap, pf.knot_log_r
        top = knots[-1]
        # knots j and j + 1, on panel j // 17, bracket log r
        j = np.searchsorted(-knot_log_r, -log_r, side="right") - 1
        below = j < 0
        j = np.clip(j, 0, knots.size - 2)
        lo, hi = knots[j], knots[j + 1]
        l_lo, l_hi = knot_log_r[j], knot_log_r[j + 1]
        u = lo + (hi - lo) * np.minimum((l_lo - log_r) / (l_lo - l_hi), 1.0)
        p = j // 17
        edge, above, rows = knots[17 * p], gap[17 * p + 17], pf.rows[p].T
        for _ in range(_NEWTON_STEPS):
            s = 2.0 * (u - edge) / _PANEL - 1.0
            resid = (top - u + above + _legval(s, rows)) / m - log_r
            # d(log r)/du = -N/D
            new = np.minimum(np.maximum(
                u + resid / _ratio(pf.n_coeffs, pf.d_coeffs, np.exp(u)),
                lo), hi)
            moved, u = np.abs(new - u), new
        if np.any((moved > _NEWTON_TOL * np.maximum(1.0, np.abs(u)))
                  & ~below):
            raise RuntimeError("implicit Newton iteration did not converge")
        # past the table: the tail law log x = log C - m log r
        u = np.where(below, pf.log_amplitude - m * log_r, u)
        p = np.where(below, -1, p)
    x = np.exp(u)
    x[r == 1.0] = pf.beta - 1.0
    cut = np.cumsum([len(rs) for rs in radii])[:-1]
    return tuple(map(Inversion, *(np.split(v, cut) for v in (r, x, u, p))))


def first_integral(prof: WeightProfile, beta: float) -> FirstIntegral:
    """The first integral of the problem prof at beta.

    prof is weights.classify's Admissibility.profile: its check already
    passed, so no input is checked again.  The pair's floats are written
    as ints over one power of two 2^k and shifted to 1 exactly (den(1 + x)
    = x D(x) + den(1), N(x) = num(1 + x)); with m = p/q, m N - D =
    x E(x) + (m N(0) - D(0)) is exact over q 2^k.  The absolute
    coefficients of D and of m N must add up to less than 2^1023 ("ray
    polynomial shifted to 1 leaves the float range"), one comparison of
    bit lengths: as |E| <= m |N| + |D|, that bounds every Horner sum of
    D, N and E the routes and the table form.  Iso points fail it from
    n = 154 at the critical angle and n = 137 at (n - 1) pi/2.  Then each
    coefficient is rounded to a float once (int / int rounds correctly);
    a multiple of 2^-1074, its float is positive exactly when it is.
    Every coefficient of D must be positive ("root certification
    failed"): then no ray root lies above 1.  So must every one of N
    ("slope-field denominator not certified positive"), so the Horner
    sums of D and N add positive terms.  And m N(0) must equal D(0) to
    1e-10 relative, compared in ints, as m is a rounded float ("residue
    at 1 disagrees with 1/m").  Then beta is bound: log C and the table
    (FirstIntegral), none at beta = 1.
    """
    num, den = _slope_pair(prof)
    ratios = [c.as_integer_ratio() for c in den + num]
    k = max(q for _p, q in ratios).bit_length() - 1
    ints = [p << k + 1 - q.bit_length() for p, q in ratios]
    d, n = _taylor_shift(ints[:len(den)])[1:], _taylor_shift(ints[len(den):])
    p, q = prof.m.as_integer_ratio()
    if (q * sum(map(abs, d)) + p * sum(map(abs, n))).bit_length() \
            >= 1023 + (q << k).bit_length():
        raise ValueError("ray polynomial shifted to 1 leaves the float range")
    d_coeffs, n_coeffs = (tuple(c / (1 << k) for c in cs) for cs in (d, n))
    if not all(c > 0.0 for c in d_coeffs):
        raise ValueError("root certification failed")
    if not all(c > 0.0 for c in n_coeffs):
        raise ValueError("slope-field denominator not certified positive")
    residue, *e = [p * a - q * b for a, b in zip(n, d)]
    if 10 ** 10 * abs(residue) > q * d[0]:
        raise ValueError("residue at 1 disagrees with 1/m")
    e_coeffs = tuple(c / (q << k) for c in e)
    if beta == 1.0:
        return FirstIntegral(prof, d_coeffs, n_coeffs, e_coeffs, beta,
                             -math.inf)
    top = math.log(beta - 1.0)
    panels = math.ceil((top - _U_FLOOR) / _PANEL)
    knots = (top - _PANEL * np.arange(panels, 0, -1.0))[:, None] + (
        0.5 * _PANEL * (1.0 + _KNOT_S))
    f = _ratio(e_coeffs, d_coeffs, np.exp(knots[:, 1:]))
    # from each knot to its panel's top, plus from there to the top
    within = f @ _AT_KNOTS
    above = np.cumsum(within[::-1, 0])[::-1]
    gap = np.append((within + np.append(above[1:], 0.0)[:, None]).ravel(),
                    0.0)
    knots = np.append(knots.ravel(), top)
    return FirstIntegral(prof, d_coeffs, n_coeffs, e_coeffs, beta,
                         top + float(above[0]), knots, gap,
                         (top - knots + gap) / prof.m, f @ _ANTIDERIVATIVE)


class ProfileSolution(NamedTuple):
    """A sampled trajectory of the profile.

    r is increasing from 1; psi = 1 + excess is nonincreasing with
    1 <= psi <= beta; excess carries the tail at full precision where psi
    itself would round to 1.  _checked_profile checks the excess before it
    builds one.
    """
    r: np.ndarray
    psi: np.ndarray
    excess: np.ndarray


def _checked_profile(pf: FirstIntegral, rs: np.ndarray,
                     excess: np.ndarray) -> ProfileSolution:
    """The profile of pf with this excess at the radii rs, once the excess
    is nonnegative, at most beta - 1 and nonincreasing, to 1e-9 relative
    (ValueError otherwise)."""
    if np.any(excess < 0.0):
        raise ValueError("profile fell below the barrier psi = 1")
    if np.any(excess > (pf.beta - 1.0) * (1.0 + 1e-9) + 1e-12):
        raise ValueError("profile exceeded its initial value beta")
    if np.any(np.diff(excess) > 1e-9 * excess[:-1] + 1e-300):
        raise ValueError("profile is not nonincreasing")
    return ProfileSolution(rs, 1.0 + excess, excess)


def profile_numeric(pf: FirstIntegral, rs: np.ndarray) -> ProfileSolution:
    """The numeric route: the profile of pf at the radii rs, as check_rmax
    returns them.

    It integrates the log of the excess with the Dormand-Prince 5(4) pair
    (rtol 1e-12, atol 1e-13), stepping exactly onto every radius, and
    reads only pf.beta, pf.d_coeffs and pf.n_coeffs, never the table.  In
    log variables the slope is smooth and O(1), so the route stays
    accurate down to excesses far below 1e-16 without tiny steps.
    """
    if pf.beta == 1.0:  # the constant profile
        return _checked_profile(pf, rs, np.zeros_like(rs))
    # -D/N as _ratio takes it, _horner inlined for D and N in one loop
    # (their certified coefficients are positive, so polyval's + x*0
    # changes no bit): from the top in x = e^y up to 1, from the bottom in
    # 1/x beyond
    d, n = pf.d_coeffs, pf.n_coeffs
    small = (d[-1], n[-1], tuple(zip(d[-2::-1], n[-2::-1])))
    big = (d[0], n[0], tuple(zip(d[1:], n[1:])))
    exp = math.exp

    def rhs(y):
        x = exp(y)
        if x > 1.0:
            x = 1.0 / x
            p, q, rest = big
        else:
            p, q, rest = small
        for c, e in rest:
            p = c + p * x
            q = e + q * x
        return -p / q

    return _checked_profile(pf, rs, np.exp(_dormand_prince(
        rhs, math.log(pf.beta - 1.0), np.log(rs).tolist())))


def profile_implicit(pf: FirstIntegral, at: Inversion) -> ProfileSolution:
    """The implicit route: the profile of pf at the radii of at, their
    Inversion (invert), read off its excess."""
    return _checked_profile(pf, at.r, at.excess)


def tail_integral(pf: FirstIntegral, at: Inversion) -> tuple:
    """int_R^inf tau (psi(tau, beta) - 1) dtau for the problem pf, at each R.

    at is pf's Inversion at the radii R, and the values come back as a
    tuple in their order.  Finite exactly when m > 2, which classify's
    "admissible", the one class solve integrates, guarantees; at m <= 2
    the closed-form part fails in math.log(m - 2).  With
    x(R) = psi(R) - 1 the integral is int_0^{x(R)} r(t)^2 N/D dt, summed
    in u = log t on pf's table: the integrand at the panels' nodes (log r
    read off the table), the panel sums, and for R the part of its panel
    above u(R) from the integrand's antiderivative rows, with u(R) and its
    panel read from at.log_excess and at.panel.  Below the table the
    integrand is C^(2/m) t^(-2/m)/m to rounding, and its integral
    C^(2/m) x^(1 - 2/m)/(m - 2) is added (for R past the table it is the
    whole value, C R^(2-m)/(m - 2)).  No cutoff in r, so a large beta is
    integrated like any other.  At beta = 1 the values are 0.0.
    RuntimeError when a value overflows the float range.
    """
    m = pf.prof.m
    if pf.beta == 1.0:
        return (0.0,) * at.r.size
    m_2, log_amp = m - 2.0, pf.log_amplitude

    def below(u):
        # the integral from 0 to x = e^u past the table
        return np.exp(((2.0 * log_amp + m_2 * u) / m) - math.log(m_2))

    # r^2 (N/D) x, the integrand in u, at the nodes of every panel
    knots = pf.knots[:-1].reshape(-1, 17)
    nodes = knots[:, 1:]
    log_r = pf.knot_log_r[:-1].reshape(-1, 17)[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(2.0 * log_r + nodes) * _ratio(pf.n_coeffs, pf.d_coeffs,
                                                 np.exp(nodes))
        rows = g @ _ANTIDERIVATIVE
        # the integral from 0 to each panel's top edge
        upto = below(knots[0, 0]) + np.cumsum(g @ _AT_KNOTS[:, 0])
        u, p = at.log_excess, at.panel
        inside = p >= 0
        p = np.maximum(p, 0)
        s = np.where(inside, 2.0 * (u - knots[p, 0]) / _PANEL - 1.0, 1.0)
        values = np.where(inside, upto[p] - _legval(s, rows[p].T),
                          below(u))
    if not np.all(np.isfinite(values)):
        raise RuntimeError("tail integral overflows the float range")
    return tuple(values.tolist())

